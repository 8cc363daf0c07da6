"""Compare the benchmark results of two commits.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result files that `run.py --out DIR` writes, one
per run. Runs pair up by workload and seed. updates_per_s comes from the
traced runs (--trace 1), every other metric from the untraced ones. For every workload
and end-to-end metric this prints each side's median with its quartiles,
the fraction of pairs the change wins (ties count for neither), whether
the medians differ by more than the parent's own interquartile range, and
a verdict:

- gain: the change wins at least 9 of 10 pairs and the medians differ
  by more than the parent's IQR, with no more failed operations;
- regression: the change's median is worse than the parent's by more
  than the metric's bound in BENCHMARK.json;
- unresolved: the parent's own spread is wider than the bound, and not
  every change run beats every parent run;
- same: none of these.

Runs whose BLAS thread pin did not take are left out and listed. A
parent seed with no measured run on the change side (missing, skipped or
failed before measuring) is listed as missing, and more failed operations
on the change side than on the parent's are listed too; either sets exit
code 1, as a regression does.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Reported alongside the bounded end-to-end metrics; they have no bound.
# The raw_* figures are the bounded timings before the host-speed correction.
# updates_per_s needs an update count, which only traced runs take.
UNBOUNDED_BETTER = {"raw_env_steps_per_s": "higher", "raw_setup_s": "lower",
                    "wall_s": "lower", "updates_per_s": "higher"}
TRACED = {"updates_per_s"}
WIN_FRACTION = 0.9


def load(directory: Path) -> tuple[dict, list[str]]:
    """{(workload, trace): {seed: result}} for runs whose pin took, and the skipped files."""
    runs: dict[tuple[str, int], dict[int, dict]] = {}
    skipped = []
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text())
        if not result["fingerprint"]["pin_took"]:
            skipped.append(path.name)
            continue
        runs.setdefault((result["workload"], result["trace"]), {})[result["seed"]] = result
    return runs, skipped


def values(runs: dict[int, dict], name: str) -> dict[int, float]:
    """{seed: the run's median of the metric} for runs that measured it."""
    return {seed: r["stats"][name]["median"] for seed, r in runs.items() if r["stats"][name].get("n")}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float | None, more_failures: bool) -> tuple[float, bool, str]:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_frac = wins / len(pairs) if pairs else 0.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    beyond_iqr = abs(c_med - p_med) > p_q3 - p_q1
    worse_by = sign * (p_med - c_med) / abs(p_med) if p_med else 0.0
    if win_frac >= WIN_FRACTION and beyond_iqr and sign * (c_med - p_med) > 0 and not more_failures:
        return win_frac, beyond_iqr, "gain"
    if bound is None:
        return win_frac, beyond_iqr, "-"
    if worse_by > bound:
        return win_frac, beyond_iqr, "regression"
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if p_med and (p_q3 - p_q1) / abs(p_med) > bound and not all_better:
        return win_frac, beyond_iqr, "unresolved"
    return win_frac, beyond_iqr, "same"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    metrics.update({k: (v, None) for k, v in UNBOUNDED_BETTER.items()})
    parent, p_skipped = load(args.parent)
    change, c_skipped = load(args.change)
    for path in p_skipped + c_skipped:
        print(f"# skipped {path}: BLAS pin did not take, not comparable")

    print(f"{'workload':<16}{'metric':<21}{'parent median [q1, q3]':>34}{'change median [q1, q3]':>34}"
          f"{'pairs':>6}{'win':>6}{'>IQR':>6}  verdict")
    status = 0
    for workload in sorted({w for w, _ in parent}):
        failed = [sum(r["failed"] for (w, _), runs in side.items() if w == workload for r in runs.values())
                  for side in (parent, change)]
        more_failures = failed[1] > failed[0]
        if more_failures:
            print(f"{workload:<16}failed operations: parent {failed[0]}, change {failed[1]}")
            status = 1
        for name, (better, bound) in metrics.items():
            key = (workload, int(name in TRACED))
            p, c = values(parent.get(key, {}), name), values(change.get(key, {}), name)
            if not any(p.values()):  # e.g. updates_per_s on an eval workload
                continue
            missing = sorted(set(p) - set(c))
            if missing:
                print(f"{workload:<16}{name:<21}no change run measured seeds {missing}")
                status = 1
            if not c:
                continue
            pairs = [(p[s], c[s]) for s in sorted(set(p) & set(c))]
            p_vals, c_vals = list(p.values()), list(c.values())
            win, beyond, word = verdict(p_vals, c_vals, pairs, better, bound, more_failures)
            status |= word == "regression"
            print(f"{workload:<16}{name:<21}{_cell(quartiles(p_vals)):>34}{_cell(quartiles(c_vals)):>34}"
                  f"{len(pairs):>6}{win:>6.2f}{'yes' if beyond else 'no':>6}  {word}")
    return int(status)


def _cell(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


if __name__ == "__main__":
    sys.exit(main())
