"""Benchmark driver for resnav: one workload per process, or all of them.

    python3 perfbench/run.py --workload eval_prior --seed 3 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 36   # untraced and traced

With --trace 0 the last stdout line is a JSON object holding the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run.
See perfbench/README.md for the metrics, workloads and compare mode.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PIN_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOAD_NAMES = ("train_residual", "eval_gated", "eval_prior")
MIN_REPS = 3
# Timed set-ups per repetition: at least this many, and for at least this long.
SETUP_MIN_N = 2
SETUP_MIN_S = 0.5

END_TO_END_UNITS = {
    "setup_s": "s",
    "env_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Reported with the end-to-end figures but not bounded by BENCHMARK.json:
# wall_s and updates_per_s depend on the worlds a seed draws (or are zero on
# eval workloads), failed_frac is zero on a good run, and the raw_* figures
# and probe_s are the uncorrected timings and the host probe (HostProbe).
REPORTED_UNITS = {**END_TO_END_UNITS, "raw_setup_s": "s", "raw_env_steps_per_s": "1/s",
                  "probe_s": "s", "wall_s": "s", "updates_per_s": "1/s", "failed_frac": "ratio"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time of one run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=None,
                   help="directory for the full result JSON (default .perfbench/results with 'all')")
    # --workload all ignores --trace: it runs every workload both ways
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# run fingerprint


def _git_sha(root: Path) -> str:
    """HEAD's commit, with "-dirty" if the tree has changes; "unknown" outside git."""
    # stop git from looking for a repository above the checkout, and from
    # refreshing the index while it reads the tree's status
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent), "GIT_OPTIONAL_LOCKS": "0"}
    try:
        sha = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(root), "status", "--porcelain"], env=env,
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return sha + ("-dirty" if dirty else "")


def _thread_count() -> int | None:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def fingerprint(seed: int, numpy_preloaded: bool, env_before: dict) -> dict:
    import platform

    import numpy as np

    # a product big enough that a multi-threaded BLAS would start its pool
    a = np.ones((256, 256))
    _ = a @ a
    threads = _thread_count()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict mode; the version is then unknown
        blas_version = "unknown"
    pin_took = not numpy_preloaded and threads in (None, 1)
    return {
        "git_sha": _git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "pinned_env": {k: os.environ.get(k) for k in PIN_ENV},
        "pinned_env_before": env_before,
        "numpy_imported_before_pin": numpy_preloaded,
        "process_threads": threads,
        "pin_took": pin_took,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# host speed


class HostProbe:
    """Gauges the host's speed with a fixed piece of work that resnav does not run.

    On a shared host the same code runs up to 1.6x faster or slower from one
    second or minute to the next, in CPU time as well as wall time. The
    probe, a few small numpy operations like resnav's and some plain Python
    arithmetic, slows down with it. While an operation is timed, a timer
    signal runs the probe every INTERVAL_S; the operation's own time is its
    wall time minus the probes', and its corrected time is its own time
    scaled by REF_S over the probes' mean. Corrected figures read as if
    measured on a host where the probe takes REF_S. The probe lives here, so
    no change to resnav can move it.
    """

    INTERVAL_S = 0.05
    REF_S = 0.0023  # about the probe's median time on the 2-core host the benchmark was built on

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._x = rng.standard_normal((100, 21))
        self._w1 = rng.standard_normal((21, 64)) / 5.0
        self._w2 = rng.standard_normal((64, 64)) / 8.0
        self._times: list[float] | None = None  # the probes of the operation being timed
        self.samples: list[float] = []

    def probe(self) -> float:
        np = self._np
        rng = np.random.default_rng(1)
        t0 = time.perf_counter()
        for _ in range(6):
            h = np.tanh(self._x @ self._w1) * (rng.random((100, 64)) > 0.2)
            h = np.tanh(h @ self._w2) * (rng.random((100, 64)) > 0.2)
            h.mean(axis=0)
            h.var(axis=0)
        acc = 0.0
        for i in range(6000):
            acc += math.sin(i * 1e-3)
        return time.perf_counter() - t0

    def _on_timer(self, signum, frame) -> None:
        times, self._times = self._times, None  # None: a signal during the probe is ignored
        if times is not None:
            times.append(self.probe())
            self._times = times

    def timed(self, fn, *args):
        """(fn's result, fn's own seconds, own seconds corrected for the host's speed)."""
        times: list[float] = []
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        self._times = times
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            self._times = None
            signal.signal(signal.SIGALRM, previous)
        own = elapsed - sum(times)
        if not times:  # shorter than INTERVAL_S
            times.append(self.probe())
        self.samples.extend(times)
        return result, own, own * self.REF_S / statistics.fmean(times)


# ---------------------------------------------------------------------------
# statistics


def summary(values: list[float]) -> dict:
    """Median, quartiles, tails and sample count of a list of samples."""
    from tracer import percentile

    if not values:
        return {"n": 0}
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {
        "n": len(values),
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "p10": percentile(values, 10),
        "p90": percentile(values, 90),
    }


# ---------------------------------------------------------------------------
# one workload


def scratch_dir():
    """A temporary directory inside the checkout, removed on exit."""
    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(prefix="tmp-", dir=base)


class Ops:
    """Counts operations (repetitions and checks) and the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failures.append(f"{name}: " + "; ".join(problems[:5]))
            print(f"FAILED {self.failures[-1]}", file=sys.stderr)
        return not problems

    def run(self, name: str, fn, *args):
        """Call fn, counting an exception as a failed operation; None on failure."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failures.append(f"{name}: {traceback.format_exc(limit=3).strip().splitlines()[-1]}")
            print(f"FAILED {name}\n{traceback.format_exc()}", file=sys.stderr)
            return None


def run_workload(name: str, seed: int, seconds: float, trace: bool, fp: dict) -> dict:
    import tracer as tr
    import workloads as wl

    wk = wl.WORKLOADS[name]
    seeds = wl.Seeds.derive(seed)
    ops = Ops()
    tr.import_package()
    ops.check("bindings", tr.check_bindings())

    probe = HostProbe()
    setup_s: list[float] = []
    raw_setup_s: list[float] = []
    fingerprints: list[tuple] = []
    wall_s: list[float] = []
    rates: list[float] = []
    raw_rates: list[float] = []
    units: list[dict] = []
    paired_wall_s: list[float] = []  # the untraced wall time just before each unit
    state = None
    variants = itertools.count(1)

    def setup_batch() -> int | None:
        """Set up further input sets drawn from the seed; how many, None on failure."""
        n = 0
        t_start = time.perf_counter()
        while n < SETUP_MIN_N or time.perf_counter() - t_start < SETUP_MIN_S:
            if ops.run("setup variant", wk.setup, wl.Seeds.derive(seed, next(variants))) is None:
                return None
            n += 1
        return n

    def set_up():
        """Set up the run's inputs afresh, then time set-ups of further input sets.

        World generation retries until its constraints hold, so one suite's
        set-up time depends a lot on the suite. Each repetition times a batch
        of set-ups, each of a new input set drawn from the seed, and its
        setup_s sample is the batch's mean: steady from seed to seed where
        one suite's time is not.
        """
        nonlocal state
        state = ops.run("setup", wk.setup, seeds)
        if state is None:
            return None
        n, own, corrected = probe.timed(setup_batch)
        if n is None:
            return None
        raw_setup_s.append(own / n)
        setup_s.append(corrected / n)
        return state

    with scratch_dir() as tmp:
        tmp = Path(tmp)

        def repetition(tracer=None) -> bool:
            """Set up, then one timed repetition; traced ones also set up traced."""
            if tracer is None:
                if set_up() is None:
                    return False
                result, elapsed, corrected = probe.timed(ops.run, "repetition", wk.repeat, state, seeds)
            else:
                unit_state = ops.run("traced setup", wk.setup, seeds)
                if unit_state is None:
                    return False
                result = ops.run("traced repetition", wk.repeat, unit_state, seeds)
            if result is None:
                return False
            if tracer is not None:
                units.append(tracer.unit_summary(wk.root))
                paired_wall_s.append(wall_s[-1])
                tracer.reset()
            out = ops.run("inspect", wk.inspect, result, tmp)
            if out is None:
                return False
            ops.check("sanity", out.problems)
            fingerprints.append(out.fingerprint)
            if tracer is None:
                wall_s.append(elapsed)
                rates.append(out.env_steps / corrected)
                raw_rates.append(out.env_steps / elapsed)
            return True

        # Repetitions are deterministic, so one that raises would raise again.
        # A traced run alternates untraced repetitions and traced units, so
        # that drift in the host's speed cancels out of trace.overhead_frac.
        t_start = time.perf_counter()
        n = 0
        while n < (2 if trace else MIN_REPS) or time.perf_counter() - t_start < seconds:
            if not repetition():
                break
            if trace:
                with tr.Tracer() as tracer:
                    if not repetition(tracer):
                        break
            n += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if trace:
            ops.check("wrapper self-test",
                      tr.self_test(units, wk.active) if units else ["no traced repetition completed"])
        ops.check("fingerprints", [
            f"repetition {i} differs from repetition 0"
            for i, f in enumerate(fingerprints) if f != fingerprints[0]
        ] if fingerprints else ["no repetition completed"])
        if state is not None:
            for check, problems in (ops.run("checks", wk.checks, state, seeds) or {}).items():
                ops.check(check, problems)

    updates = float(units[0]["calls"]["td3.critic_update"]) if units else 0.0
    wall_med = statistics.median(wall_s) if wall_s else 0.0
    samples = {
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "probe_s": probe.samples,
        "wall_s": wall_s,
        "env_steps_per_s": rates,
        "raw_env_steps_per_s": raw_rates,
        "updates_per_s": [updates / w for w in wall_s] if units else [],
        "peak_rss_mb": [peak_rss_mb],
        "failed_frac": [len(ops.failures) / max(ops.attempted, 1)],
    }
    stats = {k: summary(v) for k, v in samples.items()}
    if trace:
        layer = tr.layer_metrics(units or [tr.empty_unit()], paired_wall_s)
        values = {**layer, "wall_s": wall_med,
                  "updates_per_s": stats["updates_per_s"].get("median", 0.0),
                  "failed_frac": samples["failed_frac"][0]}
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in values.items()}
    else:
        metrics = {k: {"value": stats[k].get("median", 0.0), "unit": u}
                   for k, u in END_TO_END_UNITS.items()}
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "fingerprint": fp,
        "correct": not ops.failures and bool(wall_s),
        "attempted": max(ops.attempted, 1),
        "failed": len(ops.failures),
        "failures": ops.failures,
        "metrics": metrics,
        "stats": stats,
        "samples": samples,
    }


def _layer_unit(name: str) -> str:
    if name.endswith((".calls", ".passes")):
        return "count"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    return "ratio"


def print_report(result: dict) -> None:
    fp = result["fingerprint"]
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"sha={fp['git_sha']} python={fp['python']} numpy={fp['numpy']} blas={fp['blas']} "
          f"nproc={fp['nproc']} pin_took={fp['pin_took']}")
    if not fp["pin_took"]:
        print("# WARNING: BLAS thread pin did not take effect; this run is not comparable")
    for name, unit in REPORTED_UNITS.items():
        s = result["stats"][name]
        if not s.get("n"):
            continue
        tail = "p10" if name.endswith("per_s") else "p90"
        print(f"  {name:<18} {s['median']:>12.4f} {unit:<6} {tail} {s[tail]:>12.4f}  "
              f"IQR [{s['q1']:.4f}, {s['q3']:.4f}]  n={s['n']}")
    print(f"  correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")


def save(result: dict, out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return path


def run_all(args) -> int:
    """Run every workload untraced and traced, each in its own process, and tabulate.

    Own processes keep each workload's peak RSS its own. updates_per_s
    needs the traced run's update count, so it comes from the traced run.
    """
    out_dir = args.out or ROOT / ".perfbench" / "results"
    results: dict[tuple[str, int], dict] = {}
    for trace in (0, 1):
        for name in WORKLOAD_NAMES:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--out", str(out_dir)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
            if proc.returncode != 0:
                print(f"# {name} exited with code {proc.returncode}")
                return proc.returncode
            path = out_dir / f"{name}-seed{args.seed}-trace{trace}.json"
            results[(name, trace)] = json.loads(path.read_text())

    print(f"\n{'metric':<46}{'unit':<7}" + "".join(f"{n:>16}" for n in WORKLOAD_NAMES))
    for m, unit in REPORTED_UNITS.items():
        trace = 1 if m == "updates_per_s" else 0
        cells = "".join(f"{results[(n, trace)]['stats'][m].get('median', 0.0):>16.6g}"
                        for n in WORKLOAD_NAMES)
        print(f"{m:<46}{unit:<7}{cells}")
    print()
    for m in results[(WORKLOAD_NAMES[0], 1)]["metrics"]:
        unit = results[(WORKLOAD_NAMES[0], 1)]["metrics"][m]["unit"]
        cells = "".join(f"{results[(n, 1)]['metrics'][m]['value']:>16.6g}" for n in WORKLOAD_NAMES)
        print(f"{m:<46}{unit:<7}{cells}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    numpy_preloaded = "numpy" in sys.modules
    env_before = {k: os.environ.get(k) for k in PIN_ENV}
    os.environ.update(PIN_ENV)
    src = ROOT / "src"
    if not (src / "resnav" / "__init__.py").is_file():
        print(f"perfbench: no resnav sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    fp = fingerprint(args.seed, numpy_preloaded, env_before)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), fp)
    print_report(result)
    if args.out is not None:
        save(result, args.out)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
