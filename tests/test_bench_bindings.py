"""The benchmark's tracer patches resnav's layers at a fixed table of
binding sites (perfbench/tracer.py). A refactor that moves a traced call
site must update that table; this test catches the mismatch here rather
than as a failed benchmark run."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_binding_table_matches_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    tracer.import_package()
    assert tracer.check_bindings() == []
