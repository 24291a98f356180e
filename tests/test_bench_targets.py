"""The benchmark's tracer wraps corkcalc functions by name; each name it
lists must still resolve, or ``perfbench/run.py --trace 1`` breaks."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_target_resolves():
    targets = _tracer_targets()
    assert targets
    for module_name, path, _ in targets:
        owner = importlib.import_module(f"corkcalc.{module_name}")
        for attr in path.split("."):
            assert hasattr(owner, attr), f"corkcalc.{module_name}.{path} is gone"
            owner = getattr(owner, attr)
        assert callable(owner), f"corkcalc.{module_name}.{path} is not callable"
