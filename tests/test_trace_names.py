"""The benchmark's tracer names burchlab functions by string; each must exist.

`perfbench/spans.py` wraps every "module": ("name", "Class.method", ...) in its
TRACED table when `perfbench/run.py --trace 1` runs.  A function deleted or
renamed in burchlab would crash that run, so the names are resolved here.
"""
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


def test_every_traced_name_resolves():
    traced = _traced()
    assert traced
    missing = []
    for module_name, names in traced.items():
        module = importlib.import_module(f"burchlab.{module_name}")
        for name in names:
            target = module
            for part in name.split("."):
                target = getattr(target, part, None)
                if target is None:
                    break
            if not callable(target):
                missing.append(f"{module_name}.{name}")
    assert missing == []
