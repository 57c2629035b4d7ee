import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_tracer_target_resolves():
    # perfbench/tracing.py wraps these module attributes by name and skips
    # any it cannot find, so a renamed or moved function goes untraced
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [f"{module}.{attr}" for module, attr, _ in tracing.TARGETS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
