"""The benchmark's tracer, run against the library as it is: a deleted or
renamed function that `perfbench/` wraps fails here, not in a benchmark run."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_tracer_installs_and_self_tests():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:  # imports every relkit module, wraps every TRACED site, self-tests
        tracer.install()
    finally:
        tracer.uninstall()
    for modname, names in tracing.REQUIRED_SITES.items():
        for name in names:
            assert not hasattr(getattr(sys.modules[modname], name),
                               "__wrapped_original__")
