"""Every module boundary that the benchmark's tracer wraps still resolves.

The tracer (bench/tracing.py) skips a boundary whose attribute is gone and
then reports the metrics that depend on it as null, so a renamed or removed
name would only show up as a malformed benchmark result.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("cpflow_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_boundary_is_present():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        missing = {name for _, _, name in tracing.BOUNDARIES} - tracer.present
    finally:
        tracer.uninstall()
    assert not missing

