"""Every module boundary that the benchmark's tracer wraps, and every
cpflow name that the benchmark imports, still resolves.

The tracer (bench/tracing.py) skips a boundary whose attribute is gone and
then reports the metrics that depend on it as null, so a renamed or removed
name would only show up as a malformed benchmark result.  A name removed
from under a ``from cpflow... import`` in bench/ would only show up as a
failed benchmark run.
"""

import ast
import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"

# Rows the tracer already skips.  `cli` has not imported `evaluate` for a
# while; ROADMAP's carry-over "[benchmark] stale tracer boundaries" drops
# the row from bench/tracing.py, and that change empties this list.
KNOWN_STALE = {("cpflow.cli", "evaluate")}


def load_tracing():
    spec = importlib.util.spec_from_file_location("cpflow_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BOUNDARIES = load_tracing().BOUNDARIES
LIVE = [row for row in BOUNDARIES if row[:2] not in KNOWN_STALE]


def test_every_boundary_is_present():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        missing = {name for _, _, name in tracing.BOUNDARIES} - tracer.present
    finally:
        tracer.uninstall()
    assert not missing


@pytest.mark.parametrize("module_name, attr, name", LIVE,
                         ids=[f"{m}.{a}" for m, a, _ in LIVE])
def test_boundary_resolves(module_name, attr, name):
    """The row resolves as the tracer resolves it: a module function, or
    "Class.prop" naming a cached property."""
    module = importlib.import_module(module_name)
    owner, _, prop = attr.rpartition(".")
    if owner:
        cls = getattr(module, owner)
        assert isinstance(cls.__dict__.get(prop), functools.cached_property)
    else:
        assert callable(getattr(module, attr, None))


def test_known_stale_rows_are_rows():
    assert KNOWN_STALE <= {(m, a) for m, a, _ in BOUNDARIES}


def bench_imports():
    """(file, module, name) for every cpflow import in bench/*.py, read
    with ast so that no bench module runs; name is None for ``import``."""
    rows = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [(node.module, a.name) for a in node.names]
            elif isinstance(node, ast.Import):
                modules = [(a.name, None) for a in node.names]
            else:
                continue
            rows += [(path.name, m, name) for m, name in modules
                     if m == "cpflow" or m.startswith("cpflow.")]
    return rows


BENCH_IMPORTS = bench_imports()


def test_bench_imports_cpflow():
    assert {m for _, m, _ in BENCH_IMPORTS} >= {"cpflow", "cpflow.surface"}


@pytest.mark.parametrize("path, module_name, name", BENCH_IMPORTS,
                         ids=[f"{p}:{m}" + (f".{n}" if n else "")
                              for p, m, n in BENCH_IMPORTS])
def test_bench_import_resolves(path, module_name, name):
    """The name is an attribute of its module or, for ``from cpflow import
    fixtures``, a submodule."""
    module = importlib.import_module(module_name)
    if name is not None and not hasattr(module, name):
        assert importlib.util.find_spec(f"{module_name}.{name}") is not None
