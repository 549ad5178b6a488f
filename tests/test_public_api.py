"""The public API: ``cpflow.__all__`` names the solver, not its test oracles."""

import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import cpflow
import cpflow.curvature
import cpflow.errors
import cpflow.geometry
import cpflow.surface

# Test oracles, importable from their modules but not part of the API.
ORACLES = ("check_bruteforce", "curvature_rhs")
# Test oracles that live under tests/, not in the package at all.
TEST_ORACLES = ("edge_side_geometry", "EdgeSideGeometry", "k_to_r",
                "velocity_bound")


def test_every_public_name_resolves_once():
    assert len(set(cpflow.__all__)) == len(cpflow.__all__) == 26
    for name in cpflow.__all__:
        getattr(cpflow, name)   # raises AttributeError for a stale name


def test_readme_module_names_resolve():
    # Every backticked `module.name` or `cpflow.module.name` in the README,
    # with or without a call's arguments, names an attribute of that module.
    modules = [m.name for m in pkgutil.iter_modules(cpflow.__path__)
               if not m.name.startswith("_")]
    pattern = re.compile(r"`(?:cpflow\.)?(%s)\.(\w+)(?:\([^`]*\))?`"
                         % "|".join(modules))
    readme = Path(__file__).resolve().parent.parent / "README.md"
    names = set(pattern.findall(readme.read_text(encoding="utf-8")))
    assert ("flow", "run") in names
    for module, name in sorted(names):
        assert hasattr(importlib.import_module(f"cpflow.{module}"), name), \
            f"{module}.{name}"


def test_oracles_are_not_public():
    assert not set(ORACLES + TEST_ORACLES) & set(cpflow.__all__)


def test_test_oracles_left_the_package():
    for module in (cpflow, cpflow.geometry, cpflow.curvature):
        for name in TEST_ORACLES + ("_check_phi",):
            assert not hasattr(module, name), (module.__name__, name)
    assert not hasattr(cpflow.SurfaceComplex, "degrees")


def test_retired_names_stay_gone():
    # check_bruteforce raises a plain InputError above its size guard.
    assert not hasattr(cpflow.errors, "SizeError")
    assert [f.name for f in dataclasses.fields(cpflow.SyntheticInstance)] == [
        "complex", "kbar", "prescription"]
    # The state's Gershgorin bound is RKF45's step ceiling, as it is RKC's
    # stiffness: no constant or screen in front of it, no spectrum per step.
    for module in (cpflow.curvature, cpflow.flow):
        for name in ("uniform_gershgorin_bound", "extreme_eigenvalue",
                     "_GERSHGORIN_SLACK"):
            assert not hasattr(module, name), (module.__name__, name)


def test_names_resolve_in_the_parser_only():
    # The parser maps names to indices; SurfaceComplex takes indices.
    for module in (cpflow, cpflow.surface):
        assert not hasattr(module, "build_complex"), module.__name__
