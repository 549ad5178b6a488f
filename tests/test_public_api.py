"""The public API: ``cpflow.__all__`` names the solver, not its test oracles."""

import cpflow

# Test oracles, importable from their modules but not part of the API.
ORACLES = ("check_bruteforce", "SizeError", "curvature_rhs")


def test_every_public_name_resolves_once():
    assert len(set(cpflow.__all__)) == len(cpflow.__all__)
    for name in cpflow.__all__:
        getattr(cpflow, name)   # raises AttributeError for a stale name


def test_oracles_are_not_public():
    assert not set(ORACLES) & set(cpflow.__all__)
