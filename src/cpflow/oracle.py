"""Planted instances: prescriptions with a known solution.

Random draws go through a counter-based Philox generator keyed by the
seed, so fixtures are bit-reproducible across platforms.  The command
line draws its seeded start coordinates from the same generator.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .curvature import evaluate
from .errors import InputError
from .surface import Prescription, SurfaceComplex


def rng_for(seed: int) -> np.random.Generator:
    """Counter-based generator keyed by seed (bit-stable across platforms).

    The seed is an integer in [0, 2**64); anything else raises InputError
    (or TypeError, for a value that is not an integer at all).
    """
    seed = operator.index(seed)
    if not 0 <= seed < 2 ** 64:
        raise InputError(f"seed {seed} lies outside [0, 2**64)")
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


@dataclass(frozen=True)
class SyntheticInstance:
    """A prescription planted to have a known solution.

    ``lhat`` is the curvature of the planted coordinates ``kbar``, so the
    instance is feasible by construction and every solver should recover
    ``kbar`` exactly (the solution is unique).
    """

    complex: SurfaceComplex
    kbar: np.ndarray
    prescription: Prescription


def make_synthetic(complex: SurfaceComplex, seed: int,
                   k_range: tuple[float, float] = (-1.5, 1.5)) -> SyntheticInstance:
    """Sample planted coordinates uniformly per vertex and read off Lhat.

    A degenerate range (lo == hi) plants that exact coordinate everywhere.
    """
    lo, hi = k_range
    if not lo <= hi:
        raise InputError("k_range must be an interval")
    kbar = rng_for(seed).uniform(lo, hi, size=complex.n_vertices)
    state = evaluate(complex, kbar)
    return SyntheticInstance(
        complex=complex,
        kbar=kbar,
        prescription=Prescription(state.L),
    )
