"""Ideal circle patterns on surfaces with spherical cone metrics.

Solves for per-vertex circle radii realizing prescribed total geodesic
curvatures, by integrating curvature flows in log-cotangent coordinates
or by Newton iteration on the associated convex potential, with exact
feasibility certification of the prescription.
"""

from .curvature import CurvatureState, evaluate, potential
from .errors import InputError, ParseError
from .feasibility import FeasibilityVerdict, check_mincut
from .flow import (FlowConfig, FlowSample, FlowTrace, RateFit,
                   calabi_direction, fit_decay_rate, run)
from .geometry import r_to_k
from .instancefile import (Instance, instance_digest, parse_instance,
                           serialize_instance)
from .oracle import SyntheticInstance, make_synthetic, rng_for
from .surface import Prescription, SurfaceComplex, edge_neighborhood, validate

__version__ = "0.1.0"

__all__ = [
    "CurvatureState", "FeasibilityVerdict", "FlowConfig", "FlowSample",
    "FlowTrace", "InputError", "Instance", "ParseError", "Prescription",
    "RateFit", "SurfaceComplex", "SyntheticInstance", "calabi_direction",
    "check_mincut", "edge_neighborhood", "evaluate", "fit_decay_rate",
    "make_synthetic", "potential", "r_to_k", "rng_for", "run", "validate",
    "instance_digest", "parse_instance", "serialize_instance",
]
