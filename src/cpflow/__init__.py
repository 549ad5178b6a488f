"""Ideal circle patterns on surfaces with spherical cone metrics.

Solves for per-vertex circle radii realizing prescribed total geodesic
curvatures, by integrating curvature flows in log-cotangent coordinates
or by Newton iteration on the associated convex potential, with exact
feasibility certification of the prescription.
"""

from .curvature import CurvatureState, evaluate, potential, velocity_bound
from .errors import InputError, ParseError
from .feasibility import FeasibilityVerdict, check_mincut
from .flow import (FlowConfig, FlowSample, FlowTrace, RateFit,
                   calabi_direction, fit_decay_rate, run)
from .geometry import EdgeSideGeometry, edge_side_geometry, k_to_r, r_to_k
from .instancefile import (Instance, instance_digest, parse_instance,
                           serialize_instance)
from .oracle import SyntheticInstance, make_synthetic, rng_for
from .surface import (Prescription, SurfaceComplex, build_complex,
                      edge_neighborhood, validate)

__version__ = "0.1.0"

__all__ = [
    "CurvatureState", "EdgeSideGeometry", "FeasibilityVerdict",
    "FlowConfig", "FlowSample", "FlowTrace", "InputError",
    "Instance", "ParseError", "Prescription",
    "RateFit", "SurfaceComplex",
    "SyntheticInstance", "build_complex", "calabi_direction",
    "check_mincut",
    "edge_neighborhood", "edge_side_geometry", "evaluate",
    "fit_decay_rate", "k_to_r", "make_synthetic",
    "potential", "r_to_k", "rng_for", "run",
    "validate", "velocity_bound", "instance_digest", "parse_instance",
    "serialize_instance",
]
