"""Parallel-mean-curvature surface data in curved complex space forms.

Builds surface fields (angle function, shape amplitudes, metric factor,
phase) from a harmonic input plus an amplitude profile, and verifies the
structure equations by finite-difference exterior calculus on grid pairs.
"""
from __future__ import annotations

from .coeffs import CoeffCache, EvalPoint, ModelParams, eval_t, t4_skew_residual, t11_roots
from .construct import ConstructResult, construct_surface
from .errors import (ConfigError, DegenerateFrame, GuardError, GuardTripped, InadmissibleC1,
                     NonpositiveDenominator, OutOfInterval, PathInconsistency,
                     PmcError, QuadratureFailure, RangeMismatch, SingularPoint,
                     StepFailure, UnresolvedFormula, ZeroDenominator)
from .family4 import (FamilyParams, family_amplitude, family_potential,
                      family_state, family_surface, general_type_witness,
                      valid_interval, xi_of_t)
from .fields import Grid, HarmonicInput, SurfaceFields, read_fields, write_fields, write_meta
from .profile import Potential, ProfileSolution, build_potential, solve_profile
from .verify import EquationReport, Thresholds, VerifyReport, verify_suite

__version__ = "0.1.0"

__all__ = [
    "CoeffCache", "EvalPoint", "ModelParams", "eval_t", "t4_skew_residual",
    "t11_roots", "ConstructResult", "construct_surface", "ConfigError",
    "DegenerateFrame", "GuardError", "GuardTripped", "InadmissibleC1", "NonpositiveDenominator",
    "OutOfInterval", "PathInconsistency", "PmcError", "QuadratureFailure",
    "RangeMismatch", "SingularPoint", "StepFailure", "UnresolvedFormula",
    "ZeroDenominator", "FamilyParams", "family_amplitude", "family_potential",
    "family_state", "family_surface", "general_type_witness", "valid_interval",
    "xi_of_t", "Grid", "HarmonicInput", "SurfaceFields", "read_fields",
    "write_fields", "write_meta", "Potential", "ProfileSolution",
    "build_potential", "solve_profile", "EquationReport", "Thresholds",
    "VerifyReport", "verify_suite", "__version__",
]
