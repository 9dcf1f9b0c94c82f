"""Sharp Lorentz-Sobolev embeddings on weighted convex cones, at desk scale.

The package computes weighted cone measures, decreasing rearrangements,
Lorentz norms by two independent routes, sharp embedding constants and
their maximizing families, and constructive shell systems certifying
Bernstein-number lower bounds for the embedding's maximal non-compactness.
"""

from .bernstein import (AlmostExtremalSystem, BernsteinBound, ShellSpec,
                        absolute_continuity_witness, bernstein_lower_bound,
                        certify_span, construct_system, gamma_sequence,
                        gradient_upper_certificate,
                        superadditivity_certificate, verify_system)
from .cones import (BUILTIN_CONE_NAMES, WeightedCone, ball_measure,
                    builtin_cone, unit_ball_measure)
from .errors import (ConeSobolevError, DivergentIntegralError, DomainError,
                     InfeasibleError, InternalConsistencyError,
                     NumericalError, ResourceError, ValidationError)
from .lorentz import (LorentzParams, ell_q_norm, hardy_check,
                      lorentz_norm_distributional, lorentz_norm_rearranged,
                      lorentz_norms_distributional, restricted_norm)
from .profiles import (RadialProfile, alvino_profile, from_knots,
                       gradient_density, scale)
from .rearrangement import (SampledField, StepFunction1D,
                            radial_rearrangement, rearrangement)
from .sobolev import (QuotientReport, alvino_search,
                      bump_superposition_field, embedding_norm,
                      polya_szego_check, quotient, quotients)

__version__ = "0.1.0"

__all__ = [
    "AlmostExtremalSystem", "BernsteinBound", "ShellSpec",
    "absolute_continuity_witness", "bernstein_lower_bound",
    "certify_span", "construct_system", "gamma_sequence",
    "gradient_upper_certificate", "superadditivity_certificate",
    "verify_system",
    "BUILTIN_CONE_NAMES", "WeightedCone", "ball_measure", "builtin_cone",
    "unit_ball_measure",
    "ConeSobolevError", "DivergentIntegralError", "DomainError",
    "InfeasibleError", "InternalConsistencyError", "NumericalError",
    "ResourceError", "ValidationError",
    "LorentzParams", "ell_q_norm", "hardy_check",
    "lorentz_norm_distributional", "lorentz_norm_rearranged",
    "lorentz_norms_distributional", "restricted_norm",
    "RadialProfile", "alvino_profile", "from_knots", "gradient_density",
    "scale",
    "SampledField", "StepFunction1D", "radial_rearrangement",
    "rearrangement",
    "QuotientReport", "alvino_search", "bump_superposition_field",
    "embedding_norm", "polya_szego_check", "quotient", "quotients",
    "__version__",
]
