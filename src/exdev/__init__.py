"""Numerical laboratory for conditional limit laws of light-tailed sums at
extreme levels: exponential tilting, cumulant asymptotics on the psi scale,
Edgeworth corrections, saddlepoint tail estimates, and exact conditional
Monte Carlo samplers.
"""

__version__ = "0.1.0"
SCHEMA_VERSION = "1"

from .densities import (ExpTerm, LightTailDensity, LogTerm, PowerTerm,
                        density_from_terms, double_exp, psi, psi_derivatives,
                        weibull)
from .tilting import (AbelianReport, GrowthReport, TiltedDensity,
                      abelian_check, cumulants, growth_report, invert_m,
                      log_mgf, self_neglect_check, tilt_to_mean)
from .edgeworth import (ConvolutionTable, EdgeworthEval, GridSpec,
                        convolve_oracle, edgeworth_density, z1_centered,
                        z1_raw)
from .tails import (ISOracleResult, TailEstimate, rate_I, sampler_tilted,
                    tail_prob, tail_prob_is_oracle)
from .conditional import (ConditionDescriptor, ConditionalSample, DLPWindow,
                          SecondOrderReference, TVEstimate, dlp_check,
                          epsilon_schedule, exceedance_vs_point_equivalence,
                          gibbs_local_check, location_law_check, marginal_tv,
                          sample_exceedance_conditional,
                          sample_point_conditional, second_order_reference)
from .levelsets import (AmbientLaw, FSpec, FTiltedLaw, Marginal1D,
                        f_catalog, f_tilted_density, level_set_sampler,
                        mh_sample, positive_marginal, product_ambient,
                        pushforward_model, signed_sqrt_marginal,
                        square_concentration_check)
from .errors import (AsymptoticRangeWarning, BracketFail, ConfigMissing,
                     DegenerateWeights, Divergent, DomainError, ExdevError,
                     InfeasibleStart, LowAcceptance, LowESSWarning, MassLeak,
                     MassTooSmall, NonMonotone, NotSolvable, NumericalError,
                     OutOfRange, PushforwardUnsolvable, ScheduleInfeasible,
                     TableBuildFail, TooFewSamples, ValidationError)

__all__ = [
    "__version__", "SCHEMA_VERSION",
    # densities
    "ExpTerm", "LightTailDensity", "LogTerm", "PowerTerm",
    "density_from_terms", "double_exp", "psi", "psi_derivatives", "weibull",
    # tilting
    "AbelianReport", "GrowthReport", "TiltedDensity", "abelian_check",
    "cumulants", "growth_report", "invert_m", "log_mgf",
    "self_neglect_check", "tilt_to_mean",
    # edgeworth
    "ConvolutionTable", "EdgeworthEval", "GridSpec",
    "convolve_oracle", "edgeworth_density",
    "z1_centered", "z1_raw",
    # tails
    "ISOracleResult", "TailEstimate", "rate_I", "sampler_tilted",
    "tail_prob", "tail_prob_is_oracle",
    # conditional
    "ConditionDescriptor", "ConditionalSample", "DLPWindow",
    "SecondOrderReference", "TVEstimate", "dlp_check", "epsilon_schedule",
    "exceedance_vs_point_equivalence", "gibbs_local_check",
    "location_law_check", "marginal_tv", "sample_exceedance_conditional",
    "sample_point_conditional", "second_order_reference",
    # levelsets
    "AmbientLaw", "FSpec", "FTiltedLaw", "Marginal1D", "f_catalog",
    "f_tilted_density", "level_set_sampler", "mh_sample",
    "positive_marginal", "product_ambient", "pushforward_model",
    "signed_sqrt_marginal", "square_concentration_check",
    # errors
    "AsymptoticRangeWarning", "BracketFail", "ConfigMissing",
    "DegenerateWeights", "Divergent", "DomainError", "ExdevError",
    "InfeasibleStart", "LowAcceptance", "LowESSWarning", "MassLeak",
    "MassTooSmall", "NonMonotone", "NotSolvable", "NumericalError",
    "OutOfRange", "PushforwardUnsolvable", "ScheduleInfeasible",
    "TableBuildFail", "TooFewSamples", "ValidationError",
]
