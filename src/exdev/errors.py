"""Exception hierarchy.

Two branches matter for the CLI: ValidationError (bad input, violated
precondition; exit code 2) and NumericalError (a routine could not reach its
numeric contract; exit code 3).  Every class carries a short machine-greppable
tag that the CLI prints on stderr.
"""


class ExdevError(Exception):
    tag = "EXDEV"


class ValidationError(ExdevError):
    tag = "CONFIG_INVALID"


class NumericalError(ExdevError):
    tag = "NUMERIC_FAIL"


class ConfigMissing(ValidationError):
    tag = "CONFIG_MISSING"


class DomainError(ValidationError):
    tag = "DOMAIN"


class OutOfRange(ValidationError):
    tag = "OUT_OF_RANGE"


class NotSolvable(ValidationError):
    tag = "NOT_SOLVABLE"


class InfeasibleStart(ValidationError):
    tag = "INFEASIBLE_START"


class TooFewSamples(ValidationError):
    tag = "TOO_FEW_SAMPLES"


class ScheduleInfeasible(ValidationError):
    tag = "SCHEDULE_INFEASIBLE"


class MassTooSmall(ValidationError):
    tag = "MASS_TOO_SMALL"


class NonMonotone(NumericalError):
    tag = "NON_MONOTONE"


class Divergent(NumericalError):
    tag = "DIVERGENT"


class BracketFail(NumericalError):
    tag = "BRACKET_FAIL"


class MassLeak(NumericalError):
    tag = "MASS_LEAK"


class TableBuildFail(NumericalError):
    tag = "TABLE_BUILD_FAIL"


class DegenerateWeights(NumericalError):
    tag = "DEGENERATE_WEIGHTS"


class LowAcceptance(NumericalError):
    tag = "LOW_ACCEPTANCE"


class PushforwardUnsolvable(NumericalError):
    tag = "PUSHFORWARD_UNSOLVABLE"


class AsymptoticRangeWarning(UserWarning):
    """An asymptotic formula is being evaluated outside its trusted range."""

    tag = "ASYMPTOTIC_RANGE"


class LowESSWarning(UserWarning):
    """A weighted estimate rests on fewer effective draws than ESS_FLOOR."""

    tag = "ESS_LOW"
