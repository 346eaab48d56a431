"""Exception taxonomy shared across the package.

Every error carries the process exit code the CLI maps it to:
0 success, 1 residual threshold failure, 2 guard/domain failure,
3 config/schema failure. The CLI exits 141 when its stdout is closed.
"""
from __future__ import annotations

EXIT_OK = 0
EXIT_RESIDUAL = 1
EXIT_GUARD = 2
EXIT_CONFIG = 3
EXIT_STDOUT_CLOSED = 141   # 128 + SIGPIPE, as a shell reports a writer the signal ended


class PmcError(Exception):
    """Base for all package errors."""

    exit_code = EXIT_GUARD

    def payload(self) -> dict:
        """Machine-readable form for error JSON on stderr."""
        # internal subclasses piggyback on public error names
        name = next(c.__name__ for c in type(self).__mro__
                    if not c.__name__.startswith("_"))
        return {"error": name, "message": str(self)}


class ConfigError(PmcError):
    """Bad run configuration: unknown keys, wrong types, inadmissible values."""

    exit_code = EXIT_CONFIG


class GuardError(PmcError):
    """A domain or numerical guard tripped."""

    exit_code = EXIT_GUARD


# ---- coefficient cascade guards ----

class SingularPoint(GuardError):
    """Evaluation point is within guard distance of sin(alpha)=0 or sin^2(alpha)=2/3."""


class ZeroDenominator(GuardError):
    """A denominator in the cascade vanished (t9 below guard, or rho=0)."""


class UnresolvedFormula(GuardError):
    """Evaluation of a typo-damaged coefficient was requested in reject mode."""


# ---- profile solver guards ----

class StepFailure(GuardError):
    """The angle ODE integrator failed to advance."""


class GuardTripped(GuardError):
    """Integration halted early; reports the largest valid sub-interval."""

    def __init__(self, message: str, achieved: tuple[float, float] | None = None):
        super().__init__(message)
        self.achieved = achieved

    def payload(self) -> dict:
        d = super().payload()
        if self.achieved is not None:
            d["achieved_range"] = list(self.achieved)
        return d


# ---- surface assembly guards ----

class RangeMismatch(GuardError):
    """Harmonic input leaves the domain the angle map covers."""


class NonpositiveDenominator(GuardError):
    """|c|^2 = |a|^2 + (rho/2)(3 sin^2(alpha) - 2) is not positive somewhere."""


class PathInconsistency(GuardError):
    """Two-path phase integration disagrees structurally: the integrand is not closed."""


# ---- explicit family guards ----

class InadmissibleC1(GuardError):
    """Family parameter c1 must satisfy c1 < 0 or c1 > 9/8."""


class OutOfInterval(GuardError):
    """Family parameter t outside the admissible arc."""


class QuadratureFailure(GuardError):
    """The phase integral's ODE march failed."""
