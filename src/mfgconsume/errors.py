"""Exception types shared across the package."""


class StructuralError(ValueError):
    """Malformed container: ragged arrays, non-finite entries, mismatched grids.

    Distinct from model-assumption violations, which are reported through
    :class:`~mfgconsume.population.ValidationReport` instead of raised.
    """


class SingularAggregateError(ArithmeticError):
    """A population aggregate denominator (1 + psi, or 1 + E[theta*gamma/(1-gamma)])
    is zero within tolerance, so the closed-form expressions are undefined."""


class ExponentRangeError(OverflowError):
    """A value left the floating-point range: an exponent past |x| > 700, or
    a closed-form or driver coefficient that overflowed to inf or NaN;
    raised instead of silently producing inf or NaN."""


class IntegrationBlowUpError(ArithmeticError):
    """The RK4 cross-check of the Riccati equation reached a NaN state. It
    runs on u = log c, where an overflow of e^u sends u to -inf, not to NaN;
    NaN needs inf - inf, as when u itself overflows. Carries the first bad knot."""

    def __init__(self, knot_index: int, t: float):
        super().__init__(f"integration blew up at knot {knot_index} (t = {t:g})")
        self.knot_index = knot_index
        self.t = t
