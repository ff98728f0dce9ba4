"""Exception types shared across the package.

Every domain failure derives from :class:`CstarError` so callers can catch
one base class.  Errors that have a useful numeric witness carry it as an
attribute instead of burying it in the message.
"""

from __future__ import annotations

import math

__all__ = [
    "CstarError",
    "InvalidSpace",
    "InvalidPointMap",
    "AlgebraMismatch",
    "NotNormal",
    "DecompositionFailure",
    "NormTooLarge",
    "Unconverged",
    "PerturbationTooLarge",
    "NotInvertible",
    "SpectrumHit",
    "Overflow",
    "DomainError",
    "SpaceMismatch",
    "NotACharacter",
    "DualityViolation",
    "InvalidSubset",
    "ImproperIdeal",
    "NotContained",
    "NonFinite",
    "InvalidDocument",
]


class CstarError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSpace(CstarError):
    """A finite space was empty or had repeated point labels."""


class InvalidPointMap(CstarError):
    """A point assignment was partial, dangling, or out of range."""


class AlgebraMismatch(CstarError):
    """Two operands live in different algebras."""


def _unscale(x: float, k: int) -> tuple[float, str]:
    """x 2^k for x >= 0, as a float (inf where that overflows) and in the
    form of ``f"{x 2^k:.3e}"``, which stays finite."""
    try:
        value = math.ldexp(x, k)
        return value, f"{value:.3e}"
    except OverflowError:
        # x 2^k >= 2^1024 here, so it is an integer and Decimal rounds it exactly
        from decimal import Decimal
        n, d = x.as_integer_ratio()
        return math.inf, f"{Decimal((n << k) // d):.3e}"


class NotNormal(CstarError):
    """A generator matrix failed the normality test N N* = N* N.

    ``defect`` is the Frobenius norm of the commutator N N* - N* N and
    ``bound`` the largest norm accepted; either reads inf where it overflows
    a float.  Both are passed in units of ``2^exponent``, where they stay
    finite, and the message is written from those.
    """

    def __init__(self, defect: float, bound: float, exponent: int = 0):
        self.defect, defect_text = _unscale(defect, exponent)
        self.bound, bound_text = _unscale(bound, exponent)
        ratio = defect / bound if bound else math.inf
        super().__init__(
            f"matrix is not normal: commutator norm {defect_text} "
            f"exceeds bound {bound_text} ({ratio:.3g} times the bound)"
        )


class DecompositionFailure(CstarError):
    """The unitary diagonalization of a normal generator did not verify."""


class NormTooLarge(CstarError):
    """The geometric series requires norm strictly below one."""


class Unconverged(CstarError):
    """A truncated series did not meet its tolerance within the term budget.

    ``partial`` is the best partial sum reached and ``report`` its statistics.
    """

    def __init__(self, message: str, partial=None, report=None):
        self.partial = partial
        self.report = report
        super().__init__(message)


class PerturbationTooLarge(CstarError):
    """The perturbed element is outside the guaranteed inversion ball."""


class NotInvertible(CstarError):
    """The element has a character value at (or numerically at) zero."""


class SpectrumHit(CstarError):
    """A resolvent was requested at a point of the spectrum."""


class Overflow(CstarError):
    """Power iteration produced a non-finite value; rescale by the norm first."""


class DomainError(CstarError):
    """A scalar function could not be evaluated on the spectrum.

    ``point`` is the offending spectrum value when known.
    """

    def __init__(self, message: str, point: complex | None = None):
        self.point = point
        super().__init__(message)


class SpaceMismatch(CstarError):
    """A function lives on a different space than the one required."""


class NotACharacter(CstarError):
    """A pulled-back functional failed the character laws."""


class DualityViolation(CstarError):
    """A structural bijection required by duality did not hold."""


class InvalidSubset(CstarError):
    """A closed-set argument mentioned labels outside the space."""


class ImproperIdeal(CstarError):
    """The whole algebra is not a proper ideal; no quotient exists."""


class NotContained(CstarError):
    """An ideal is not contained in the kernel of the homomorphism.

    ``witness`` is a basis element of the ideal with a nonzero image.
    """

    def __init__(self, message: str, witness=None):
        self.witness = witness
        super().__init__(message)


class NonFinite(CstarError, ValueError):
    """A coordinate or generator entry was NaN or infinite, e.g. after overflow.

    Also a :class:`ValueError`, so callers that catch that keep working.
    """


class InvalidDocument(CstarError):
    """An interchange document was malformed or inconsistent."""
