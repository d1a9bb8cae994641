"""Exception hierarchy.

The two intermediate bases drive the CLI exit-code mapping: malformed or
inconsistent input data exits with code 2, a violated operation
precondition with code 3.
"""


class NefslopeError(Exception):
    """Base class for all errors raised by this package."""


class InputError(NefslopeError):
    """Malformed or mutually inconsistent input data."""


class PreconditionError(NefslopeError):
    """Well-formed input that violates a documented operation precondition."""


class NonIntegralProfile(PreconditionError):
    """The matrix does not model an integral bundle against the given top self-intersection."""


class NegationIsNef(PreconditionError):
    """The negated bundle is nef, so the threshold is infinite and no lower bound applies."""


class SlopeIsInfinite(PreconditionError):
    """Rationality certification requires a finite threshold."""


class AsymmetricInput(InputError):
    """Matrix entries do not form a symmetric matrix."""


class HodgeViolation(PreconditionError):
    """Surface intersection numbers violate the index inequality (L.M)^2 >= L^2 M^2."""


class InconsistentContext(InputError):
    """Scanned instances disagree on the shared top self-intersection of the polarization."""
