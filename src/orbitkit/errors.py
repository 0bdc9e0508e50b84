"""Exception taxonomy shared across the package.

The CLI maps these onto distinct exit codes, so library code should raise
the most specific class that applies.
"""


class OrbitkitError(Exception):
    """Base class for all package-specific errors."""


class InputError(OrbitkitError, ValueError):
    """Malformed user input: bad series string, dimension mismatch, bad file."""


class CapExceededError(OrbitkitError, RuntimeError):
    """A size bound was passed: the roots of a series, the simplices of a
    nerve's closure, or the elements of an enumerated Weyl group."""


class TheoremViolationError(OrbitkitError, RuntimeError):
    """An internal certificate that must hold by theorem failed.

    Seeing this means an arithmetic bug, not a property of the input.
    """


class OracleError(OrbitkitError, RuntimeError):
    """Numeric diagnostic failure (clustering ambiguity, residual blow-up)."""
