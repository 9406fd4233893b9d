"""Exception types shared across the package, and its argument rules (numpy-free, so the oracle reads them too)."""

import numbers
import operator
import sys


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PrecisionError(DomainError):
    """A modulus or angle falls in a range where double precision degrades.

    Moduli are accepted only in (1e-8, 1 - 1e-8) at the public entry points of the higher-level modules,
    the window tested against a 50-digit reference.  Arc half-widths above 1.5707963162581844 (node modulus
    sin(theta) rounds to 1) are rejected, and sn/cn/dn raise at a complement that underflows to 0 (the
    direct F/G at a large degree).  A phase report refuses an optimum (a rational whose ``_optimum`` record,
    set by ``build_s``/``build_r`` and kept by 1/s_m, names the report's problem and Theta) whose optimal error
    is below the normal doubles, or whose nodes are short or topped by ``analysis.node_bound``.
    """


class ConvergenceError(RuntimeError):
    """An iteration failed to reach its tolerance within its budget."""


class PoleError(ZeroDivisionError):
    """Evaluation hit a pole of a factored rational.

    ``factor_index`` is the offending factor's position in ``factors``.
    """

    def __init__(self, message: str, factor_index: int):
        super().__init__(message)
        self.factor_index = factor_index


class BranchError(ValueError):
    """No admissible branch exists (e.g. no unit-circle preimage)."""


class ResolutionError(RuntimeError):
    """A sampling grid is too coarse to certify an equioscillation count."""


def _between(x, lo: float, hi: float, name: str) -> bool:
    """lo < x < hi for a real x; DomainError for any other, numpy's complex scalars (ordered by real part) included.

    A 0-d array reads as its number; an array of one or more dimensions is refused.
    """
    if isinstance(x, int) and not abs(x) <= sys.float_info.max:  # it compares exactly, but float() overflows
        raise DomainError(f"{name} must be a real number within the doubles, got an int of {x.bit_length()} bits")
    if getattr(x, "ndim", 0) == 0 and (isinstance(x, numbers.Real) or not isinstance(x, numbers.Complex)):
        try:
            return lo < x < hi
        except TypeError:
            pass
    raise DomainError(f"{name} must be a real number, got {x!r}")


def _instance(x, cls: type, name: str, hint: str = ""):
    """x if it is a cls (the rational or fraction a call reads); DomainError naming its type for any other object."""
    if isinstance(x, cls):
        return x
    raise DomainError(f"{name} must be a {cls.__name__}{hint}, got {type(x).__name__}")


def require_degree(value, minimum: int, name: str = "degree", maximum: int | None = None) -> int:
    """Return a degree or index as a plain int, or raise DomainError.

    Python and numpy integers are accepted; bools, floats, values outside
    [minimum, maximum] and ints past the doubles are not.
    """
    try:
        n = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = None
    if n is None or n < minimum or (maximum is not None and n > maximum) or not abs(n) <= sys.float_info.max:
        bound = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
        # an int past the doubles is named by its bit length: str() refuses one of over 4,300 digits
        got = repr(value) if n is None or abs(n) <= sys.float_info.max else f"an int of {n.bit_length()} bits"
        raise DomainError(f"{name} must be an integer {bound}, got {got}")
    return n
