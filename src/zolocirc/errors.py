"""Exception types shared across the package."""


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
