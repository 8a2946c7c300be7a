"""Exception types shared across the package."""


class EmptyStateSpaceError(ValueError):
    """The requested many-body state space contains no configurations.

    Raised for fermionic ensembles with more particles than single-particle
    levels (Pauli exclusion leaves nothing to occupy).
    """


class NumericalCancellationError(ArithmeticError):
    """The alternating fermionic recursion lost all significant digits.

    Callers may fall back to direct enumeration when they receive this.
    """
