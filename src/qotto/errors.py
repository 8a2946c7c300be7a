"""The package's own exception type; the command line maps it to exit code 3."""


class EmptyStateSpaceError(ValueError):
    """The requested many-body state space contains no configurations.

    Raised for fermionic ensembles with more particles than single-particle
    levels (Pauli exclusion leaves nothing to occupy).
    """
