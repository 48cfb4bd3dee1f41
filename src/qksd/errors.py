"""Exception types shared across the package.

Plain ValueError is used for local precondition violations (bad sizes,
out-of-range probabilities, invalid fillings).  The classes below exist
where callers need to distinguish failure modes, in particular the CLI
exit-code mapping.
"""


class QksdError(Exception):
    """Base class for package-specific failures."""


class ConfigError(QksdError):
    """Malformed or inconsistent experiment configuration."""


class InfeasibleBudgetError(QksdError):
    """Shot budget too small to give every required configuration a shot."""


class NumericalError(QksdError):
    """A numerical step failed in a way the pipeline cannot recover from."""


class EmptyBasisError(NumericalError):
    """Thresholding removed every basis direction (all eigenvalues <= eps)."""


class IllPosedError(NumericalError):
    """GEVP metric matrix is not positive definite."""


class ResourceLimitError(QksdError):
    """Requested object exceeds a size cap (sector dimension or dense qubits)."""
