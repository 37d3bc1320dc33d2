"""Exception and warning types shared across the package; the CLI exits 2 on a ``ConfigError``, 3 on a ``NumericalError``."""


class NumericalError(RuntimeError):
    """A computed quantity violated a guaranteed numerical property (a norm budget, say)."""


class StabilityError(NumericalError):
    """The drift matrix is not strictly stable; a steady-state solve is invalid."""

    def __init__(self, message, max_real_eigenvalue=None):
        super().__init__(message)
        self.max_real_eigenvalue = max_real_eigenvalue


class ConfigError(ValueError):
    """A run configuration is malformed or inconsistent."""


class TruncationWarning(UserWarning):
    """Population at a truncation boundary exceeded the monitoring threshold."""
