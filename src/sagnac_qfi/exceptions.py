"""Error hierarchy.

The CLI maps these onto exit codes: configuration and validation problems
(ConfigError, ProfileError, TruncationError, SizeGuardError, plain
ValueError, and OverflowError from finite but out-of-range inputs) exit
with 2, failed numerical cross-checks (ConsistencyError)
exit with 3.
"""


class SagnacQfiError(Exception):
    """Base class for all package errors."""


class ConfigError(SagnacQfiError):
    """Invalid configuration file or CLI override."""


class ProfileError(SagnacQfiError):
    """Driving profile violates its structural or normalization constraints."""


class TruncationError(SagnacQfiError):
    """Fock truncation too small for the requested accuracy.

    Carries a suggested dimension when one can be estimated.
    """

    def __init__(self, message: str, suggested_d: int | None = None):
        if suggested_d is not None:
            message = f"{message} (suggested truncation: d >= {suggested_d})"
        super().__init__(message)
        self.suggested_d = suggested_d


class SizeGuardError(SagnacQfiError):
    """Requested multi-site Hilbert space exceeds the desk-scale guard."""


class ConsistencyError(SagnacQfiError):
    """Two routes that must agree numerically did not."""
