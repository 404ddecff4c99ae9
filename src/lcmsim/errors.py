"""Exception types shared across the simulator."""


class LcmSimError(Exception):
    """Base class for domain errors raised by this package."""


class ConfigError(LcmSimError):
    """Scenario configuration is malformed or inconsistent.

    Carries the offending line number when the error originates from a
    config file, so CLI output can point at the exact line.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class IntegrityError(LcmSimError):
    """A serialized package failed its checksum or structural checks."""


class NotFoundError(LcmSimError):
    """Requested registry entry does not exist."""


class PairingError(LcmSimError):
    """Two-sided model pairing was refused (associated IDs disagree)."""


class DegenerateInputError(LcmSimError):
    """An operation received an input it cannot meaningfully process,
    such as an all-zero feedback vector."""


def config_checked(check, *args) -> None:
    """Run ``check(*args)``, a check of user-set values: its ValueError becomes a ConfigError."""
    try:
        check(*args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
