"""Exception types shared across the simulator."""


class PruwError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(PruwError):
    """An operation was invoked outside its mathematical domain."""


class ConfigError(PruwError):
    """A configuration violates a scheme precondition."""


class IntegrityError(PruwError):
    """Replicated storage is internally inconsistent (tamper or noise drift)."""


class ProtocolError(PruwError):
    """A wire message violates the protocol contract."""


class InconclusiveError(PruwError):
    """An exact audit's draw space exceeds its enumeration budget."""
