"""Exception types shared across the package."""


class SizingError(ValueError):
    """A parameter would allocate past the documented memory/size caps."""


class DomainError(ValueError):
    """Arguments violate a mathematical precondition (coprimality, divisibility, ...)."""


class OracleError(LookupError):
    """A multiplicative-function oracle has no value at a needed prime power."""
