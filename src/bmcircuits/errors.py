"""Exception types shared across the package."""


class BmcError(Exception):
    """Base class for all bmcircuits errors."""


class FormatError(BmcError):
    """Malformed .bm or .bmdec text. Carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NotEulerianError(BmcError):
    """Operation requires the XOR of all elements to be zero."""


class TooSmallError(BmcError):
    """Input set is too small for the operation."""


class TooLargeError(BmcError):
    """Input exceeds the exhaustive-search size limit."""


class EmptyMatroidError(BmcError):
    """Operation requires a nonempty matroid."""


class NotPrimeError(BmcError):
    """Parameter must be an odd prime."""


class NotCoprimeError(BmcError):
    """Base and modulus must be coprime."""


class OrderConditionError(BmcError):
    """The multiplicative order of 2 modulo p is not p - 1."""

    def __init__(self, p: int, order: int):
        self.p = p
        self.order = order
        super().__init__(
            f"multiplicative order of 2 mod {p} is {order}, required {p - 1}"
        )


class NotDenseEnoughError(BmcError):
    """Matroid fails the density precondition of the dense decomposer."""


class OutOfRangeError(BmcError):
    """Numeric argument outside its documented range."""
