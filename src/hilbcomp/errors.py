"""Exception types shared across the kernel."""


class KernelError(Exception):
    """Base class for all errors raised by this package."""


class RingMismatchError(KernelError):
    """Operands live in incompatible polynomial rings."""


class ParseError(KernelError):
    """Malformed polynomial text.  Carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class HomogeneityError(KernelError):
    """An operation that requires homogeneous input received inhomogeneous input."""


class ClassificationError(KernelError):
    """The ideal is outside the domain of the four-type classification."""


class RetriesExhaustedError(KernelError):
    """A randomized subroutine failed its validity gate on every attempt."""


class LatticeDataError(KernelError):
    """Pairing data is inconsistent, fails to determine a unique solution,
    or a divisor class lies outside its cone domain."""


class MonomialOverflowError(KernelError):
    """An exponent or degree outgrew the packed monomial fields of the
    Groebner engine (each holds values below 2**31)."""


class BudgetExceededError(KernelError):
    """A request would build a table too large to hold in memory; raised
    before any of it is built."""


class CertificateError(KernelError):
    """A computation certified by known data did not close its certificate:
    the data does not belong to the input."""
