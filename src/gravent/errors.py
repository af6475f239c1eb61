"""Exception hierarchy shared by all gravent modules."""


class GraventError(Exception):
    """Base class for all errors raised by this package."""


class InputDomainError(GraventError, ValueError):
    """An input is outside the mathematical domain of an operation."""


class SingularityError(GraventError, ArithmeticError):
    """A potential was requested at (or past) a vanishing separation."""


class ConvergenceDomainError(GraventError, ValueError):
    """A series expansion was requested outside its convergence region."""


class NoEntanglementError(GraventError, ArithmeticError):
    """The quantum correction vanishes, so no entangling phase accumulates."""


class PositivityError(GraventError, ArithmeticError):
    """A density matrix eigenvalue is negative beyond tolerance."""


class FloatRangeError(GraventError, ArithmeticError):
    """An intermediate value leaves the float64 range: a power overflows, or a
    product that a later step divides by underflows to zero."""


class PrecisionError(GraventError, ArithmeticError):
    """A result is below float resolution: the entangling phase is so large
    that its ulp exceeds the phase tolerance, so its value mod 2*pi is noise."""


class ConfigError(GraventError, ValueError):
    """A run configuration document is malformed or fails validation."""


class RegimeWarning(UserWarning):
    """The displacement-to-separation ratio is outside the expansion regime."""


class WidthWarning(UserWarning):
    """A zero-point width exceeds the body's geometric radius."""
