"""Exception types shared across the package."""


class NanolabError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(NanolabError, ValueError):
    """A parameter violates one of the documented validity gates."""


class DegenerateGeometryError(NanolabError, ValueError):
    """Zero-length bond leg or collinear plane where an angle is required."""


class DomainError(NanolabError, ValueError):
    """Argument outside the mathematical domain of a closed-form map."""


class InvalidCellError(NanolabError, ValueError):
    """An 8-atom cell could not be identified or framed unambiguously."""


class OptimizationFailureError(NanolabError, RuntimeError):
    """An inner minimization did not converge within its iteration budget."""


class NotStationaryError(NanolabError, ValueError):
    """Hessian analysis requested at a point with a non-negligible gradient."""


class EtaTooLargeError(NanolabError, RuntimeError):
    """Perturbation sampling kept breaking the bond graph."""


class WindowTooSmallError(NanolabError, RuntimeError):
    """A scan window contained no crossing of the monitored quantity."""


class PxyzFormatError(NanolabError, ValueError):
    """Malformed PXYZ input; carries the offending 1-based line number."""

    def __init__(self, message, line_number=None):
        super().__init__(message)
        self.line_number = line_number

