"""Exception types shared across the package."""


class RtbpaError(Exception):
    """Base class for package errors."""


class NonPlanarReflector(RtbpaError):
    """A reflector without a supporting plane was used for image construction."""


class Singular(RtbpaError):
    """Field evaluation requested at the source location."""


class EmptyInput(RtbpaError):
    """Measurement set or grid contains no samples."""


class EmptyImage(RtbpaError):
    """Image is identically zero."""


class UnresolvedLobe(RtbpaError):
    """Main lobe does not decay to half maximum inside the grid."""


class ScenarioError(RtbpaError):
    """Input from outside the program (scenario file, container, flag or
    environment value) violates its schema or range."""


class UnknownReference(RtbpaError):
    """A scenario name or path resolves to nothing."""


class ShapeMismatch(RtbpaError):
    """Measurement data and grid/scenario shapes are inconsistent."""
