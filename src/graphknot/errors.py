"""Exception hierarchy shared across the package."""


class GraphKnotError(Exception):
    """Base class for all package-specific errors."""


class FormatError(GraphKnotError):
    """Raised when a textual or JSON description of an object is malformed."""


class TopologyError(GraphKnotError):
    """Raised when combinatorial data does not describe a sphere diagram."""


class NotALinkError(GraphKnotError):
    """Raised when a link-only computation is asked of a diagram with vertices."""


class WrongDegreeError(GraphKnotError):
    """Raised when a vertex does not have the degree an operation requires."""


class InvalidVertexError(GraphKnotError):
    """Raised when a vertex or node reference does not exist."""


class DisconnectedError(GraphKnotError):
    """Raised when a computation requires a connected object."""


class MoveNotApplicable(GraphKnotError):
    """Raised when a local move is requested at a site that does not admit it."""


class SizeLimitExceeded(GraphKnotError):
    """Raised when an enumeration grows past an explicit size limit."""
