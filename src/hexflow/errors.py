"""Exception hierarchy for hexflow.

Everything raised on purpose derives from HexflowError so callers can
catch the package's failures with one except clause.
"""


class HexflowError(Exception):
    """Base class for all hexflow errors."""


class MeshError(HexflowError):
    """Mesh-level topology or format problem."""


class DegenerateCellError(MeshError):
    """Cell geometry is unusable: coincident vertices, zero-area face,
    or a metric too ill-conditioned to invert reliably."""


class InvertedCellError(MeshError):
    """Cell has non-positive volume under the package vertex ordering."""


class MeshFormatError(MeshError):
    """Mesh file violates the documented plain-text format."""


class SingularInterfaceError(HexflowError):
    """The two-sided face update has a vanishing denominator; the face
    pair cannot exchange flux information."""


class ConfigError(HexflowError):
    """Bad run configuration (file or programmatic)."""


class BoundaryTagError(ConfigError):
    """A mesh boundary tag has no matching boundary rule (or the rule
    references an unknown tag)."""


class PressureConvergenceError(HexflowError):
    """Pressure solve cannot reach its tolerance: the net boundary flux
    makes the problem incompatible, or the iteration stalled."""

    def __init__(self, msg, iterations=None, residual=None):
        super().__init__(msg)
        self.iterations = iterations
        self.residual = residual


class NonFiniteStateError(HexflowError):
    """NaN or Inf detected in a state array during a run."""


class StabilityError(HexflowError):
    """Step-size diagnostic exceeded its hard threshold."""


class HistoryError(HexflowError):
    """A recorded channel history is unusable for decomposition."""
