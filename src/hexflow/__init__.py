"""hexflow: finite-volume flow solver on non-orthogonal hexahedral meshes.

Two-step update cycle on staggered half-steps: cell-face (port) values
and cell-center (node) values advance alternately, coupled through
exchange across faces and local balance updates.  Buoyancy-driven
incompressible flow with an iterative pressure correction and periodic
cell-level averaging for stabilization at under-resolved scales.
"""

from .coarsen import (
    CoarseningConfig,
    coarsen_cell,
    coarsen_sweep,
    face_area_weights,
    uniform_weights,
)
from .connection import (
    connection_sweep,
    face_flux,
    face_gradient,
    one_sided_face_value,
    update_interface,
)
from .errors import (
    BoundaryTagError,
    ConfigError,
    DegenerateCellError,
    HexflowError,
    HistoryError,
    InvertedCellError,
    MeshError,
    MeshFormatError,
    NonFiniteStateError,
    PressureConvergenceError,
    SingularInterfaceError,
    StabilityError,
)
from .hexmesh import (
    Mesh,
    build_mesh,
    read_mesh_file,
    write_mesh_file,
)
from .pressure import (
    PressureSolverConfig,
    cell_divergence_integral,
    pressure_iterate,
    pressure_residual,
    project_port_velocities,
)
from .reflection import (
    MaterialProps,
    SourceField,
    cfl_number,
    nodal_gradient,
    reflection_sweep,
)
from .sim import (
    BoundaryRule,
    Probe,
    SimulationConfig,
    annulus_mesh,
    apply_boundary_conditions,
    box_mesh,
    build_scenario,
    masked_box_mesh,
    resolve_probe,
    run,
    step,
)
from .state import (
    FieldState,
    ProcessHistory,
    ScatteringView,
    decompose_incident_outgoing,
    snapshot,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryRule",
    "BoundaryTagError",
    "CoarseningConfig",
    "ConfigError",
    "DegenerateCellError",
    "FieldState",
    "HexflowError",
    "HistoryError",
    "InvertedCellError",
    "MaterialProps",
    "Mesh",
    "MeshError",
    "MeshFormatError",
    "NonFiniteStateError",
    "PressureConvergenceError",
    "PressureSolverConfig",
    "Probe",
    "ProcessHistory",
    "ScatteringView",
    "SimulationConfig",
    "SingularInterfaceError",
    "SourceField",
    "StabilityError",
    "annulus_mesh",
    "apply_boundary_conditions",
    "box_mesh",
    "build_mesh",
    "build_scenario",
    "cell_divergence_integral",
    "cfl_number",
    "coarsen_cell",
    "coarsen_sweep",
    "connection_sweep",
    "decompose_incident_outgoing",
    "face_area_weights",
    "face_flux",
    "face_gradient",
    "masked_box_mesh",
    "nodal_gradient",
    "one_sided_face_value",
    "pressure_iterate",
    "pressure_residual",
    "project_port_velocities",
    "read_mesh_file",
    "reflection_sweep",
    "resolve_probe",
    "run",
    "snapshot",
    "step",
    "uniform_weights",
    "write_mesh_file",
    "__version__",
]
