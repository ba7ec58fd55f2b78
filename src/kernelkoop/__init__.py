"""Data-dependent kernel approximations of Koopman operators.

Builds kernel-expansion estimates of composition operators g -> g ∘ f from
trajectory samples whose states live on an unknown manifold embedded in
Euclidean space, plus the supporting machinery: kernel families, greedy
center subselection, SPD solves with stability diagnostics, a symplectic
pendulum test system, and a motion-capture joint-angle pipeline.
"""

from types import ModuleType as _ModuleType

from .dynamics import PendulumConfig, hamiltonian, observable_G, pendulum_step, simulate
from .errors import (
    ConfigError,
    CsvFormatError,
    DegenerateInputError,
    InvalidArgumentError,
    KernelKoopError,
    NotPositiveDefiniteError,
)
from .geometry import (
    eta_for_center_count,
    fill_distance,
    nested_center_sets,
    separation,
    subselect_centers,
)
from .kernels import (
    DistanceConvention,
    KernelFamily,
    KernelSpec,
    PointSet,
    TrajectoryDataset,
    eval_kernel,
    kernel_matrix,
)
from .koopman import (
    EdmdOperator,
    EstimateMode,
    KoopmanEstimate,
    edmd_apply,
    edmd_fit,
    empirical_risk,
    fit_pullback,
    fit_umf,
    kernel_sections,
    predict,
)
from .linsys import SolveReport, SpectralDiagnostics, solve_spd, spectral_diagnostics
from .mocap import (
    JointAngleSample,
    MarkerFrame,
    PlanarFrame,
    extract_angles,
    fit_kinematics,
    joint_angles,
    project_sagittal,
    read_marker_csv,
)

__version__ = "0.1.0"

# every public name imported above, so each is declared once
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
