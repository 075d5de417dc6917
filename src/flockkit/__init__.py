"""flockkit: a numerical laboratory for noiseless alignment dynamics.

Particle systems whose velocities relax toward interaction-weighted
neighbourhood averages, their communication-graph flocking diagnostics,
the spectral structure of the alignment weights, and the mean-field
(kinetic) machinery: characteristics, transport distances, stability
bounds, fixed-point iteration, volume transport and entropy decay.
"""

from .dynamics import (
    MetricsRecord,
    ParticleEnsemble,
    Plain,
    Regularized,
    Trajectory,
    check_mean_velocity_ball,
    check_velocity_ball,
    default_dt,
    dist_to_manifold,
    integrate,
    rhs,
)
from .errors import (
    ConfigError,
    DegenerateInputError,
    FlockkitError,
    InputError,
    NumericalError,
    PreconditionError,
)
from .geometry import (
    CompactBump,
    FreeSpace,
    GaussianPeriodized,
    LogGradBounded,
    Torus,
    wrap_positions,
)
from .graph import CommGraph, FlockReport, build_graph, detect_flocking, is_connected
from .kinetic import (
    FieldSpec,
    MeasureCurve,
    PointCloud,
    evolve_cloud,
    field_constants,
    flow_characteristics,
    lipschitz_probe,
    mean_field_batch,
    mean_field_convergence,
    picard_iterate,
    stability_bound_check,
    transport_distance,
)
from .density import (
    entropy_decay_check,
    flow_jacobian,
    knn_entropy,
    moment_diagnostics,
    torus_gaussian_sampler,
)
from .spectral import (
    InteractionMatrix,
    SpectrumReport,
    b_norm_check,
    interaction_matrix,
    operator_norm,
    spectrum,
)

__version__ = "0.1.0"
