"""Decaying-step SGD, its diffusion limit, and coupled error diagnostics."""

from types import ModuleType as _ModuleType

from .analysis import (
    Estimate,
    RateEstimate,
    drift_sup_bound,
    drift_sup_verify,
    expected_rate,
    fit_rate,
    probe_exact_second_moment,
    probe_strong_error_floor,
)
from .core import RngStream, StepSchedule, derive_stream, log_spaced_indices
from .coupling import (
    CoupledBank,
    epsilon_hat,
    resolve_kind,
    run_coupled_replicates,
    strong_error,
    w2_1d,
    weak_error,
)
from .noise import (
    GradientOracle,
    batch_oracle,
    gaussian_oracle,
    heavy_oracle,
    least_squares_batch_oracle,
    probe_batch_oracle,
    psd_sqrt,
)
from .objectives import (
    CertificationReport,
    Convex,
    GridSpec,
    LeastSquaresObjective,
    Lojasiewicz,
    MixedDominance,
    Objective,
    QuasarConvex,
    SingularGramError,
    StronglyConvex,
    certify_condition,
    least_squares_from_data,
    make_least_squares,
    make_linear_probe,
    make_phi_p,
    make_pl_sine,
    make_quadratic,
)
from .sde import em_bias_probe, path_length
from .sgd import (
    DivergenceError,
    ReplicateRuns,
    run_sgd_sweep,
)

__version__ = "0.1.0"

# every name imported above, but not the submodules those imports bind
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
