"""Incremental subspace identification on the Grassmannian.

A rank-one-update estimator for a d-dimensional subspace of R^n observed
through a stream of (partially revealed) vectors, together with the
geometry it is measured by and a Monte-Carlo lab validating its
convergence behavior.
"""
from types import ModuleType as _ModuleType

from .linalg import (
    NumericalError,
    least_squares,
    nearest_orthogonal,
    orthonormalize,
    singular_values,
)
from .metrics import (
    Basis,
    alignment,
    coherence_basis,
    coherence_vector,
    epsilon,
    epsilon_residual,
    revealed_angle_sin_sq,
)
from .partial_data import (
    GateVerdict,
    Observation,
    StepRecord,
    gate_check,
    grouse_step,
    partial_residual,
    read_observations,
    run_stream,
    step_size,
    write_observations,
)
from .full_data import (
    FullStepRecord,
    full_step,
    predicted_decrease,
    run_full,
)
from .concentration import (
    ConcentrationReport,
    MuXtSummary,
    ResidualBoundReport,
    estimate_skip_rate,
    gamma_bound,
    mu_xt_diagnostics,
    validate_gram_concentration,
    validate_residual_bound,
    validate_sin_sq_expectation,
)
from .harness import (
    ProblemSpec,
    SweepCell,
    fit_x,
    generate_problem,
    incoherent_basis,
    pair_with_epsilon,
    random_basis,
    read_problem_spec,
    read_sweep_csv,
    run_full_trial,
    run_partial_trial,
    sweep_phase,
    tail_slope,
    write_problem_spec,
    write_sweep_csv,
)
from .results import TrialResult, read_trajectory_csv, write_trajectory_csv

__version__ = "0.1.0"

# The imports above are the only list of public names: every bound name
# that is not private and not a submodule.
__all__ = sorted(name for name, value in globals().items()
                 if not (name.startswith("_") or isinstance(value, _ModuleType)))
