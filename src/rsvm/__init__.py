"""Bayesian low-rank matrix reconstruction with Kronecker-structured priors.

Public surface: vec/unvec, the SPD inverse, the factored prior precision
(``Prior``) and the structured posterior covariance forms the solvers
read, measurement-operator and instance construction, the full /
symmetric / accelerated solvers, the
accelerated solver's posterior step (``block_descent`` over the column
groups of ``partition_blocks``), the nuclear-norm baseline with the
singular-value soft-threshold its FISTA runs (``svt_prox``), and the
benchmark driver. Dense references (the pq x pq covariance, dense trace
contractions, the nearest Kronecker sum) are test oracles in
``tests/naive_oracles.py``, not package code.
"""

from .accel import block_descent, partition_blocks, solve_accelerated
from .bench import (
    AggregateRow,
    ConfigError,
    ExperimentConfig,
    ResultRow,
    aggregate,
    m_from_fraction,
    nmse,
    run_experiment,
    write_csv,
)
from .core import (
    Estimate,
    Hyperparameters,
    IterationRecord,
    PrecisionState,
    SolverDivergenceError,
    SolverState,
    balance_precisions,
    effective_rank,
    init_state,
    map_estimate,
    neg_log_joint,
    solve,
    update_noise_precision,
    update_precisions,
)
from .kronops import (
    BlockCovariance,
    CompletionCovariance,
    FactorizationError,
    Prior,
    StructuredCovariance,
    spd_inverse,
    structured_covariance,
    unvec,
    vec,
)
from .nuclear import (
    NuclearConfig,
    delta_from_sigma,
    solve_constrained,
    svt_prox,
)
from .sensing import (
    MeasurementOperator,
    ProblemInstance,
    completion_operator,
    gaussian_operator,
    generate_low_rank,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    measure,
    noise_sigma_for_snr,
    save_instance,
)
from .symmetric import solve_symmetric

__all__ = [name for name in dir() if not name.startswith("_")]
