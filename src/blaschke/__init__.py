"""Blaschke decompositions, weighted Hardy norms, and unwinding series
for functions on the unit disk represented by truncated power series."""

from .errors import (
    BlaschkeConditionViolated,
    BlaschkeError,
    CapTooLarge,
    ChainInconsistent,
    ConvergenceError,
    DomainError,
    InsufficientDepth,
    InvalidSeries,
    InvalidSpec,
    KTooSmall,
    NonFinite,
    NotARoot,
    WeightClassMismatch,
    ZeroSeries,
)
from .series import (
    CoefficientSeries,
    as_series,
    deflate,
    divide_conjugate_linear,
    h2_norm_sq,
    multiply,
    multiply_conjugate_linear,
)
from .weights import (
    GrowthClass,
    WeightSequence,
    classify,
    dirichlet_norm_sq,
    hardy_sobolev_norm_sq,
    x_norm_sq,
    y_seminorm_sq,
)
from .decomposition import (
    DecompositionChain,
    RootSet,
    blaschke_eval_many,
    decompose,
    find_roots_in_disk,
    reflect_root,
)
from .unwinding import (
    UnwindingExpansion,
    reconstruct,
    residual_decay_rate,
    unwind,
)
from .signals import (
    BoundarySignal,
    analytic_signal,
    boundary_samples,
    load_signal_csv,
    project_coefficients,
    save_signal_csv,
)
from .verify import (
    CLAIMS,
    DEFAULT_TOLS,
    InstanceSpec,
    VerificationReport,
    boundary_accumulating_roots,
    default_instance_schedule,
    generate_instance,
    run_sweep,
    verify_corollary1,
    verify_corollary2,
    verify_lemma10_chain,
    verify_prop_reflect,
    verify_qian_tail,
    verify_single_root,
    verify_theorem1,
    verify_theorem2,
    verify_theorem3_truncated,
)

__version__ = "0.1.0"
