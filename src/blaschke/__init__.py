"""Blaschke decompositions, weighted Hardy norms, and unwinding series
for functions on the unit disk represented by truncated power series."""

from .errors import (
    BlaschkeConditionViolated,
    BlaschkeError,
    CapTooLarge,
    ChainInconsistent,
    ConvergenceError,
    DepthExhausted,
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
    add,
    as_series,
    deflate,
    divide_conjugate_linear,
    evaluate,
    evaluate_many,
    geometric_extension_cap,
    h2_norm_sq,
    multiply,
    multiply_conjugate_linear,
    scale,
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
    RootOptions,
    RootSet,
    blaschke_eval,
    blaschke_eval_many,
    boundary_modulus_gap,
    decompose,
    find_roots_in_disk,
    reflect_root,
    reflection_identity_gap,
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
    instance_roots,
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
