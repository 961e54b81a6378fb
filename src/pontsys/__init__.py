"""Passive discrete-time systems with Pontryagin state spaces.

Operator colligations, generalized Schur transfer functions, cascade
products, Julia completions, Blaschke factorizations, defect functions
and stability classification, at finite dimension.
"""

from . import exceptions
from .indefinite import (
    DEFAULT_TOL,
    IndefiniteSubspace,
    MetricClass,
    SignatureSpace,
    SpectralRegion,
    SubspaceKind,
    Tolerances,
)
from .colligation import (
    BareRealization,
    Colligation,
    KrylovReport,
    SimilarityResult,
    SimpKarReport,
    SystemClass,
    SystemKind,
    adjoint_system,
    classify,
    krylov_report,
    markov,
    realize_from_taylor,
    simp_kar_check,
    state_change,
    system_kind,
    system_operator,
    to_canonical,
    transfer_eval,
    transfer_values,
    unitary_similarity,
    weak_similarity,
)
from .julia import (
    JuliaParts,
    julia_embedding,
    julia_operator,
)
from .products import (
    FundamentalSplit,
    ObstructionReport,
    SplitKind,
    StabilityClass,
    SystemFactorization,
    cascade,
    invariant_fundamental_decompositions,
    kl_factorize_system,
    obstruction_controllable,
    obstruction_observable,
    stability_classify,
)
from .schur import (
    BoundaryReport,
    DefectResult,
    FactorizationResult,
    NegativeSquaresEstimate,
    TransferFunction,
    as_transfer,
    blaschke_potapov_factor,
    blaschke_product,
    boundary_behavior,
    canonical_coisometric_realization,
    defect,
    invert_system,
    kernel_gram,
    kl_factorize_function,
    negative_squares_estimate,
)

__version__ = "0.1.0"


def __getattr__(name):
    # the SystemFile helpers live in the cli module, imported on first use,
    # so that ``python -m pontsys.cli`` runs a module not yet imported
    if name in ("load_system", "save_system"):
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
