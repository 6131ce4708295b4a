"""Entanglement measures, bounds, LOCC convertibility, and Gaussian tools."""

from .errors import ValidationError, UnsupportedCaseError
from .bounds import (
    BoundsReport,
    bounds_report,
    conditional_entropy,
    hashing_lower_bound,
    uu_twirl_two_qubit,
    werner_state,
)
from .closed_form import (
    binary_entropy,
    ckw_check,
    concurrence,
    eof_two_qubit,
    log_negativity,
    negativity,
    residual_tangle,
    tangle,
)
from .gaussian import (
    CovarianceMatrix,
    SymplecticSpectrum,
    apply_symplectic,
    gaussian_entropy,
    gaussian_is_ppt,
    gaussian_log_negativity,
    gaussian_ppt_separable,
    partial_time_reversal,
    reduce_modes,
    symplectic_eigenvalues,
    two_mode_squeezed,
)
from .locc import (
    ConversionVerdict,
    SchmidtDecomposition,
    catalysis_search,
    entropy_of_entanglement,
    majorization_convertible,
    optimal_conversion_probability,
    schmidt,
    two_qubit_conversion_kraus,
)
from .variational import (
    BaseNormResult,
    BsaResult,
    ConeSpec,
    SolverConfig,
    base_norm,
    best_separable_approximation,
    eof_convex_roof,
    geometric_measure,
    minimize_over_ppt_states,
    rains_bound,
    relative_entropy_of_entanglement,
    robustness,
    squashed_eval,
    werner_regularized_ree,
    witness_violation,
)
from .states import (
    DensityOperator,
    PureState,
    KrausSet,
    MeasureResult,
    is_ppt,
    partial_trace,
    partial_transpose,
    permute_subsystems,
    von_neumann_entropy,
    relative_entropy,
    trace_norm,
    mutual_information,
    conditional_mutual_information,
    apply_kraus,
    max_entangled,
    ghz_state,
    w_state,
    state_from_dict,
    state_to_dict,
    load_state,
    save_state,
)

__version__ = "0.1.0"
