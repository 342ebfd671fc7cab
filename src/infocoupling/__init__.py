"""Local-geometry toolkit for discrete memoryless channels.

Quadratic divergence approximation around an operating point, the
divergence transition matrix and its spectrum, coupling solvers for
point-to-point, broadcast, and multiple access settings, layered code
construction, and brute-force oracles that validate the closed forms.
"""

from .channel import (
    ChannelMatrix,
    Dtm,
    RenyiCorrelation,
    Spectrum,
    TopPairReport,
    build_dtm,
    output_distribution,
    renyi_correlation,
    strong_dpi_coefficient,
    verify_top_singular,
)
from .coupling import (
    BroadcastSolution,
    DiagonalInstance,
    DiagonalMaxMinResult,
    MacSolution,
    P2PSolution,
    PerturbationEnsemble,
    SingleDirectionResult,
    antipodal_pair_ensemble,
    build_mac_dtms,
    diagonal_maxmin,
    mac_marginal_channels,
    mac_tensorization_check,
    solve_broadcast,
    solve_broadcast_single_direction,
    solve_mac_common,
    solve_p2p,
    split_rate_region,
    superposition_information,
    valid_plane_basis,
)
from .layered import (
    BlockCodeConfig,
    LayerPlan,
    LayerRecord,
    SimulationReport,
    greedy_layer,
    plan_ternary_two_layer,
    simulate_layered,
    single_layer_plan,
)
from .oracles import (
    BruteBroadcastResult,
    BruteP2PResult,
    SearchBudget,
    SRatioResult,
    ace_correlation,
    brute_broadcast,
    brute_p2p,
    s_ratio_search,
)
from .prob import (
    ConditionalFamily,
    Distribution,
    Perturbation,
    WeightedVector,
    apply_perturbation,
    from_weighted,
    kl_divergence,
    local_kl,
    mutual_information,
    to_weighted,
    weighted_inner,
)
from .tensor import (
    LiftedDtm,
    ProductFormDecomposition,
    kron,
    kron_pair_residual,
    kron_power,
    lift_dtm,
    lifted_spectrum,
    product_form_projector,
    second_singular_of_power,
)

__version__ = "0.1.0"
