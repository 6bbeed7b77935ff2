"""Co-optimal transport toolkit.

Jointly couples the samples and the features of two heterogeneous data
matrices by alternating exact or entropic transport subproblems, with
brute-force oracles for small instances, the tied-coupling reduction for
similarity matrices, and downstream procedures: co-clustering, cross-domain
label propagation and an election isomorphism distance.
"""

from .core import (
    ABSOLUTE,
    ConfigError,
    CooptError,
    Coupling,
    DimensionError,
    DomainError,
    KULLBACK_LEIBLER,
    LOSSES,
    Loss,
    SQUARED_EUCLIDEAN,
    UnsupportedLossError,
    as_histogram,
    as_matrix,
    loss_eval,
    uniform_histogram,
    validate_coupling,
)
from .ot import OtResult, entropic_ot, exact_ot, sinkhorn
from .tensorcost import (
    ContractedCost,
    Side,
    contract,
    contract_factored,
    contract_naive,
    coot_objective,
)
from .coot import (
    BapResult,
    CootProblem,
    CootSolution,
    bap_oracle,
    coot_distance_checks,
    permutation_equal,
    random_coupling,
    solve_coot,
)
from .gw import (
    GwSolution,
    SimilarityKind,
    SimilarityMatrix,
    gw_coot_equivalence_check,
    gw_gradient,
    gw_objective,
    gw_permutation_oracle,
    solve_gw_dc,
    sqeuclid_matrix,
)
from .apps import (
    BLOCK_PRESETS,
    BlockConfig,
    CoClustering,
    HdaResult,
    as_label_matrix,
    cce,
    cocluster,
    election_distance,
    election_solution,
    generate_blocks,
    hda_pipeline,
    mask_semisupervised_cost,
    misclassification_rate,
    one_hot_labels,
    propagate_labels,
    summary_update,
)
from .fileio import export_heatmap

__version__ = "0.1.0"
