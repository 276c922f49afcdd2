"""Temporal relation optimal transport for cross-user activity recognition."""

from .adapt import barycentric_map, barycentric_project, coral_align, transform_samples
from .errors import TrotError
from .harness import (
    METHODS,
    AdaptReport,
    TaskSpec,
    default_grid,
    knn1_classify,
    matrix_to_json,
    render_table,
    run_matrix,
    run_task,
    temporal_split,
)
from .hmm import (
    ActivityHMM,
    TemporalAtlas,
    assign_dataset_states,
    build_atlas,
    fit_activity_hmm,
)
from .ot_core import (
    Coupling,
    TrotHyperparams,
    cost_matrix,
    entropy,
    gcg_solve,
    group_sparse,
    pairwise_sq_dists,
    same_order_mask,
    sinkhorn,
    temporal_reg,
)
from .preprocess import (
    FeatureDataset,
    Recording,
    build_features,
    extract_features,
    load_features,
    load_recording,
    magnitude,
    maxabs_fit_apply,
    save_features,
    segment,
)
from .synth import SynthSpec, adversarial_user_shift, generate_pair, generate_user, state_grid

__version__ = "0.1.0"
