"""Multilabel classification with pairwise label correlations.

Per-label logistic regressions coupled by symmetric pairwise interaction
weights, trained by elastic-net-regularized maximum pseudo-likelihood
(proximal gradient with soft thresholding) and decoded jointly: by max-sum elimination
on label graphs of elimination width below 16, by iterated conditional modes otherwise.
"""

from .data import (
    DatasetSpec,
    ToySpec,
    add_bias_column,
    compute_feature_scale,
    generate_toy,
    load_dataset,
    scale_features,
    write_dense_csv,
)
from .errors import (
    CorrlogError,
    DataError,
    ModelFormatError,
    NumericError,
    ParseError,
)
from .evaluation import (
    CvResult,
    StabilityReport,
    TTestResult,
    compare_cv,
    cross_validate,
    paired_t_test,
    params_distance,
    predict_dataset,
    stability_experiment,
)
from .inference import (
    BeliefState,
    decode_rows,
    map_bruteforce,
    margin,
    margin_loss,
    predict_map_bp,
    sample_from_model,
)
from .metrics import MetricsReport, compute_metrics
from .model import (
    ModelParams,
    MultilabelDataset,
    conditional_label_prob,
    ilrs_label_prob,
    joint_score,
)
from .objective import (
    RegularizationConfig,
    elastic_net_penalty,
    full_objective,
    neg_log_pseudo_likelihood,
    smooth_gradient,
    smooth_objective,
)
from .optimizer import (
    TrainConfig,
    TrainTrace,
    soft_threshold,
    subgradient_residual,
    train_corrlog,
    train_ilrs,
)
from .serialize import (
    LabelGraph,
    ModelDocument,
    dump_json,
    export_label_graph,
    load_model,
    save_model,
)

__version__ = "0.1.0"
