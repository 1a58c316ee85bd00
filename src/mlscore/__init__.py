"""Margin-aware Laplacian feature scoring for imbalanced tabular data."""

__version__ = "0.1.0"

from .data import (
    DataError,
    Dataset,
    ScalerStats,
    load_csv,
    save_csv,
    standardize,
)
from .margins import (
    InteractionWeights,
    MarginConfig,
    MarginKind,
    MarginModel,
    build_margin_model,
    export_margin_csv,
    interaction_weights,
    skewness,
    temperature,
)
from .scores import (
    KernelConfig,
    ScoreReport,
    laplacian_score,
    mls,
    ranked_rows,
    select_top,
)
from .gates import (
    GateState,
    TrainConfig,
    TrainTrace,
    dufs_bandwidth,
    dufs_loss,
    dufs_mls_loss,
    loss_gradient,
    open_prob,
    sample_gates,
    train,
)
from .synth import (
    SynthDataset,
    SynthSpec,
    add_noise_features,
    gen_correlated_block,
    gen_setup,
)
from .evaluation import (
    EvalReport,
    auc_roc,
    bench_margin_config,
    ks_statistic,
    margin_weight_separation,
    run_recovery_benchmark,
    score_dataset,
    selection_accuracy,
)

__all__ = [name for name in dir() if not name.startswith("_")]
