"""Deterministic federated recommender simulator with fake-user promotion attacks."""

from .aggregation import (
    AggregationError,
    AggregatorSpec,
    agg_clip,
    agg_fedavg,
    agg_hics,
    agg_krum,
    agg_median,
    agg_trimmed_mean,
    aggregate_item,
)
from .attack import (
    AttackConfig,
    AttackRuntime,
    PoisonState,
    build_poison_state,
    build_target,
    craft_poisonfrs_update,
    estimate_popular,
    make_baseline_fakes,
    select_fillers,
)
from .data import (
    DegenerateUserError,
    EmptyDatasetError,
    InteractionDataset,
    RatingsParseError,
    dump_dataset,
    generate_synthetic,
    leave_one_out_split,
    load_dataset,
    parse_ratings,
    sample_pairs,
)
from .evaluation import (
    MetricsRecord,
    UndefinedMetricError,
    UpdateDump,
    dump_target_updates,
    footprint_stats,
    ndcg_at,
    project_2d,
    target_hit_ratio,
    test_hit_ratio,
)
from .federation import (
    DatasetConfig,
    ExperimentConfig,
    ExperimentResult,
    RoundLedger,
    SeedStreams,
    run_experiment,
    run_round,
)
from .model import (
    ItemEmbeddings,
    UserProfile,
    bpr_loss,
    local_train,
    predict_score,
    recommend_topk,
)

__version__ = "0.1.0"
