"""Deterministic federated recommender simulator with fake-user promotion attacks."""

from .aggregation import (
    AggregatorSpec,
    aggregate_round,
    aggregate_rows,
)
from .attack import AttackConfig, AttackRuntime
from .data import (
    EmptyDatasetError,
    InteractionDataset,
    RatingsParseError,
    dump_dataset,
    generate_synthetic,
    leave_one_out_split,
    load_dataset,
    parse_ratings,
)
from .evaluation import (
    MetricsRecord,
    footprint_stats,
    project_2d,
    rank_metrics,
)
from .federation import (
    ConfigError,
    DatasetConfig,
    Experiment,
    ExperimentConfig,
    ExperimentResult,
    RoundLedger,
    SeedStreams,
    run_experiment,
    run_round,
)
from .model import ItemEmbeddings, UserProfile, UserTable

__version__ = "0.1.0"
