"""repro — the SG-tree (signature tree) and its evaluation substrate.

A production-quality reproduction of *"Similarity Search in Sets and
Categorical Data Using the Signature Tree"* (Mamoulis, Cheung & Lian,
ICDE 2003): the dynamic, paginated SG-tree index, the SG-table baseline
it is evaluated against, the synthetic and categorical dataset
generators, exact-search baselines, and the benchmark harness that
regenerates every table and figure of the paper's evaluation.

Quickstart
----------
>>> from repro import SGTree, Signature
>>> tree = SGTree(n_bits=100)
>>> tree.insert(0, Signature.from_items([1, 5, 9], 100))
>>> tree.insert(1, Signature.from_items([1, 5, 8], 100))
>>> tree.nearest(Signature.from_items([1, 5, 9, 20], 100), k=1)
[Neighbor(distance=1.0, tid=0)]
"""

from .baselines import InvertedIndex, LinearScan
from .core import (
    COSINE,
    DICE,
    HAMMING,
    JACCARD,
    OVERLAP,
    CategoricalSchema,
    CosineMetric,
    DiceMetric,
    HammingMetric,
    ItemVocabulary,
    JaccardMetric,
    Metric,
    OverlapMetric,
    Signature,
    Transaction,
    resolve_metric,
    transactions_from_itemsets,
    transactions_from_labels,
    transactions_from_tuples,
)
from .data import (
    CensusConfig,
    CensusGenerator,
    QuestConfig,
    QuestGenerator,
    Workload,
    census_workload,
    quest_workload,
)
from .errors import (
    PageCorruptError,
    QueryTimeout,
    RecoveryError,
    ReproError,
    ScrubError,
    StorageError,
)
from .server import (
    QueryService,
    ReloadInProgress,
    RequestShed,
    ServedQuery,
    make_server,
)
from .sgtable import SGTable
from .telemetry import EventLog, MetricsRegistry, Telemetry
from .sgtree import (
    Cluster,
    ConcurrentSGTree,
    Deadline,
    Neighbor,
    batch_knn,
    batch_range,
    PairResult,
    ScrubIssue,
    ScrubReport,
    SearchStats,
    SGTree,
    all_nearest_neighbors,
    browse_pairs,
    bulk_load,
    closest_pairs,
    cluster_leaves,
    load_tree,
    recover_tree,
    save_tree,
    scrub_index,
    scrub_tree,
    similarity_join,
    similarity_self_join,
    tree_report,
    validate_tree,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "Signature",
    "Transaction",
    "ItemVocabulary",
    "CategoricalSchema",
    "Metric",
    "HammingMetric",
    "JaccardMetric",
    "DiceMetric",
    "OverlapMetric",
    "CosineMetric",
    "HAMMING",
    "JACCARD",
    "DICE",
    "OVERLAP",
    "COSINE",
    "resolve_metric",
    "transactions_from_itemsets",
    "transactions_from_labels",
    "transactions_from_tuples",
    # indexes
    "SGTree",
    "SGTable",
    "Neighbor",
    "SearchStats",
    "bulk_load",
    "Cluster",
    "cluster_leaves",
    "tree_report",
    "validate_tree",
    "PairResult",
    "similarity_join",
    "similarity_self_join",
    "closest_pairs",
    "browse_pairs",
    "all_nearest_neighbors",
    "save_tree",
    "load_tree",
    "recover_tree",
    "ConcurrentSGTree",
    "batch_knn",
    "batch_range",
    # serving
    "QueryService",
    "ServedQuery",
    "RequestShed",
    "ReloadInProgress",
    "make_server",
    "Deadline",
    "QueryTimeout",
    # telemetry
    "Telemetry",
    "MetricsRegistry",
    "EventLog",
    # integrity / errors
    "ScrubIssue",
    "ScrubReport",
    "scrub_tree",
    "scrub_index",
    "ReproError",
    "StorageError",
    "PageCorruptError",
    "RecoveryError",
    "ScrubError",
    # baselines
    "LinearScan",
    "InvertedIndex",
    # data
    "QuestConfig",
    "QuestGenerator",
    "CensusConfig",
    "CensusGenerator",
    "Workload",
    "quest_workload",
    "census_workload",
]
