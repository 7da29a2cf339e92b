"""The SG-tree index: nodes, insertion, splits, search, extensions."""

from .bulkload import bulk_load, gray_sort_order, minhash_order
from .clustering import Cluster, cluster_leaves
from .concurrent import ConcurrentSGTree, PinnedSnapshot, TreeSnapshot
from .insert import CHOOSERS, choose_subtree
from .join import (
    PairResult,
    all_nearest_neighbors,
    browse_pairs,
    closest_pairs,
    pair_lower_bound,
    similarity_join,
    similarity_self_join,
)
from .persistence import load_tree, recover_tree, save_tree
from .node import Entry, Node, NodeStore, StoreCounters
from .scrub import ScrubIssue, ScrubReport, scrub_index, scrub_store, scrub_tree
from .search import (
    Deadline,
    KnnHeap,
    Neighbor,
    batch_knn,
    batch_range,
    browse,
    constrained_nearest,
    range_count,
    range_count_bounds,
    SearchStats,
    containment_search,
    equality_search,
    knn_best_first,
    knn_depth_first,
    subset_search,
)
from .split import SPLITTERS, split_entries
from .stats import (
    LevelProfile,
    TreeReport,
    average_area_by_level,
    level_profile,
    occupancy_histogram,
    tree_report,
    validate_tree,
)
from .tree import SGTree

__all__ = [
    "SGTree",
    "Entry",
    "Node",
    "NodeStore",
    "StoreCounters",
    "Neighbor",
    "SearchStats",
    "Deadline",
    "knn_depth_first",
    "knn_best_first",
    "KnnHeap",
    "batch_knn",
    "batch_range",
    "browse",
    "range_count",
    "range_count_bounds",
    "constrained_nearest",
    "containment_search",
    "subset_search",
    "equality_search",
    "choose_subtree",
    "CHOOSERS",
    "split_entries",
    "SPLITTERS",
    "TreeReport",
    "tree_report",
    "average_area_by_level",
    "LevelProfile",
    "level_profile",
    "occupancy_histogram",
    "validate_tree",
    "bulk_load",
    "gray_sort_order",
    "minhash_order",
    "Cluster",
    "cluster_leaves",
    "PairResult",
    "similarity_join",
    "similarity_self_join",
    "closest_pairs",
    "browse_pairs",
    "all_nearest_neighbors",
    "pair_lower_bound",
    "save_tree",
    "load_tree",
    "recover_tree",
    "ScrubIssue",
    "ScrubReport",
    "scrub_tree",
    "scrub_store",
    "scrub_index",
    "ConcurrentSGTree",
    "TreeSnapshot",
    "PinnedSnapshot",
]
