"""Graph substrate: CSR structure, datasets, partitioning, sampling."""

from .csr import CSR, build_csr, edges_to_csr
from .graph import Graph
from .generators import GeneratorConfig, homophilous_graph, random_split_masks
from .datasets import DATASETS, PAPER_STATS, dataset_names, load_dataset
from .partition import PartitionResult, partition_graph, val_balanced_weights, edge_cut
from .sampling import (
    select_partitions,
    partition_union_subgraph,
    num_possible_subgraphs,
    khop_subgraph,
    NeighborSampler,
)
from .store import GraphStore, StoreGraph, MemoryBudgetError, parse_memory_budget

__all__ = [
    "CSR",
    "build_csr",
    "edges_to_csr",
    "Graph",
    "GeneratorConfig",
    "homophilous_graph",
    "random_split_masks",
    "DATASETS",
    "PAPER_STATS",
    "dataset_names",
    "load_dataset",
    "PartitionResult",
    "partition_graph",
    "val_balanced_weights",
    "edge_cut",
    "select_partitions",
    "partition_union_subgraph",
    "num_possible_subgraphs",
    "khop_subgraph",
    "NeighborSampler",
    "GraphStore",
    "StoreGraph",
    "MemoryBudgetError",
    "parse_memory_budget",
]
