"""Bounded-pathwidth metric graphs, random tree embeddings, and exact
distortion checking."""

from .graphs import (
    MetricGraph,
    build_metric_graph,
    shortest_path_metric,
    reduce_lengths,
    is_tree,
    minimum_spanning_tree,
    complete_on_clique,
)
from .pathwidth import (
    PathDecomposition,
    LinearCompositionSequence,
    validate_path_decomposition,
    composition_to_decomposition,
    decomposition_to_composition,
    normalize_decomposition,
    bag_distances,
    composed_metric_graph,
    exact_pathwidth,
    exact_path_decomposition,
    tree_pathwidth,
    tree_path_decomposition,
    peel_path,
)
from .pw2 import embed_pathwidth2, enumerate_pw2_distribution, pw2_deletion_probability
from .pwk import embed_pathwidthk, enumerate_pwk_distribution
from .harness import (
    EmbeddingSample,
    identity_sample,
    check_noncontraction,
    estimate_distortion,
    average_edge_stretch,
    lower_bound_threshold,
    verify_lower_bound_witness,
    check_close_to_P,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
