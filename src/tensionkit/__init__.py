"""tensionkit: low-tension community search and team formation in
attributed networks.

A network carries latent node profiles; expressed profiles settle into the
equilibrium of repeated neighborhood averaging, and the residual
disagreement is the social tension.  This package finds connected
communities around seed nodes (and teams covering skill requirements) that
keep that tension low, plus the standardized measures and generators needed
to evaluate them.
"""

from .community import (PEEL_VARIANTS, TREE_VARIANTS, VARIANT_TAGS,
                        WEIGHT_NORMS, Solution, community_solver,
                        evaluate_solution, peel_community, proxy_weights,
                        seed_connector, tree_community)
from .conformation import (ConformationResult, conform, equilibrium_residual,
                           equilibrium_solve, node_tension, social_tension)
from .errors import ConvergenceError, InfeasibleError, InputError
from .evaluation import (Metrics, SeedGroup, generate_profiles,
                         mean_squared_weight, sample_seed_groups,
                         seed_tree_edge_count, standardized_metrics)
from .graph import (DisjointSet, EdgeWeights, Graph, bfs_distances,
                    connected_components, hop_distance_matrix,
                    induced_subgraph, largest_component,
                    minimum_spanning_tree, path_distances, shortest_path)
from .rng import derive_rng, derive_seed
from .teams import (SkillMap, TeamResult, form_team, greedy_fixed_size,
                    skill_extended_graph)

__version__ = "0.1.0"

__all__ = [
    "ConformationResult", "ConvergenceError", "DisjointSet", "EdgeWeights",
    "Graph", "InfeasibleError", "InputError", "Metrics", "PEEL_VARIANTS",
    "SeedGroup", "SkillMap", "Solution", "TeamResult", "TREE_VARIANTS",
    "VARIANT_TAGS", "WEIGHT_NORMS", "bfs_distances", "community_solver",
    "conform", "connected_components", "derive_rng", "derive_seed",
    "equilibrium_residual", "equilibrium_solve", "evaluate_solution",
    "form_team", "generate_profiles", "greedy_fixed_size",
    "hop_distance_matrix", "induced_subgraph", "largest_component",
    "mean_squared_weight", "minimum_spanning_tree", "node_tension",
    "path_distances", "peel_community", "proxy_weights",
    "sample_seed_groups", "seed_connector", "seed_tree_edge_count",
    "shortest_path", "skill_extended_graph", "social_tension",
    "standardized_metrics", "tree_community",
]
