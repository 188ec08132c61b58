"""tensionkit: low-tension community search and team formation in
attributed networks.

A network carries latent node profiles; expressed profiles settle into the
equilibrium of repeated neighborhood averaging, and the residual
disagreement is the social tension.  This package finds connected
communities around seed nodes (and teams covering skill requirements) that
keep that tension low, plus the standardized measures and generators needed
to evaluate them.
"""

from .community import (VARIANT_TAGS, Solution, community_solver,
                        evaluate_solution, peel_community, proxy_weights,
                        seed_connector, tree_community)
from .conformation import (ConformationResult, conform, equilibrium_solve,
                           node_tension, social_tension)
from .errors import ConvergenceError, InfeasibleError, InputError
from .evaluation import (Metrics, SeedGroup, generate_profiles,
                         sample_seed_groups, standardized_metrics)
from .graph import EdgeWeights, Graph, induced_subgraph, largest_component
from .teams import SkillMap, TeamResult, form_team, greedy_fixed_size

__version__ = "0.1.0"

# the names the README's Library section lists; the rest stay importable
# from their modules
__all__ = [
    "ConformationResult", "ConvergenceError", "EdgeWeights", "Graph",
    "InfeasibleError", "InputError", "Metrics", "SeedGroup", "SkillMap",
    "Solution", "TeamResult", "VARIANT_TAGS", "community_solver", "conform",
    "equilibrium_solve", "evaluate_solution", "form_team",
    "generate_profiles", "greedy_fixed_size", "induced_subgraph",
    "largest_component", "node_tension", "peel_community", "proxy_weights",
    "sample_seed_groups", "seed_connector", "social_tension",
    "standardized_metrics", "tree_community",
]
