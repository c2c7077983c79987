"""Exact analysis and vector-graphics rendering of 2x2 normal-form games."""

from .core import (
    Game,
    JointDistribution,
    MarginalPair,
    Player,
    as_rational,
    best_response_set,
    conditional,
    format_rational,
    game_from_flat,
    game_to_flat,
    joint,
    marginals_from_joint,
    permute,
    product_joint,
    transform_affine,
)
from .embedding import class_of_embedding, embed
from .equilibria import cce_polytope, is_nash, joint_in_cce, nash_set
from .graphs import br_class, br_graph, census, ordinal_graph

__version__ = "0.1.0"
