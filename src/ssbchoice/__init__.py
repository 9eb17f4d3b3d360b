"""Exact-arithmetic social choice with skew-symmetric bilinear utilities.

Lotteries over finitely many alternatives, pairwise-comparison preference
extension, pairwise utilitarian aggregation (the unique anonymous Arrovian
rule on pairwise-comparison domains), maximal lotteries via exact
zero-sum-game solving, and brute-force axiom audits.
All arithmetic is rational; results are exact identities, not tolerances.
"""

from .model import (
    BaseRelation,
    FeasiblePolytope,
    Lottery,
    Profile,
    Universe,
    UniverseMismatchError,
    UtilityVector,
    frac,
    mix,
    weak_order,
)
from .ssb import (
    Comparison,
    SSBMatrix,
    approved_set,
    compare,
    cycle_witness,
    evaluate,
    is_dichotomous,
    lottery_grid,
    normalize,
    pc_extension,
    restrict,
    separable,
    to_matrix,
)
from .aggregate import (
    ParetoDominance,
    approval_aggregate,
    majority_margins,
    pareto_relation,
    relative_utilitarian_vnm,
    utilitarian,
)
from .solver import (
    MaximalityCertificate,
    SolverDefect,
    choose,
    is_maximal,
    maximal_lottery,
    maximal_set,
    unique_optimum,
)
from .ballots import (
    ParseError,
    ProposalMatrix,
    budget_allocation,
    format_fraction,
    format_percent,
    fraction_pair,
    parse_ballots,
    parse_matrices,
    parse_proposals,
    render_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "BaseRelation",
    "Comparison",
    "FeasiblePolytope",
    "Lottery",
    "MaximalityCertificate",
    "ParetoDominance",
    "ParseError",
    "Profile",
    "ProposalMatrix",
    "SSBMatrix",
    "SolverDefect",
    "Universe",
    "UniverseMismatchError",
    "UtilityVector",
    "approval_aggregate",
    "approved_set",
    "budget_allocation",
    "choose",
    "compare",
    "cycle_witness",
    "evaluate",
    "format_fraction",
    "format_percent",
    "frac",
    "fraction_pair",
    "is_dichotomous",
    "is_maximal",
    "lottery_grid",
    "majority_margins",
    "maximal_lottery",
    "maximal_set",
    "mix",
    "normalize",
    "parse_ballots",
    "parse_matrices",
    "parse_proposals",
    "pareto_relation",
    "pc_extension",
    "relative_utilitarian_vnm",
    "render_matrix",
    "restrict",
    "separable",
    "to_matrix",
    "unique_optimum",
    "utilitarian",
    "weak_order",
]
