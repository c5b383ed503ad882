"""Profinite-topology computations on finite semigroups and languages."""

from .semigroups import (
    FiniteSemigroup,
    GreenData,
    MonogenicProfile,
    StructuralProfile,
    adjoin_identity,
    check_associativity,
    enumerate_semigroups,
    green_relations,
    monogenic_profile,
    structural_predicates,
    subsemigroup_closure,
)
from .languages import (
    Dfa,
    Morphism,
    SyntacticResult,
    parse_regex,
    recognizes,
    syntactic_semigroup,
    to_minimal_dfa,
)
from .kappa import (
    Mul,
    OmegaPow,
    Pseudoidentity,
    PseudovarietyDef,
    Var,
    eval_term,
    member,
    parse_pseudoidentity,
    parse_term,
    registry,
    satisfies,
)
from .freegroup import (
    GroupAutomaton,
    benois_saturate,
    generated_subgroup,
    parse_group_word,
    rational_membership,
    reduce_word,
    stallings_graph,
    subgroup_contains,
)
from .closure import (
    ClosureResult,
    KernelResult,
    MonoidMorphism,
    g_pointlike,
    inevitable_loop,
    inevitable_two_vertex,
    kernel_g,
    kernel_via_closure,
    malcev_membership,
    pro_g_closure,
    separable_by_group_language,
)
from .metric import DistanceResult, RankResult, distance, separation_rank
from .symbolic import (
    SoficShift,
    Substitution,
    entropy,
    factorial_trim,
    is_irreducible,
    is_primitive,
    parse_substitution,
    substitution_blocks,
)

__version__ = "0.1.0"
