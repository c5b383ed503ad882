"""Pro-group closures of regular languages, group kernels and pointlikes.

A regular expression's closure in the free group replaces each plus/star
by the subgroup it generates.  Products of finitely generated subgroups are
closed (M. Hall; Ribes and Zalesskii), so kernels and pointlikes read one
graph per morphism, `languages.Morphism.closure_graph`: the right Cayley
graph with each edge inside a strongly connected component also inverted.
The kernel is also the weak-conjugation closure of the idempotents; the
two routes must agree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

from ._graph import reachable
from .errors import KitError, WordDomainError
from . import languages
from .languages import Dfa, Morphism, Regex
from .freegroup import (
    GroupAutomaton,
    GroupWord,
    ReducedWordMatcher,
    _intersection_witness,
    automaton_concat,
    automaton_union,
    empty_automaton,
    epsilon_automaton,
    generated_subgroup,
    positive_word,
    trim,
    word_automaton,
)
from .semigroups import FiniteSemigroup, _greedy_generators, subsemigroup_closure
from .kappa import PseudovarietyDef, member


def closure_automaton(r: Regex, alphabet: Sequence[str]) -> GroupAutomaton:
    """Translate a regex to an automaton for its pro-group closure in FG(A).

    Letters map to themselves, union and concatenation to the automaton
    constructions, and both iteration operators to the generated
    subgroup, which already contains the empty word.
    """
    if isinstance(r, languages.Empty):
        return empty_automaton(alphabet)
    if isinstance(r, languages.Epsilon):
        return epsilon_automaton(alphabet)
    if isinstance(r, languages.Letter):
        return word_automaton(positive_word(r.char), alphabet)
    if isinstance(r, languages.Union):
        return automaton_union(closure_automaton(r.left, alphabet),
                               closure_automaton(r.right, alphabet))
    if isinstance(r, languages.Concat):
        return automaton_concat(closure_automaton(r.left, alphabet),
                                closure_automaton(r.right, alphabet))
    if isinstance(r, (languages.Star, languages.Plus)):
        inner = trim(closure_automaton(r.inner, alphabet))
        if not inner.finals:
            # iterating the empty set: plus stays empty, star keeps only
            # the empty word; the generated subgroup would wrongly add it
            if isinstance(r, languages.Plus):
                return empty_automaton(alphabet)
            return epsilon_automaton(alphabet)
        return generated_subgroup(inner)
    raise KitError(f"unknown regex node {r!r}")


class ClosureResult:
    """Pro-group closure of a regular language, queried lazily.

    `contains` answers membership of a free-group element in the closure;
    positive words give the closure intersected with A+.
    """

    def __init__(self, source_regex: Regex, alphabet: Sequence[str]):
        self.source_regex = source_regex
        self.alphabet = tuple(alphabet)
        raw = closure_automaton(source_regex, self.alphabet)
        self._matcher = ReducedWordMatcher(trim(raw))
        self.automaton = self._matcher.automaton

    def contains(self, w: GroupWord) -> bool:
        return self._matcher.accepts(w)

    def contains_word(self, text: str) -> bool:
        if not text:
            raise WordDomainError("positive words are nonempty; use contains(())")
        return self._matcher.accepts(positive_word(text))


def pro_g_closure(r: Regex, alphabet: Optional[Iterable[str]] = None) -> ClosureResult:
    letters = tuple(sorted(
        frozenset(alphabet) if alphabet is not None else languages.regex_letters(r)))
    return ClosureResult(r, letters)


# ---------------------------------------------------------------------------
# separation by group languages


def _cyclic_group(k: int) -> FiniteSemigroup:
    return FiniteSemigroup.from_table(
        [[(i + j) % k for j in range(k)] for i in range(k)])


def _symmetric_group_3() -> FiniteSemigroup:
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    # left-to-right composition to match the word-action convention
    table = [[index[tuple(q[p[i]] for i in range(3))] for q in perms] for p in perms]
    return FiniteSemigroup.from_table(table)


def small_groups() -> tuple[tuple[str, FiniteSemigroup], ...]:
    groups = [(f"C{k}", _cyclic_group(k)) for k in range(1, 7)]
    groups.append(("S3", _symmetric_group_3()))
    return tuple(groups)


@dataclass(frozen=True)
class SeparationCertificate:
    group_name: str
    group: FiniteSemigroup
    assignment: tuple[tuple[str, int], ...]  # letter -> group element
    word_image: int
    language_images: frozenset[int]


def _language_images(dfa: Dfa, morphism: Morphism) -> frozenset[int]:
    """All group images of accepted words, via product reachability."""
    pairs = reachable([(dfa.initial, morphism.codomain.identity)],
                      lambda pair: zip(dfa.transition[pair[0]], morphism.rows[pair[1]]))
    return frozenset(g for state, g in pairs if state in dfa.finals)


def separation_certificate(word: str, r: Regex,
                           alphabet: Sequence[str]) -> Optional[SeparationCertificate]:
    """Search C1-C6 and S3 for a morphism separating word from L."""
    dfa = languages.to_minimal_dfa(r, alphabet)
    for name, group in small_groups():
        for values in itertools.product(range(group.order), repeat=len(dfa.alphabet)):
            morphism = Morphism(dfa.alphabet, group, values)
            word_image = morphism.image_of_word(word)
            lang_images = _language_images(dfa, morphism)
            if word_image not in lang_images:
                return SeparationCertificate(
                    group_name=name,
                    group=group,
                    assignment=tuple(zip(dfa.alphabet, values)),
                    word_image=word_image,
                    language_images=lang_images,
                )
    return None


def separable_by_group_language(word: str, r: Regex,
                                alphabet: Optional[Iterable[str]] = None) -> bool:
    """Can some group language contain the word and miss the language?"""
    if not word:
        raise WordDomainError("separation is about nonempty positive words")
    letters = tuple(sorted(
        (frozenset(alphabet) if alphabet is not None else languages.regex_letters(r))
        | set(word)))
    return not pro_g_closure(r, letters).contains(positive_word(word))


# ---------------------------------------------------------------------------
# group kernels


@dataclass(frozen=True)
class KernelResult:
    monoid: FiniteSemigroup
    kernel: frozenset[int]
    trace: tuple[tuple, ...]


def weak_conjugation_pairs(m: FiniteSemigroup) -> tuple[tuple[int, int], ...]:
    """All pairs (a, b) with aba = a or bab = b."""
    t = m.table
    pairs = []
    for a in range(m.order):
        for b in range(m.order):
            if t[t[a][b]][a] == a or t[t[b][a]][b] == b:
                pairs.append((a, b))
    return tuple(pairs)


def kernel_g(m: FiniteSemigroup) -> KernelResult:
    """Group kernel: weak-conjugation closure of the idempotents.

    The smallest submonoid containing the idempotents and closed under
    x -> a x b whenever aba = a or bab = b.
    """
    if m.identity is None:
        raise KitError("the group kernel is defined for monoids")
    pairs = weak_conjugation_pairs(m)
    rules = [
        (lambda x, a=a, b=b: (m.table[m.table[a][x]][b],))
        for a, b in pairs
    ]
    raw_trace: list = []
    seed = frozenset(m.idempotents()) | {m.identity}
    kernel = subsemigroup_closure(m, seed, rules, trace=raw_trace)
    trace: list[tuple] = [("seed", e) for e in sorted(seed)]
    for element, reason, source in raw_trace:
        if reason == "product":
            trace.append(("product", source[0], source[1], element))
        else:
            a, b = pairs[reason]
            trace.append(("conjugate", a, b, source, element))
    return KernelResult(monoid=m, kernel=kernel, trace=tuple(trace))


# ---------------------------------------------------------------------------
# canonical morphisms and kernels through closures

_LETTERS = "abcdefghijklmnopqrstuvwxyz0123456789"


MonoidMorphism = Morphism  # the old name, which the benchmark under perfbench/ calls


def canonical_monoid_morphism(m: FiniteSemigroup) -> Morphism:
    """One letter per non-identity generator of the greedy generating set."""
    if m.identity is None:
        raise KitError("codomain must be a monoid")
    gens = [g for g in _greedy_generators(m.table) if g != m.identity]
    if len(gens) > len(_LETTERS):
        raise KitError(f"{len(gens)} generators exceed the canonical letter supply")
    return Morphism(tuple(_LETTERS[: len(gens)]), m, tuple(gens))


def _morphism_onto(m: FiniteSemigroup, morphism: Optional[Morphism]) -> Morphism:
    """The given morphism, which must map onto m, or the canonical one."""
    if morphism is None:
        return canonical_monoid_morphism(m)
    if morphism.codomain is not m and morphism.codomain != m:
        raise KitError("morphism codomain differs from the given monoid")
    return morphism


def kernel_via_closure(m: FiniteSemigroup,
                       morphism: Optional[Morphism] = None) -> frozenset[int]:
    """Elements whose preimage language has the empty word in its closure."""
    eps = _morphism_onto(m, morphism).closure_graph.eps
    return frozenset([m.identity]) | {q for p, q in eps if p == m.identity}


# ---------------------------------------------------------------------------
# pointlike pairs of the two-vertex systems


def g_pointlike(m: FiniteSemigroup, subset: Iterable[int],
                morphism: Optional[Morphism] = None
                ) -> tuple[bool, Optional[GroupWord]]:
    """Do the closures of all preimages share a free-group element?"""
    elements = sorted(set(subset))
    if not elements:
        raise KitError("pointlike queries need a nonempty subset")
    for x in elements:
        m.check_element(x)
    graph = _morphism_onto(m, morphism).closure_graph
    witness = _intersection_witness(
        [ReducedWordMatcher(replace(graph, finals=frozenset([x]))) for x in elements])
    return witness is not None, witness


def inevitable_loop(m: FiniteSemigroup, y: int) -> bool:
    """One-vertex one-loop system xy = x, constrained to send y to `y`."""
    m.check_element(y)
    return y in kernel_g(m).kernel


def inevitable_two_vertex(m: FiniteSemigroup, x: int, targets: Iterable[int],
                          morphism: Optional[Morphism] = None) -> bool:
    """Two-vertex systems x*y_i = z with the x-constraint at the identity."""
    if m.identity is None or x != m.identity:
        raise KitError("only the identity constraint on x is supported")
    ok, _ = g_pointlike(m, targets, morphism)
    return ok


def malcev_membership(m: FiniteSemigroup, w: PseudovarietyDef) -> bool:
    """Membership in the Mal'cev product of w with the finite groups.

    Decided on the kernel: the monoid belongs iff its group kernel, as a
    semigroup in its own right, lies in w.
    """
    kernel = kernel_g(m).kernel
    return member(m.restrict(kernel), w)
