"""Slow, plainly correct twins of the library's fast algorithms.

Each oracle follows its definition directly, so the differential tests can
compare the Cayley-graph code against it.  The table oracles cost O(n^3)
on an n-element table; keep their inputs at order 120 or below.  The
closure oracle builds pro-group closures along the regular expression
tree (letters, unions, concatenations and generated subgroups), not from
an automaton, and the kernel and pointlike oracles use it once per element
on the regular expression of its preimage.  The free-group helpers at the
end (star, inversion, brute-force reduced words) and the primitivity
check by iteration exist only for the tests.
"""

from profinite_kit import languages
from profinite_kit._graph import explore, reachable
from profinite_kit.closure import canonical_monoid_morphism
from profinite_kit.errors import KitError, WordDomainError
from profinite_kit.freegroup import (
    EPSILON_WORD,
    GroupAutomaton,
    GroupWord,
    ReducedWordMatcher,
    _eliminate_epsilon,
    _indexes,
    _intersection_witness,
    empty_automaton,
    format_group_word,
    generated_subgroup,
    inverse_letter,
    positive_word,
    reduce_word,
    subgroup_contains,
    trim,
)
from profinite_kit.languages import Dfa, minimize_dfa
from profinite_kit.semigroups import GreenData, _partition_from_keys, monoid_of
from profinite_kit.symbolic import Substitution, wielandt_bound


def associative_by_triples(rows):
    """(a*b)*c == a*(b*c) for every triple of a square in-range table."""
    rng = range(len(rows))
    for a in rng:
        ta = rows[a]
        for b in rng:
            tab = rows[ta[b]]
            tb = rows[b]
            for c in rng:
                if tab[c] != ta[tb[c]]:
                    return False
    return True


def green_by_ideals(s):
    """Green's relations from the principal right, left and two-sided ideals of S^1."""
    m = monoid_of(s)
    n = s.order
    rng1 = range(m.order)
    right = [frozenset(m.table[x][y] for y in rng1) for x in range(n)]
    left = [frozenset(m.table[y][x] for y in rng1) for x in range(n)]
    two = [frozenset(m.table[m.table[y][x]][z] for y in rng1 for z in rng1)
           for x in range(n)]
    j_classes = _partition_from_keys(two)
    order = frozenset(
        (i, j)
        for i, ci in enumerate(j_classes)
        for j, cj in enumerate(j_classes)
        if two[ci[0]] <= two[cj[0]])
    return GreenData(
        r_classes=_partition_from_keys(right),
        l_classes=_partition_from_keys(left),
        j_classes=j_classes,
        h_classes=_partition_from_keys(list(zip(right, left))),
        j_order=order,
    )


def components_by_reachability(n, successors):
    """Strongly connected components as a set of frozensets, by mutual reachability."""
    reach = [reachable([v], successors) for v in range(n)]
    return {frozenset(w for w in reach[v] if v in reach[w]) for v in range(n)}


def word_automaton(w: GroupWord, alphabet) -> GroupAutomaton:
    edges = frozenset((i, x, i + 1) for i, x in enumerate(w))
    return GroupAutomaton(
        alphabet=tuple(sorted(set(alphabet) | {ch for ch, _ in w})),
        n_states=len(w) + 1,
        edges=edges,
        initials=frozenset([0]),
        finals=frozenset([len(w)]),
        saturated=reduce_word(w) == tuple(w),  # no cancellation on a reduced path
    )


def epsilon_automaton(alphabet) -> GroupAutomaton:
    return GroupAutomaton(
        alphabet=tuple(sorted(alphabet)), n_states=1, edges=frozenset(),
        initials=frozenset([0]), finals=frozenset([0]), saturated=True)


def _shift(m: GroupAutomaton, offset: int):
    edges = {(p + offset, x, q + offset) for p, x, q in m.edges}
    eps = {(p + offset, q + offset) for p, q in m.eps}
    initials = {p + offset for p in m.initials}
    finals = {p + offset for p in m.finals}
    return edges, eps, initials, finals


def automaton_union(m1: GroupAutomaton, m2: GroupAutomaton) -> GroupAutomaton:
    e1, eps1, i1, f1 = _shift(m1, 0)
    e2, eps2, i2, f2 = _shift(m2, m1.n_states)
    return GroupAutomaton(
        alphabet=tuple(sorted(set(m1.alphabet) | set(m2.alphabet))),
        n_states=m1.n_states + m2.n_states,
        edges=frozenset(e1 | e2),
        eps=frozenset(eps1 | eps2),
        initials=frozenset(i1 | i2),
        finals=frozenset(f1 | f2),
    )


def automaton_concat(m1: GroupAutomaton, m2: GroupAutomaton) -> GroupAutomaton:
    e1, eps1, i1, f1 = _shift(m1, 0)
    e2, eps2, i2, f2 = _shift(m2, m1.n_states)
    bridge = {(p, q) for p in f1 for q in i2}
    return GroupAutomaton(
        alphabet=tuple(sorted(set(m1.alphabet) | set(m2.alphabet))),
        n_states=m1.n_states + m2.n_states,
        edges=frozenset(e1 | e2),
        eps=frozenset(eps1 | eps2 | bridge),
        initials=frozenset(i1),
        finals=frozenset(f2),
    )


def closure_automaton(r, alphabet) -> GroupAutomaton:
    """Pro-group closure of a regex along its tree (Pin and Reutenauer).

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


def closure_matcher(r, alphabet) -> ReducedWordMatcher:
    """Membership in the regex-tree closure, the twin of `pro_g_closure`."""
    return ReducedWordMatcher(trim(closure_automaton(r, alphabet)))


def kernel_by_preimage_closures(m, morphism=None):
    """Elements whose preimage regex has the empty word in its pro-group closure."""
    morphism = morphism or canonical_monoid_morphism(m)
    return frozenset(
        x for x in range(m.order)
        if closure_matcher(morphism.preimage_regex(x), morphism.alphabet).accepts(EPSILON_WORD))


def pointlike_by_preimage_closures(m, subset, morphism=None):
    """(pointlike, witness) from one closure automaton per preimage regex."""
    morphism = morphism or canonical_monoid_morphism(m)
    matchers = [closure_matcher(morphism.preimage_regex(x), morphism.alphabet)
                for x in sorted(set(subset))]
    witness = _intersection_witness(matchers)
    return witness is not None, witness


def positive_part_dfa(result):
    """Deterministic automaton of clos(L) intersected with A*.

    Materializes what `contains_word` answers lazily; used to feed the
    closure construction with its own output when testing idempotence.
    """
    matcher = result._matcher
    letters = [(ch, 1) for ch in result.alphabet]
    order, rows = explore(
        matcher.start, lambda states: [matcher.step(states, x) for x in letters])
    finals = frozenset(
        i for i, states in enumerate(order) if states & result.automaton.finals)
    dfa = Dfa(n_states=len(order), alphabet=result.alphabet,
              transition=tuple(rows), initial=0, finals=finals)
    return minimize_dfa(dfa)


def automaton_star(m: GroupAutomaton) -> GroupAutomaton:
    hub = m.n_states
    eps = set(m.eps)
    eps.update((hub, p) for p in m.initials)
    eps.update((p, hub) for p in m.finals)
    return GroupAutomaton(
        alphabet=m.alphabet,
        n_states=m.n_states + 1,
        edges=m.edges,
        eps=frozenset(eps),
        initials=frozenset([hub]),
        finals=frozenset([hub]),
    )


def automaton_invert(m: GroupAutomaton) -> GroupAutomaton:
    """Accepts exactly the inverses of the words m accepts."""
    return GroupAutomaton(
        alphabet=m.alphabet,
        n_states=m.n_states,
        edges=frozenset((q, inverse_letter(x), p) for p, x, q in m.edges),
        eps=frozenset((q, p) for p, q in m.eps),
        initials=m.finals,
        finals=m.initials,
        saturated=m.saturated,  # the cancellation rule is reversal-symmetric
    )


def rational_membership(m: GroupAutomaton, w: GroupWord) -> bool:
    """Does the reduced word w lie in the set of reduced accepted words?"""
    if reduce_word(w) != w:
        raise WordDomainError(f"word {format_group_word(w)} is not reduced")
    if m.folded:
        return subgroup_contains(m, w)
    return ReducedWordMatcher(m).accepts(w)


def reduced_words_of(m: GroupAutomaton, max_len: int,
                     cap: int = 500000) -> set[GroupWord]:
    """Brute-force oracle: reductions of accepted words of length <= max_len.

    Walks (state, reduced-word-so-far) pairs breadth first; a pair seen at
    an earlier level dominates later occurrences, so pairs deduplicate
    globally and the walk stays polynomial in the output size.
    """
    m = _eliminate_epsilon(trim(m))
    fwd, _ = _indexes(m)
    out: set[GroupWord] = set()
    frontier: set[tuple[int, GroupWord]] = {(p, EPSILON_WORD) for p in m.initials}
    seen = set(frontier)
    for _ in range(max_len + 1):
        nxt: set[tuple[int, GroupWord]] = set()
        for state, word in frontier:
            if state in m.finals:
                out.add(word)
            for x, table in fwd.items():
                for q in table.get(state, ()):
                    if word and word[-1] == inverse_letter(x):
                        extended = word[:-1]
                    else:
                        extended = word + (x,)
                    pair = (q, extended)
                    if pair not in seen:
                        seen.add(pair)
                        nxt.add(pair)
                        if len(seen) > cap:
                            raise KitError("word enumeration blew past the cap")
        frontier = nxt
    return out


def is_primitive_by_definition(s: Substitution) -> bool:
    """Direct check that some iterate writes every letter into every image."""
    k = len(s.alphabet)
    one_step = [frozenset(img) for img in s.images]
    occurs = list(one_step)
    for _ in range(wielandt_bound(k) - 1):
        if all(len(o) == k for o in occurs):
            return True
        occurs = [
            frozenset(ch for b in occ for ch in one_step[s.alphabet.index(b)])
            for occ in occurs
        ]
    return all(len(o) == k for o in occurs)
