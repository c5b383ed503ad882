"""Slow, plainly correct twins of the library's fast algorithms.

Each oracle follows its definition directly, so the differential tests can
compare the Cayley-graph code against it.  The table oracles cost O(n^3)
on an n-element table; keep their inputs at order 120 or below.  The
closure oracles build one pro-group closure per element, from the regular
expression of its preimage.
"""

from profinite_kit._graph import explore, reachable
from profinite_kit.closure import canonical_monoid_morphism, pro_g_closure
from profinite_kit.freegroup import EPSILON_WORD, _intersection_witness
from profinite_kit.languages import Dfa, minimize_dfa
from profinite_kit.semigroups import GreenData, _partition_from_keys, monoid_of


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


def kernel_by_preimage_closures(m, morphism=None):
    """Elements whose preimage regex has the empty word in its pro-group closure."""
    morphism = morphism or canonical_monoid_morphism(m)
    return frozenset(
        x for x in range(m.order)
        if pro_g_closure(morphism.preimage_regex(x), morphism.alphabet).contains(EPSILON_WORD))


def pointlike_by_preimage_closures(m, subset, morphism=None):
    """(pointlike, witness) from one closure automaton per preimage regex."""
    morphism = morphism or canonical_monoid_morphism(m)
    matchers = [pro_g_closure(morphism.preimage_regex(x), morphism.alphabet)._matcher
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
