"""Cayley-graph algorithms against the brute-force twins in tests/oracles.py.

Light's associativity test and Green's relations from strongly connected
components must give the verdicts and partitions of the O(n^3) definitions.
No oracle here runs above order 120.
"""

import random

import pytest

from conftest import regex_corpus
from oracles import associative_by_triples, components_by_reachability, green_by_ideals
from profinite_kit._graph import scc
from profinite_kit.languages import parse_regex, syntactic_semigroup
from profinite_kit.semigroups import (
    FiniteSemigroup,
    _greedy_generators,
    associative_tables,
    check_associativity,
    enumerate_semigroups,
    green_relations,
)

ANCHOR_113 = "(ab|ba)*(aa|b)*"
ORACLE_LIMIT = 120
CURATED = [(ANCHOR_113, "ab"), ("(ab|ba)*b(aa|b)*", "ab"), ("(aa|bab)*(ab)*", "ab"),
           ("(aab|ba)*", "ab"), ("(abc|ca|b)*", "abc"), ("(a|bc)*(cb|a)*", "abc")]


def _labelled_tables():
    for n in range(1, 5):
        yield from associative_tables(n)


@pytest.fixture(scope="module")
def syntactic_corpus():
    regexes = [(r, "ab") for r in regex_corpus(60)]
    regexes += [(r, "abc") for r in regex_corpus(30, seed=7, alphabet="abc")]
    regexes += [(parse_regex(text, letters), letters) for text, letters in CURATED]
    corpus = [syntactic_semigroup(r, letters).semigroup for r, letters in regexes]
    assert max(s.order for s in corpus) == 113 <= ORACLE_LIMIT
    return corpus


def _perturbed(rng, table):
    rows = [list(row) for row in table]
    n = len(rows)
    i, j = rng.randrange(n), rng.randrange(n)
    rows[i][j] = rng.choice([v for v in range(n) if v != rows[i][j]])
    return rows


class TestAssociativity:
    def test_labelled_tables_of_order_at_most_4(self):
        tables = list(_labelled_tables())
        assert len(tables) == 1 + 8 + 113 + 3492
        assert all(check_associativity(t) for t in tables)

    def test_random_tables(self):
        rng = random.Random(2024)
        verdicts = []
        for _ in range(3000):
            n = rng.randint(1, 6)
            rows = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
            verdict = check_associativity(rows)
            assert verdict == associative_by_triples(rows), rows
            verdicts.append(verdict)
        assert any(verdicts) and not all(verdicts)

    def test_single_entry_perturbations(self, syntactic_corpus):
        rng = random.Random(5)
        tables = [t for t in _labelled_tables() if len(t) > 1]
        tables += [s.table for s in syntactic_corpus if s.order > 1]
        verdicts = []
        for table in tables:
            rows = _perturbed(rng, table)
            verdict = check_associativity(rows)
            assert verdict == associative_by_triples(rows), rows
            verdicts.append(verdict)
        assert any(verdicts) and not all(verdicts)

    def test_syntactic_semigroups(self, syntactic_corpus):
        for s in syntactic_corpus:
            assert check_associativity(s.table) and associative_by_triples(s.table)


class TestGreen:
    def test_labelled_tables_of_order_at_most_4(self):
        for table in _labelled_tables():
            s = FiniteSemigroup.from_table(table)
            assert green_relations(s) == green_by_ideals(s), table

    def test_syntactic_semigroups(self, syntactic_corpus):
        for s in syntactic_corpus:
            assert green_relations(s) == green_by_ideals(s), s.order


class TestScc:
    def test_mutual_reachability_on_random_graphs(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(1, 25)
            density = rng.random() * 3 / n
            succ = [[w for w in range(n) if rng.random() < density] for _ in range(n)]
            comp = scc(n, succ.__getitem__)
            blocks = {}
            for v, c in enumerate(comp):
                blocks.setdefault(c, set()).add(v)
            assert sorted(blocks) == list(range(len(blocks)))
            assert {frozenset(b) for b in blocks.values()} == \
                components_by_reachability(n, succ.__getitem__)
            # reverse topological numbering: no edge climbs to a later component
            assert all(comp[w] <= comp[v] for v in range(n) for w in succ[v])

    def test_long_path_needs_no_recursion(self):
        n = 5000
        comp = scc(n, lambda v: (v + 1,) if v + 1 < n else (0,))
        assert set(comp) == {0}


class TestWork:
    def test_anchor_generators_are_the_letter_images(self):
        # a fallback to every element as a generator would make Light's test
        # and the Cayley graphs O(n^3) again
        result = syntactic_semigroup(parse_regex(ANCHOR_113, "ab"))
        gens = _greedy_generators(result.semigroup.table)
        assert result.semigroup.order == 113
        assert len(gens) <= len(result.morphism.alphabet) + 1
        assert set(result.morphism.letter_image) <= set(gens)


class TestEnumerationCache:
    def test_repeated_calls_give_equal_objects(self):
        for n in range(1, 5):
            for upto_iso in (True, False):
                first = list(enumerate_semigroups(n, upto_iso))
                assert first == list(enumerate_semigroups(n, upto_iso))

    def test_counts(self):
        assert [sum(1 for _ in enumerate_semigroups(n)) for n in range(1, 5)] == [1, 5, 24, 188]
        assert sum(1 for _ in enumerate_semigroups(4, upto_iso=False)) == 3492
