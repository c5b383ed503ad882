import math
import random

import pytest

from profinite_kit.errors import KitError, UnsupportedOrderError
from profinite_kit.kappa import lookup, member
from profinite_kit.metric import DEFAULT_MAX_ORDER, distance, separation_rank


def random_word(rng, max_len=5):
    return "".join(rng.choice("ab") for _ in range(rng.randint(1, max_len)))


class TestSeparationRank:
    def test_equal_words(self):
        result = separation_rank("ab", "ab", lookup("S"))
        assert result.rank is math.inf and result.witness is None

    def test_a_versus_aa(self):
        result = separation_rank("a", "aa", lookup("S"))
        assert result.rank == 2
        witness = result.witness
        assert witness.semigroup.order == 2
        assert member(witness.semigroup, lookup("S"))
        assert witness.image("a") != witness.image("aa")

    def test_commutative_images_never_separate(self):
        result = separation_rank("ab", "ba", lookup("Sl"), max_order=4)
        assert result.rank is None and result.max_order == 4

    def test_symmetry(self):
        rng = random.Random(2)
        for _ in range(50):
            u, v = random_word(rng), random_word(rng)
            assert separation_rank(u, v, lookup("S"), 3).rank == \
                separation_rank(v, u, lookup("S"), 3).rank

    def test_witness_replays(self):
        rng = random.Random(3)
        for name in ("S", "A", "G"):
            pv = lookup(name)
            for _ in range(30):
                u, v = random_word(rng), random_word(rng)
                result = separation_rank(u, v, pv, 3)
                if result.witness is not None:
                    w = result.witness
                    assert w.semigroup.order == result.rank
                    assert member(w.semigroup, pv)
                    assert w.image(u) != w.image(v)

    def test_monotone_in_pseudovariety(self):
        # containment between registered classes is itself established
        # empirically on the enumerated semigroups, then ranks must shrink
        # when the class grows
        from profinite_kit.semigroups import enumerate_semigroups

        names = ("S", "A", "G", "J", "Sl", "N", "CR")
        small = [s for n in (1, 2, 3) for s in enumerate_semigroups(n)]
        contained = [
            (inner, outer)
            for inner in names for outer in names
            if inner != outer and all(
                member(s, lookup(outer))
                for s in small if member(s, lookup(inner)))
        ]
        assert ("Sl", "A") in contained and ("G", "S") in contained
        rng = random.Random(4)
        words = [(random_word(rng), random_word(rng)) for _ in range(25)]
        for inner, outer in contained:
            for u, v in words:
                large_class = separation_rank(u, v, lookup(outer), 3)
                small_class = separation_rank(u, v, lookup(inner), 3)
                if large_class.rank is not None and small_class.rank is not None:
                    assert large_class.rank <= small_class.rank

    def test_empty_word_rejected(self):
        with pytest.raises(KitError):
            separation_rank("", "a", lookup("S"))

    @pytest.mark.parametrize("u, v, pv", [("aa", "aaa", "A"), ("ab", "ba", "G")])
    def test_max_order_past_enumeration_limit_rejected(self, u, v, pv):
        # rejected before the search, whether or not a small semigroup separates
        with pytest.raises(UnsupportedOrderError):
            separation_rank(u, v, lookup(pv), max_order=6)
        with pytest.raises(UnsupportedOrderError):
            distance(u, v, lookup(pv), max_order=5)


class TestDistance:
    def test_identical(self):
        assert distance("ab", "ab", lookup("S")).value == 0.0

    def test_exact(self):
        result = distance("a", "aa", lookup("S"))
        assert result.value == 0.25

    def test_interval_when_exhausted(self):
        result = distance("ab", "ba", lookup("Sl"), 4)
        assert result.value is None
        assert result.interval == (0.0, 2.0 ** -5)

    def test_default_max_order(self):
        assert distance("a", "aa", lookup("S")).rank.max_order == DEFAULT_MAX_ORDER

    def test_never_zero_for_distinct_words(self):
        rng = random.Random(5)
        for _ in range(40):
            u, v = random_word(rng), random_word(rng)
            if u == v:
                continue
            result = distance(u, v, lookup("Sl"), 3)
            if result.value is not None:
                assert result.value > 0.0
            else:
                low, high = result.interval
                assert low == 0.0 and high > 0.0


class TestUltrametric:
    def test_inequality_on_random_triples(self):
        rng = random.Random(6)
        checked = 0
        for _ in range(300):
            x, y, z = (random_word(rng) for _ in range(3))
            ranks = {
                pair: separation_rank(pair[0], pair[1], lookup("S"), 3)
                for pair in ((x, z), (x, y), (y, z))
            }
            if any(r.rank is None for r in ranks.values()):
                continue
            d = {pair: 0.0 if r.rank is math.inf else 2.0 ** -r.rank
                 for pair, r in ranks.items()}
            assert d[(x, z)] <= max(d[(x, y)], d[(y, z)]) + 1e-12
            checked += 1
        assert checked > 50
