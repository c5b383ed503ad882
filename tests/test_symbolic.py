import itertools
import math
import random

import pytest

from conftest import words_upto
from oracles import is_primitive_by_definition
from profinite_kit.errors import KitError, NonPrimitiveError, NotASubshiftError
from profinite_kit.languages import Dfa, parse_regex, to_minimal_dfa
from profinite_kit.symbolic import (
    Substitution,
    entropy,
    factorial_trim,
    forbid_factor,
    is_irreducible,
    is_primitive,
    parse_substitution,
    substitution_blocks,
    wielandt_bound,
)

THUE_MORSE = parse_substitution("a->ab; b->ba")
GOLDEN_RATIO = (1 + math.sqrt(5)) / 2


def shift_of(text, alphabet="ab"):
    return factorial_trim(to_minimal_dfa(parse_regex(text, alphabet), alphabet))


# even shift: maximal b-runs strictly between two a's have even length
EVEN_SHIFT_DFA = Dfa(n_states=4, alphabet=("a", "b"),
                     transition=((1, 0), (1, 2), (3, 1), (3, 3)),
                     initial=0, finals=frozenset({0, 1, 2}))


class TestSubstitutions:
    def test_parse(self):
        assert THUE_MORSE.alphabet == ("a", "b")
        assert THUE_MORSE.image_of("a") == "ab"

    def test_parse_errors(self):
        for bad in ("a->", "->ab", "a->ab; a->ba", "a->xy"):
            with pytest.raises(KitError):
                parse_substitution(bad)

    def test_incidence_matrix(self):
        m = THUE_MORSE.incidence_matrix()
        assert m.tolist() == [[1, 1], [1, 1]]

    def test_thue_morse_primitive(self):
        assert is_primitive(THUE_MORSE)

    def test_identity_not_primitive(self):
        assert not is_primitive(parse_substitution("a->a; b->b"))

    def test_one_way_mixing_not_primitive(self):
        assert not is_primitive(parse_substitution("a->ab; b->b"))

    def test_definition_agreement_random(self):
        rng = random.Random(31)
        for _ in range(200):
            k = rng.randint(1, 3)
            alphabet = "abc"[:k]
            images = tuple(
                "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 3)))
                for _ in range(k)
            )
            sub = Substitution(alphabet=tuple(alphabet), images=images)
            assert is_primitive(sub) == is_primitive_by_definition(sub)

    def test_wielandt_bound(self):
        assert wielandt_bound(2) == 2
        assert wielandt_bound(3) == 5


class TestSubstitutionBlocks:
    def test_thue_morse_length_one(self):
        assert substitution_blocks(THUE_MORSE, 1) == frozenset("ab")

    def test_thue_morse_length_two(self):
        assert substitution_blocks(THUE_MORSE, 2) == frozenset(
            {"aa", "ab", "ba", "bb"})

    def test_thue_morse_length_three_excludes_cubes(self):
        blocks = substitution_blocks(THUE_MORSE, 3)
        assert blocks == frozenset({"aab", "abb", "aba", "bab", "baa", "bba"})

    def test_stabilisation_consistency(self):
        # blocks of the fixed point's long prefix agree with the computed set
        word = "a"
        for _ in range(8):
            word = THUE_MORSE.apply(word)
        expected = {word[i:i + 4] for i in range(len(word) - 3)}
        assert substitution_blocks(THUE_MORSE, 4) >= frozenset(expected)

    def test_requires_primitive(self):
        with pytest.raises(NonPrimitiveError):
            substitution_blocks(parse_substitution("a->ab; b->b"), 2)


class TestFactorialTrim:
    def test_full_shift_unchanged(self):
        shift = shift_of("(a|b)*")
        assert len(shift.nodes) == 1
        assert shift.blocks(2) == frozenset(words_upto("ab", 2, min_len=2))

    def test_golden_mean_two_states(self):
        shift = forbid_factor(shift_of("(a|b)*"), "bb")
        assert len(shift.nodes) == 2
        assert not shift.is_block("abba")
        assert shift.is_block("abab")

    def test_finite_language_error(self):
        with pytest.raises(NotASubshiftError):
            shift_of("ab|ba")

    def test_factorial_and_prolongable(self):
        for text in ("(a|b)*", "(a|~)(ba)*(b|~)", "a*|b*"):
            shift = shift_of(text)
            for n in (1, 2, 3):
                for block in shift.blocks(n):
                    for i in range(len(block)):
                        for j in range(i + 1, len(block) + 1):
                            assert shift.is_block(block[i:j])
                    assert any(
                        shift.is_block(x + block + y)
                        for x in shift.alphabet for y in shift.alphabet
                    )

    def test_block_count_matches_enumeration(self):
        shift = forbid_factor(shift_of("(a|b)*"), "bb")
        for n in (1, 2, 3, 6):
            assert shift.block_count(n) == len(shift.blocks(n))


class TestIrreducibility:
    def test_full_shift(self):
        assert is_irreducible(shift_of("(a|b)*"))

    def test_golden_mean(self):
        assert is_irreducible(forbid_factor(shift_of("(a|b)*"), "bb"))

    def test_disjoint_union_reducible(self):
        assert not is_irreducible(shift_of("a*|b*"))

    def test_even_shift_with_transient_state(self):
        assert is_irreducible(factorial_trim(EVEN_SHIFT_DFA))

    def test_matches_definition_by_sampling(self):
        shifts = [
            shift_of("(a|b)*"),
            forbid_factor(shift_of("(a|b)*"), "bb"),
            shift_of("a*|b*"),
            factorial_trim(EVEN_SHIFT_DFA),
            shift_of("(a|~)(ba)*(b|~)"),
        ]
        for shift in shifts:
            blocks = set()
            for n in (1, 2, 3, 4):
                blocks |= shift.blocks(n)
            expected = is_irreducible(shift)
            fillers = ["".join(t) for L in range(0, 9)
                       for t in itertools.product(shift.alphabet, repeat=L)]
            actual = all(
                any(shift.is_block(u + w + v) for w in fillers)
                for u in blocks for v in blocks
            )
            assert actual == expected


class TestEntropy:
    def test_full_shift(self):
        assert abs(entropy(shift_of("(a|b)*")) - 1.0) < 1e-9

    def test_golden_mean(self):
        shift = forbid_factor(shift_of("(a|b)*"), "bb")
        assert abs(entropy(shift) - math.log2(GOLDEN_RATIO)) < 1e-6

    def test_periodic_orbit(self):
        assert abs(entropy(shift_of("(a|~)(ba)*(b|~)"))) < 1e-9

    def test_bounded_by_alphabet(self):
        for text in ("(a|b)*", "a*|b*", "(a|~)(ba)*(b|~)"):
            h = entropy(shift_of(text))
            assert -1e-12 <= h <= 1.0 + 1e-12

    def test_block_count_convergence(self):
        shift = forbid_factor(shift_of("(a|b)*"), "bb")
        h = entropy(shift)
        errors = [abs(math.log2(shift.block_count(n)) / n - h) for n in (10, 20, 40)]
        assert errors[0] > errors[1] > errors[2]

    def test_proper_subshift_strictly_smaller(self):
        base = shift_of("(a|b)*")
        golden = forbid_factor(base, "bb")
        cases = 0
        for parent, factor in [
            (base, "aa"), (base, "ab"), (base, "ba"), (base, "bb"),
            (base, "aab"), (base, "abb"), (base, "bab"), (base, "aba"),
            (base, "a"), (base, "b"),
            (golden, "aa"), (golden, "ab"), (golden, "ba"),
            (golden, "aab"), (golden, "aba"), (golden, "baa"),
            (golden, "aaa"), (golden, "abab"), (golden, "baab"), (golden, "aaab"),
        ]:
            assert parent.is_block(factor)
            try:
                child = forbid_factor(parent, factor)
            except NotASubshiftError:
                cases += 1  # emptied out entirely: still a strict decrease
                continue
            assert entropy(child) < entropy(parent) - 1e-12
            cases += 1
        assert cases == 20


class TestBlockContainment:
    def test_subset_iff_sampled_blocks(self):
        base = shift_of("(a|b)*")
        golden = forbid_factor(base, "bb")
        orbit = shift_of("(a|~)(ba)*(b|~)")
        pairs = [(golden, base, True), (orbit, golden, True),
                 (base, golden, False), (golden, orbit, False)]
        for inner, outer, expected in pairs:
            sampled = all(
                outer.is_block(block)
                for n in (1, 2, 3, 4, 5, 6)
                for block in inner.blocks(n)
            )
            assert sampled == expected
