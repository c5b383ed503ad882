import random

import pytest

from conftest import random_regex, regex_corpus, words_upto
from profinite_kit.closure import canonical_monoid_morphism
from profinite_kit.errors import KitError, RegexSyntaxError, WordDomainError
from profinite_kit.languages import (
    Concat,
    Letter,
    Morphism,
    Plus,
    Star,
    Union,
    dfa_to_regex,
    parse_regex,
    recognizes,
    regex_to_str,
    syntactic_semigroup,
    to_minimal_dfa,
    transition_semigroup,
    _determinize,
    _nfa_of_regex,
)
from profinite_kit.semigroups import FiniteSemigroup, structural_predicates


class TestParser:
    def test_plus_of_concat(self):
        assert parse_regex("(ab)+", "ab") == Plus(Concat(Letter("a"), Letter("b")))

    def test_precedence(self):
        assert parse_regex("a|b*", "ab") == Union(Letter("a"), Star(Letter("b")))

    def test_unbalanced(self):
        with pytest.raises(RegexSyntaxError) as err:
            parse_regex("((", "ab")
        assert err.value.position == 2

    def test_foreign_letter(self):
        with pytest.raises(RegexSyntaxError):
            parse_regex("ac", "ab")

    def test_whitespace_ignored(self):
        assert parse_regex(" a |b ", "ab") == parse_regex("a|b", "ab")

    def test_printer_round_trip(self):
        # association of printed concatenations is lost, so demand a printed
        # fixed point plus identical languages
        rng = random.Random(99)
        for i in range(200):
            r = random_regex(rng, rng.randint(1, 8))
            printed = regex_to_str(r)
            reparsed = parse_regex(printed, "ab")
            assert regex_to_str(reparsed) == printed
            if i < 40:
                first = to_minimal_dfa(r, "ab")
                second = to_minimal_dfa(reparsed, "ab")
                assert all(first.accepts(w) == second.accepts(w)
                           for w in words_upto("ab", 5))


def _nerode_classes(accepts, alphabet, word_len, suffix_len):
    words = list(words_upto(alphabet, word_len))
    suffixes = list(words_upto(alphabet, suffix_len))
    signatures = {}
    for w in words:
        signatures.setdefault(tuple(accepts(w + s) for s in suffixes), []).append(w)
    return signatures


class TestMinimalDfa:
    def test_a_plus_single_letter(self):
        # Myhill-Nerode on words up to length 4 gives two classes
        dfa = to_minimal_dfa(parse_regex("a+", "a"))
        assert dfa.n_states == 2
        assert len(_nerode_classes(dfa.accepts, "a", 4, 4)) == 2

    def test_ab_star(self):
        # brute-force Nerode count: eps-class, a-class and the dead class
        dfa = to_minimal_dfa(parse_regex("(ab)*", "ab"))
        assert dfa.n_states == 3
        assert len(_nerode_classes(dfa.accepts, "ab", 4, 4)) == 3

    def test_empty_language(self):
        dfa = to_minimal_dfa(parse_regex("#", "ab"))
        assert dfa.n_states == 1 and not dfa.finals

    def test_minimization_idempotent(self):
        rng = random.Random(4)
        from profinite_kit.languages import minimize_dfa

        for _ in range(50):
            dfa = to_minimal_dfa(random_regex(rng, rng.randint(1, 8)), "ab")
            again = minimize_dfa(dfa)
            assert again.n_states == dfa.n_states

    def test_state_count_matches_nerode_on_corpus(self):
        rng = random.Random(5)
        for _ in range(30):
            r = random_regex(rng, rng.randint(1, 6))
            dfa = to_minimal_dfa(r, "ab")
            classes = _nerode_classes(dfa.accepts, "ab", 3, 5)
            # words up to length 3 may miss states, never exceed them
            assert len(classes) <= dfa.n_states


class TestSyntacticSemigroup:
    def test_full_positive_language_trivial(self):
        assert syntactic_semigroup(parse_regex("(a|b)+", "ab")).semigroup.order == 1

    def test_ab_star_is_six_element_monoid(self):
        result = syntactic_semigroup(parse_regex("(ab)*", "ab"))
        assert result.semigroup.order == 6
        assert result.accepts_empty
        assert result.semigroup.identity is not None
        profile = structural_predicates(result.semigroup)
        assert profile.is_aperiodic and not profile.is_j_trivial

    def test_a_plus_trivial(self):
        assert syntactic_semigroup(parse_regex("a+", "a")).semigroup.order == 1

    def test_finite_language_has_zero(self):
        result = syntactic_semigroup(parse_regex("ab|ba", "ab"))
        s = result.semigroup
        zeros = [z for z in range(s.order)
                 if all(s.table[z][x] == z == s.table[x][z] for x in range(s.order))]
        assert len(zeros) == 1


class TestRecognizes:
    def test_accept_everything(self):
        result = syntactic_semigroup(parse_regex("(ab)+", "ab"))
        full = frozenset(range(result.semigroup.order))
        assert recognizes(result.morphism, full, "bbab")

    def test_ab_plus(self):
        result = syntactic_semigroup(parse_regex("(ab)+", "ab"))
        assert recognizes(result.morphism, result.accept, "ab")
        assert not recognizes(result.morphism, result.accept, "ba")

    def test_foreign_letter(self):
        result = syntactic_semigroup(parse_regex("(ab)+", "ab"))
        with pytest.raises(WordDomainError):
            recognizes(result.morphism, result.accept, "abc")

    def test_empty_word_rejected(self):
        result = syntactic_semigroup(parse_regex("(ab)+", "ab"))
        with pytest.raises(WordDomainError):
            result.morphism.image_of_word("")

    def test_morphism_multiplicative(self):
        result = syntactic_semigroup(parse_regex("(ab)*", "ab"))
        m = result.morphism
        for u in words_upto("ab", 3, min_len=1):
            for v in words_upto("ab", 3, min_len=1):
                assert m.image_of_word(u + v) == \
                    m.codomain.table[m.image_of_word(u)][m.image_of_word(v)]


class TestMorphism:
    def test_image_is_product_of_letter_images(self):
        # and equals the walk over the Cayley rows that the A* automata use
        for r in regex_corpus(40, seed=59):
            m = syntactic_semigroup(r, "ab").morphism
            for w in words_upto("ab", 4, min_len=1):
                image = m.image_of_word(w)
                assert image == m.codomain.product(
                    m.letter_image[m.alphabet.index(ch)] for ch in w)
                walk = m.letter_image[m.alphabet.index(w[0])]
                for ch in w[1:]:
                    walk = m.rows[walk][m.alphabet.index(ch)]
                assert image == walk

    def test_empty_word_outside_a_plus_even_with_identity(self):
        # the syntactic semigroup of (aa)+ is C2 with identity [aa] and accept
        # set {identity}, yet the language misses the empty word
        result = syntactic_semigroup(parse_regex("(aa)+", "a"))
        assert result.semigroup.order == 2 and not result.accepts_empty
        assert result.accept == {result.semigroup.identity}
        with pytest.raises(WordDomainError):
            recognizes(result.morphism, result.accept, "")

    def test_one_image_per_letter(self):
        c2 = FiniteSemigroup.from_table([[0, 1], [1, 0]])
        with pytest.raises(KitError, match="one image per letter"):
            Morphism(("a", "b"), c2, (1,))

    def test_a_star_operations_need_a_monoid(self):
        left_zero = FiniteSemigroup.from_table([[0, 0], [1, 1]])
        morphism = Morphism(("a", "b"), left_zero, (0, 1))
        assert morphism.image_of_word("ab") == 0
        with pytest.raises(KitError, match="monoid"):
            morphism.closure_graph
        with pytest.raises(KitError, match="monoid"):
            morphism.preimage_dfa(0)
        with pytest.raises(KitError, match="monoid"):
            canonical_monoid_morphism(left_zero)


class TestSyntacticProperties:
    def test_recognition_matches_dfa_on_corpus(self):
        rng = random.Random(11)
        count = 0
        while count < 100:
            r = random_regex(rng, rng.randint(1, 8))
            result = syntactic_semigroup(r, "ab")
            for w in words_upto("ab", 6):
                expected = result.dfa.accepts(w)
                if w == "":
                    assert result.accepts_empty == expected
                else:
                    assert recognizes(result.morphism, result.accept, w) == expected
            count += 1

    def test_syntactic_divides_unminimized_transition_semigroup(self):
        rng = random.Random(12)
        for _ in range(40):
            r = random_regex(rng, rng.randint(1, 8))
            result = syntactic_semigroup(r, "ab")
            nfa = _nfa_of_regex(r, ("a", "b"))
            unminimized = _determinize(*nfa, ("a", "b"))
            # same identity convention on both sides of the size comparison
            big, _, _ = transition_semigroup(
                unminimized, include_identity=result.accepts_empty)
            assert result.semigroup.order <= big.order


class TestDfaToRegex:
    def test_round_trips_language(self):
        rng = random.Random(13)
        for _ in range(40):
            r = random_regex(rng, rng.randint(1, 8))
            dfa = to_minimal_dfa(r, "ab")
            back = to_minimal_dfa(dfa_to_regex(dfa), "ab")
            for w in words_upto("ab", 6):
                assert dfa.accepts(w) == back.accepts(w)
