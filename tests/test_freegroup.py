import random

import pytest

from conftest import (
    random_group_automaton,
    random_group_word,
    reduced_words_upto,
    subgroup_ball,
)
from oracles import (
    automaton_concat,
    automaton_invert,
    automaton_star,
    automaton_union,
    rational_membership,
    reduced_words_of,
    word_automaton,
)
from profinite_kit.errors import FoldingError, WordDomainError
from profinite_kit.freegroup import (
    GroupAutomaton,
    ReducedWordMatcher,
    _eps_closure_map,
    benois_saturate,
    format_group_word,
    generated_subgroup,
    invert_word,
    parse_group_word,
    positive_word,
    rational_intersection_witness,
    reduce_word,
    stallings_graph,
    subgroup_contains,
)


class TestReduction:
    def test_inverse_pair(self):
        assert reduce_word([("a", 1), ("a", -1)]) == ()

    def test_inner_cancellation(self):
        assert reduce_word(parse_group_word("abb'a")) == positive_word("aa")

    def test_cascading(self):
        assert format_group_word(parse_group_word("ba'ab'a")) == "a"

    def test_confluence_random(self):
        rng = random.Random(3)
        for _ in range(200):
            w = [(rng.choice("ab"), rng.choice((1, -1))) for _ in range(rng.randint(0, 10))]
            reduced = reduce_word(w)
            assert reduce_word(reduced) == reduced
            # splitting arbitrarily and reducing pieces first must agree
            cut = rng.randint(0, len(w))
            again = reduce_word(tuple(reduce_word(w[:cut])) + tuple(reduce_word(w[cut:])))
            assert again == reduced

    def test_word_syntax_round_trip(self):
        for text in ("~", "a", "ab'a", "a'b'"):
            assert format_group_word(parse_group_word(text)) == text


class TestStallings:
    def test_trivial_subgroup(self):
        g = stallings_graph([], "ab")
        assert g.n_states == 1
        assert subgroup_contains(g, ())
        assert not subgroup_contains(g, positive_word("a"))

    def test_single_generator(self):
        g = stallings_graph([positive_word("a")], "ab")
        assert subgroup_contains(g, positive_word("aaaaa"))
        assert not subgroup_contains(g, positive_word("b"))

    def test_a2_ab(self):
        # frozen via the brute-force ball
        g = stallings_graph([positive_word("aa"), positive_word("ab")], "ab")
        ball = subgroup_ball([positive_word("aa"), positive_word("ab")], 8)
        for text, expected in (
            ("aba'", False), ("b", False), ("a", False),
            ("ab", True), ("aa", True), ("b'a", True),
        ):
            w = parse_group_word(text)
            assert subgroup_contains(g, w) == expected
            assert (w in ball) == expected

    def test_contains_needs_folded(self):
        raw = word_automaton(positive_word("a"), "ab")
        with pytest.raises(FoldingError):
            subgroup_contains(raw, positive_word("a"))

    def test_ball_agreement_random(self):
        rng = random.Random(7)
        for trial in range(50):
            letters = "ab" if trial % 2 == 0 else "abc"
            gens = [random_group_word(rng, letters, 3, min_len=1)
                    for _ in range(rng.randint(1, 3 if letters == "ab" else 2))]
            g = stallings_graph(gens, letters)
            ball = subgroup_ball(gens, 8)
            for w in ball:
                assert subgroup_contains(g, w)
            for _ in range(60):
                w = random_group_word(rng, letters, 5)
                assert subgroup_contains(g, w) == (w in ball)


class TestSaturation:
    def test_cancelling_word_accepts_epsilon(self):
        m = word_automaton((("a", 1), ("a", -1)), "ab")
        assert rational_membership(m, ())

    def test_star_with_cancellation(self):
        inner = word_automaton((("a", 1), ("b", 1), ("b", -1)), "ab")
        m = automaton_concat(automaton_star(inner), word_automaton(positive_word("a"), "ab"))
        assert rational_membership(m, positive_word("a"))
        assert rational_membership(m, positive_word("aa"))
        assert not rational_membership(m, positive_word("b"))

    def test_idempotent(self):
        m = benois_saturate(word_automaton(parse_group_word("aa'bb'"), "ab"))
        assert benois_saturate(m).eps == m.eps

    def test_membership_requires_reduced(self):
        m = word_automaton(positive_word("a"), "ab")
        with pytest.raises(WordDomainError):
            rational_membership(m, (("a", 1), ("a", -1)))

    def test_direct_closures_match_walk(self):
        # saturated epsilon edges are transitively closed, so one hop suffices
        rng = random.Random(1001)
        chained = 0
        for _ in range(300):
            m = benois_saturate(random_group_automaton(rng, max_states=5, max_edges=8))
            walked = _eps_closure_map(m)
            assert ReducedWordMatcher(m)._closure == walked, (m.edges, m.eps)
            chained += any(len(states) > 2 for states in walked)
        assert chained > 10

    def test_oracle_agreement_random(self):
        rng = random.Random(1000)
        words = reduced_words_upto("ab", 3)
        for _ in range(50):
            m = random_group_automaton(rng)
            oracle = reduced_words_of(m, 10)
            matcher = ReducedWordMatcher(m)
            for w in words:
                assert matcher.accepts(w) == (w in oracle), (m.edges, w)


class TestRationalOps:
    def test_generated_subgroup_of_letter(self):
        g = generated_subgroup(word_automaton(positive_word("a"), "ab"))
        for k in (1, 2, 5):
            assert subgroup_contains(g, positive_word("a" * k))
            assert subgroup_contains(g, invert_word(positive_word("a" * k)))
        assert not subgroup_contains(g, positive_word("b"))

    def test_generated_subgroup_of_ab(self):
        g = generated_subgroup(word_automaton(positive_word("ab"), "ab"))
        assert subgroup_contains(g, invert_word(positive_word("abab")))
        assert not subgroup_contains(g, positive_word("a"))

    def test_invert_involution(self):
        rng = random.Random(17)
        words = reduced_words_upto("ab", 3)
        for _ in range(20):
            m = random_group_automaton(rng)
            twice = automaton_invert(automaton_invert(m))
            first = ReducedWordMatcher(m)
            second = ReducedWordMatcher(twice)
            for w in words:
                assert first.accepts(w) == second.accepts(w)

    def test_invert_reverses(self):
        m = word_automaton(positive_word("ab"), "ab")
        assert rational_membership(automaton_invert(m), parse_group_word("b'a'"))

    def test_generated_subgroup_matches_stallings_on_words(self):
        rng = random.Random(23)
        for _ in range(50):
            w = random_group_word(rng, "ab", 6, min_len=1)
            if not w:
                continue
            direct = stallings_graph([w], "ab")
            via_rational = generated_subgroup(word_automaton(w, "ab"))
            for t in reduced_words_upto("ab", 6)[::7]:
                assert subgroup_contains(direct, t) == subgroup_contains(via_rational, t)

    def test_generated_subgroup_matches_star_union_composition(self):
        rng = random.Random(29)
        for _ in range(15):
            m = random_group_automaton(rng, max_states=3, max_edges=4)
            folded = generated_subgroup(m)
            composed = benois_saturate(
                automaton_star(automaton_union(m, automaton_invert(m))))
            matcher = ReducedWordMatcher(composed)
            for t in reduced_words_upto("ab", 4):
                assert subgroup_contains(folded, t) == matcher.accepts(t)


class TestIntersections:
    def test_subgroups_share_identity(self):
        a = stallings_graph([positive_word("a")], "ab")
        b = stallings_graph([positive_word("b")], "ab")
        assert rational_intersection_witness([a, b]) == ()

    def test_disjoint_singletons(self):
        a = word_automaton(positive_word("a"), "ab")
        b = word_automaton(positive_word("b"), "ab")
        assert rational_intersection_witness([a, b]) is None

    def test_subgroup_meets_finite_set(self):
        sub = stallings_graph([positive_word("aa")], "a")
        finite = automaton_union(word_automaton(positive_word("aaa"), "a"),
                                 word_automaton(positive_word("aaaa"), "a"))
        assert rational_intersection_witness([sub, finite]) == positive_word("aaaa")

    def test_witness_is_shortest_lexicographic(self):
        # both subgroups contain b and ab'-style words; shortest wins, then lex
        m1 = stallings_graph([positive_word("a"), positive_word("b")], "ab")
        m2 = stallings_graph([positive_word("b"), parse_group_word("aa")], "ab")
        witness = rational_intersection_witness([m1, m2])
        assert witness == ()
        m3 = word_automaton(positive_word("b"), "ab")
        m4 = automaton_union(word_automaton(positive_word("b"), "ab"),
                             word_automaton(positive_word("a"), "ab"))
        assert rational_intersection_witness([m3, m4]) == positive_word("b")

    def test_three_way(self):
        all_even = stallings_graph([positive_word("aa")], "a")
        all_pow = stallings_graph([positive_word("a")], "a")
        finite = word_automaton(positive_word("aaaa"), "a")
        assert rational_intersection_witness(
            [all_even, all_pow, finite]) == positive_word("aaaa")


class TestSubgroupProducts:
    def test_membership_in_literal_star_union(self):
        # the cyclic subgroup written out as (a|a')*
        m = automaton_star(automaton_union(
            word_automaton(positive_word("a"), "ab"),
            word_automaton(parse_group_word("a'"), "ab")))
        assert rational_membership(m, invert_word(positive_word("aaa")))
        assert not rational_membership(m, positive_word("b"))

    def test_product_of_subgroups_matches_brute_force(self):
        # concatenating folded subgroup graphs realizes the product set;
        # checked against pairwise products of the brute-force balls
        gens1 = [positive_word("ab")]
        gens2 = [positive_word("ba"), positive_word("aa")]
        product = automaton_concat(stallings_graph(gens1, "ab"),
                                   stallings_graph(gens2, "ab"))
        matcher = ReducedWordMatcher(product)
        ball1 = subgroup_ball(gens1, 6)
        ball2 = subgroup_ball(gens2, 6)
        products = {reduce_word(u + v) for u in ball1 for v in ball2}
        for w in reduced_words_upto("ab", 4):
            if w in products:
                assert matcher.accepts(w)
            elif matcher.accepts(w):
                # a positive answer must come from some genuine factorization,
                # possibly with factors beyond the sampled balls
                big1 = subgroup_ball(gens1, 10)
                big2 = subgroup_ball(gens2, 10)
                assert any(reduce_word(u + w2) == w
                           for u in big1 for w2 in big2)
