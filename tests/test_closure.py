import itertools
import json
import random

import pytest

from conftest import regex_corpus, words_upto
from oracles import (
    kernel_by_preimage_closures,
    pointlike_by_preimage_closures,
    positive_part_dfa,
)
from profinite_kit.cli import main
from profinite_kit.errors import KitError
from profinite_kit.closure import (
    canonical_monoid_morphism,
    g_pointlike,
    inevitable_loop,
    inevitable_two_vertex,
    kernel_g,
    kernel_via_closure,
    malcev_membership,
    pro_g_closure,
    separable_by_group_language,
    separation_certificate,
    small_groups,
    weak_conjugation_pairs,
)
from profinite_kit.kappa import lookup, member
from profinite_kit.languages import Morphism, dfa_to_regex, parse_regex, syntactic_semigroup
from profinite_kit.semigroups import (
    FiniteSemigroup,
    _greedy_generators,
    adjoin_identity,
    enumerate_semigroups,
    monoid_of,
    structural_predicates,
)

C2 = FiniteSemigroup.from_table([[0, 1], [1, 0]])
C3 = FiniteSemigroup.from_table([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
U1 = FiniteSemigroup.from_table([[0, 1], [1, 1]])  # {1, 0}
B21 = syntactic_semigroup(parse_regex("(ab)*", "ab")).semigroup
ANCHOR_113 = monoid_of(syntactic_semigroup(parse_regex("(ab|ba)*(aa|b)*", "ab")).semigroup)


def small_monoids():
    """S^1 of every semigroup of order <= 4, and S itself when it is a monoid."""
    out = []
    for n in range(1, 5):
        for s in enumerate_semigroups(n):
            out.append(adjoin_identity(s))
            if s.identity is not None:
                out.append(s)
    return out


def corpus_morphisms(count=60, seed=53, max_order=12):
    """Syntactic monoids of the regex corpus with their two-letter morphisms."""
    out = []
    for r in regex_corpus(count, seed=seed):
        syntactic = syntactic_semigroup(r, "ab")
        m = monoid_of(syntactic.semigroup)
        if m.order <= max_order:
            out.append((m, Morphism(("a", "b"), m, syntactic.morphism.letter_image)))
    return out


class TestProGClosure:
    def test_a_plus(self):
        clos = pro_g_closure(parse_regex("a+", "ab"), "ab")
        for n in (1, 2, 3, 6):
            assert clos.contains_word("a" * n)
        for w in ("b", "ab", "ba", "aab"):
            assert not clos.contains_word(w)

    def test_ab_plus(self):
        clos = pro_g_closure(parse_regex("(ab)+", "ab"))
        assert clos.contains_word("ab")
        assert not clos.contains_word("ba")

    def test_empty_language(self):
        clos = pro_g_closure(parse_regex("#", "ab"), "ab")
        assert not clos.contains(())
        assert not clos.contains_word("a")

    def test_closure_contains_language(self):
        for r in regex_corpus(60, seed=41):
            clos = pro_g_closure(r, "ab")
            from profinite_kit.languages import to_minimal_dfa

            dfa = to_minimal_dfa(r, "ab")
            for w in words_upto("ab", 6, min_len=1):
                if dfa.accepts(w):
                    assert clos.contains_word(w)

    def test_monotone_in_language(self):
        # L1 = (ab)+ is contained in L2 = (a|b)+; closures nest on samples
        small = pro_g_closure(parse_regex("(ab)+", "ab"))
        big = pro_g_closure(parse_regex("(a|b)+", "ab"))
        for w in words_upto("ab", 6, min_len=1):
            if small.contains_word(w):
                assert big.contains_word(w)

    def test_monotone_on_random_unions(self):
        # L(r1) sits inside L(r1|r2) by construction
        from profinite_kit.languages import Union

        corpus = regex_corpus(40, seed=47)
        for r1, r2 in zip(corpus[::2], corpus[1::2]):
            lower = pro_g_closure(r1, "ab")
            upper = pro_g_closure(Union(r1, r2), "ab")
            for w in words_upto("ab", 5, min_len=1):
                if lower.contains_word(w):
                    assert upper.contains_word(w)

    def test_idempotence_on_sample(self):
        for r in regex_corpus(25, seed=43):
            clos = pro_g_closure(r, "ab")
            again = pro_g_closure(dfa_to_regex(positive_part_dfa(clos)), ("a", "b"))
            for w in words_upto("ab", 6, min_len=1):
                assert clos.contains_word(w) == again.contains_word(w)

    def test_group_language_closed(self):
        # words of even length form a group language; closure adds nothing
        r = parse_regex("((a|b)(a|b))+", "ab")
        clos = pro_g_closure(r, "ab")
        from profinite_kit.languages import to_minimal_dfa

        dfa = to_minimal_dfa(r, "ab")
        for w in words_upto("ab", 6, min_len=1):
            assert clos.contains_word(w) == dfa.accepts(w)


class TestSeparation:
    def test_b_from_a_plus(self):
        assert separable_by_group_language("b", parse_regex("a+", "ab"), "ab")

    def test_member_not_separable(self):
        assert not separable_by_group_language("ab", parse_regex("(ab)+", "ab"))

    def test_ba_from_ab_plus(self):
        assert separable_by_group_language("ba", parse_regex("(ab)+", "ab"))

    def test_certificate_for_ba(self):
        cert = separation_certificate("ba", parse_regex("(ab)+", "ab"), ("a", "b"))
        assert cert is not None
        assert cert.word_image not in cert.language_images
        identity = cert.group.identity
        images = dict(cert.assignment)
        assert cert.group.product(images[ch] for ch in "ba") == cert.word_image

    def test_empty_word_rejected(self):
        with pytest.raises(KitError):
            separable_by_group_language("", parse_regex("a+", "ab"))

    def test_small_groups_are_groups(self):
        for name, group in small_groups():
            assert structural_predicates(group).is_group, name


class TestKernel:
    def test_group_kernel_is_identity(self):
        for group in (C2, C3):
            assert kernel_g(group).kernel == frozenset({group.identity})

    def test_u1_kernel_is_everything(self):
        assert kernel_g(U1).kernel == frozenset({0, 1})

    def test_b21_kernel_is_idempotents(self):
        result = kernel_g(B21)
        assert result.kernel == frozenset(B21.idempotents())

    def test_kernel_invariants(self):
        for s in enumerate_semigroups(3):
            m = adjoin_identity(s)
            kernel = kernel_g(m).kernel
            assert frozenset(m.idempotents()) <= kernel
            for x in kernel:
                for y in kernel:
                    assert m.table[x][y] in kernel
            for a, b in weak_conjugation_pairs(m):
                for x in kernel:
                    assert m.table[m.table[a][x]][b] in kernel

    def test_kernel_requires_identity(self):
        with pytest.raises(KitError):
            kernel_g(FiniteSemigroup.from_table([[0, 0], [1, 1]]))

    def test_trace_recorded(self):
        trace = kernel_g(B21).trace
        assert any(step[0] == "seed" for step in trace)


class TestKernelViaClosure:
    def test_trivial_monoid(self):
        assert kernel_via_closure(FiniteSemigroup.from_table([[0]])) == frozenset({0})

    def test_c2(self):
        assert kernel_via_closure(C2) == frozenset({0})

    def test_u1(self):
        assert kernel_via_closure(U1) == frozenset({0, 1})

    def test_duality_on_small_monoids(self):
        for s in enumerate_semigroups(3):
            m = adjoin_identity(s)
            assert kernel_g(m).kernel == kernel_via_closure(m), m.table

    def test_rejects_non_onto_morphism(self):
        morphism = Morphism(alphabet=("a",), codomain=B21, letter_image=(B21.identity,))
        with pytest.raises(KitError, match="not onto"):
            kernel_via_closure(B21, morphism)
        with pytest.raises(KitError, match="not onto"):
            g_pointlike(B21, {B21.identity}, morphism)

    def test_rejects_out_of_range_letter_image(self):
        with pytest.raises(KitError):
            Morphism(alphabet=("a",), codomain=C2, letter_image=(2,))

    def test_rejects_morphism_onto_another_monoid(self):
        with pytest.raises(KitError):
            kernel_via_closure(C2, canonical_monoid_morphism(U1))

    def test_matches_regex_route_on_small_monoids(self):
        monoids = small_monoids()
        assert len(monoids) == 263
        for m in monoids:
            kernel = kernel_via_closure(m)
            assert kernel == kernel_by_preimage_closures(m), m.table
            assert kernel == kernel_g(m).kernel, m.table

    def test_matches_regex_route_under_two_letter_morphisms(self):
        for m, morphism in corpus_morphisms():
            assert kernel_via_closure(m, morphism) == \
                kernel_by_preimage_closures(m, morphism), m.table

    def test_beyond_the_letter_supply(self):
        # 112 non-identity elements, two greedy generators
        assert ANCHOR_113.order > 37
        assert kernel_via_closure(ANCHOR_113) == kernel_g(ANCHOR_113).kernel

    def test_too_many_generators_rejected(self):
        # the left-zero semigroup on 37 elements is generated by nothing smaller
        left_zero = adjoin_identity(FiniteSemigroup.from_table([[a] * 37 for a in range(37)]))
        with pytest.raises(KitError, match="37 generators"):
            kernel_via_closure(left_zero)


class TestPointlike:
    def test_singletons_always_pointlike(self):
        for x in range(C2.order):
            ok, witness = g_pointlike(C2, {x})
            assert ok and witness is not None

    def test_c2_pair_not_pointlike(self):
        assert g_pointlike(C2, {0, 1}) == (False, None)

    def test_u1_pair_pointlike_with_empty_witness(self):
        ok, witness = g_pointlike(U1, {0, 1})
        assert ok and witness == ()

    def test_monotone_decreasing(self):
        for s in enumerate_semigroups(2):
            m = adjoin_identity(s)
            elements = range(m.order)
            for size in (2, 3):
                for subset in itertools.combinations(elements, size):
                    if g_pointlike(m, subset)[0]:
                        for smaller in itertools.combinations(subset, size - 1):
                            assert g_pointlike(m, smaller)[0]

    def test_empty_subset_rejected(self):
        with pytest.raises(KitError):
            g_pointlike(C2, set())

    def test_rejects_morphism_onto_another_monoid(self):
        # C2 and U1 have the same order, so every element is in range for both
        u1_morphism = canonical_monoid_morphism(U1)
        with pytest.raises(KitError):
            g_pointlike(C2, {0, 1}, u1_morphism)
        with pytest.raises(KitError):
            inevitable_two_vertex(C2, C2.identity, {0, 1}, u1_morphism)

    def test_matches_regex_route_on_small_monoids(self):
        subsets = [(m, subset) for m in small_monoids() if m.order <= 4
                   for size in (2, 3) for subset in itertools.combinations(range(m.order), size)]
        assert len(subsets) == 641
        for m, subset in subsets:
            assert g_pointlike(m, subset) == pointlike_by_preimage_closures(m, subset), \
                (m.table, subset)

    def test_witnesses_match_regex_route(self):
        queries = 0
        for m, morphism in corpus_morphisms():
            for subset in itertools.combinations(range(m.order), 2):
                assert g_pointlike(m, subset, morphism) == \
                    pointlike_by_preimage_closures(m, subset, morphism), (m.table, subset)
                queries += 1
        assert queries > 300

    @pytest.mark.parametrize("argv", [
        ["pointlike", "--set", "0,5,7"],
        ["inevitable", "--system", "two-vertex", "--targets", "0,5"],
    ], ids=["pointlike", "two_vertex"])
    def test_cli_beyond_the_letter_supply(self, argv, tmp_path, capsys):
        table = tmp_path / "anchor.json"
        table.write_text(json.dumps(ANCHOR_113.to_json_dict()))
        assert main(argv + ["--table", str(table)]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "ok"


class TestInevitability:
    def test_loop_at_identity(self):
        assert inevitable_loop(C2, 0)
        assert inevitable_loop(C3, 0)

    def test_loop_examples(self):
        assert not inevitable_loop(C2, 1)
        assert inevitable_loop(U1, 1)

    def test_two_vertex_requires_identity_constraint(self):
        with pytest.raises(KitError):
            inevitable_two_vertex(C2, 1, {0, 1})

    def test_two_vertex_matches_pointlike(self):
        for s in enumerate_semigroups(2):
            m = adjoin_identity(s)
            for subset in itertools.combinations(range(m.order), 2):
                assert inevitable_two_vertex(m, m.identity, subset) == \
                    g_pointlike(m, subset)[0]


class TestMalcev:
    def test_group_with_trivial_target(self):
        from profinite_kit.kappa import Pseudoidentity, PseudovarietyDef, Var

        trivial = PseudovarietyDef("T", (Pseudoidentity(Var("x"), Var("y")),))
        assert malcev_membership(C3, trivial)
        assert not malcev_membership(U1, trivial)

    def test_b21_aperiodic_kernel(self):
        assert member(B21, lookup("A"))  # the monoid itself is aperiodic
        assert malcev_membership(B21, lookup("A"))
        assert malcev_membership(B21, lookup("Sl"))

    def test_commutative_aperiodic_example(self):
        # U1 is its own kernel; semilattice verdicts agree on both paths
        assert malcev_membership(U1, lookup("Sl")) == member(U1, lookup("Sl"))

    def test_c2_kernel_trivial(self):
        assert malcev_membership(C2, lookup("Sl"))


class TestCanonicalMorphism:
    def test_covers_monoid(self):
        for m in (B21, ANCHOR_113, *small_monoids()):
            morphism = canonical_monoid_morphism(m)
            images = [morphism.image_of_word(ch) for ch in morphism.alphabet]
            assert images == [g for g in _greedy_generators(m.table) if g != m.identity]
            assert morphism.preimage_dfa(m.identity).accepts("")
            if m.order <= 5:
                # every element is a product of at most order - 1 generators
                reached = {morphism.image_of_word(w)
                           for w in words_upto(morphism.alphabet, m.order - 1, min_len=1)}
                assert reached | {m.identity} == set(range(m.order)), m.table

    def test_preimage_dfa_accepts_matching_words(self):
        morphism = canonical_monoid_morphism(B21)
        for element in range(B21.order):
            dfa = morphism.preimage_dfa(element)
            assert dfa.accepts("") == (element == B21.identity)
            for w in words_upto(morphism.alphabet, 3, min_len=1):
                assert dfa.accepts(w) == (morphism.image_of_word(w) == element)
