"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance and corpus size is pinned here.
"""

import itertools
import math
import random

from conftest import (
    random_group_automaton,
    random_group_word,
    reduced_words_upto,
    regex_corpus,
    subgroup_ball,
    words_upto,
)
from oracles import associative_by_triples, positive_part_dfa
from profinite_kit.closure import (
    kernel_g,
    kernel_via_closure,
    pro_g_closure,
    separation_certificate,
)
from profinite_kit.errors import NotASubshiftError
from profinite_kit.freegroup import (
    ReducedWordMatcher,
    positive_word,
    reduced_words_of,
    stallings_graph,
    subgroup_contains,
)
from profinite_kit.kappa import lookup, member
from profinite_kit.languages import (
    Dfa,
    dfa_to_regex,
    parse_regex,
    syntactic_semigroup,
    to_minimal_dfa,
    transition_semigroup,
)
from profinite_kit.metric import separation_rank
from profinite_kit.semigroups import (
    adjoin_identity,
    canonical_form,
    enumerate_semigroups,
    monogenic_profile,
    structural_predicates,
)
from profinite_kit.symbolic import entropy, factorial_trim, forbid_factor


def _report(number, name, failures):
    verdict = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {verdict}")
    assert not failures, f"criterion {number} ({name}): {failures[:5]}"


def _all_semigroups(max_order):
    for n in range(1, max_order + 1):
        yield from enumerate_semigroups(n)


def _random_dfa(rng, n_states=3, alphabet=("a", "b")):
    transition = tuple(
        tuple(rng.randrange(n_states) for _ in alphabet) for _ in range(n_states))
    finals = frozenset(rng.sample(range(n_states), rng.randint(1, n_states)))
    return Dfa(n_states=n_states, alphabet=tuple(alphabet),
               transition=transition, initial=0, finals=finals)


def test_criterion_1_kernel_duality():
    failures = []
    monoids = [adjoin_identity(s) for s in _all_semigroups(3)]
    rng = random.Random(101)
    random_monoids = []
    while len(random_monoids) < 30:
        dfa = _random_dfa(rng)
        monoid, _, _ = transition_semigroup(dfa, include_identity=True)
        if monoid.order <= 5:
            random_monoids.append(monoid)
    monoids.extend(random_monoids)
    for m in monoids:
        direct = kernel_g(m).kernel
        via_closure = kernel_via_closure(m)
        if direct != via_closure:
            failures.append((m.table, sorted(direct), sorted(via_closure)))
    _report(1, "kernel duality", failures)


def test_criterion_2_equational_vs_structural():
    failures = []
    names = ("G", "A", "J", "Sl", "N", "CR")
    for s in _all_semigroups(4):
        profile = structural_predicates(s)
        for name in names:
            definition = lookup(name)
            if member(s, definition) != getattr(profile, definition.structural_check):
                failures.append((s.table, name))
    _report(2, "equational vs structural membership", failures)


def test_criterion_3_enumeration_regression():
    failures = []
    expected_iso = {1: 1, 2: 5, 3: 24}
    for n, iso_count in expected_iso.items():
        naive = [
            table
            for values in itertools.product(range(n), repeat=n * n)
            for table in [tuple(tuple(values[i * n + j] for j in range(n))
                                for i in range(n))]
            if associative_by_triples(table)
        ]
        classes = {canonical_form(t) for t in naive}
        if len(classes) != iso_count:
            failures.append(("naive", n, len(classes)))
        if sum(1 for _ in enumerate_semigroups(n)) != iso_count:
            failures.append(("search", n, iso_count))
    if sum(1 for _ in enumerate_semigroups(4)) != 188:  # frozen on first run
        failures.append(("order-4 regression", 188))
    _report(3, "enumeration regression", failures)


def test_criterion_4_pin_reutenauer_properties():
    failures = []
    corpus = regex_corpus(200)
    all_words = list(words_upto("ab", 6, min_len=1))
    short_words = list(words_upto("ab", 4, min_len=1))
    for index, regex in enumerate(corpus):
        clos = pro_g_closure(regex, "ab")
        dfa = to_minimal_dfa(regex, "ab")
        in_closure = {w for w in all_words if clos.contains_word(w)}
        language = {w for w in all_words if dfa.accepts(w)}
        if not language <= in_closure:
            failures.append(("containment", index))
        again = pro_g_closure(dfa_to_regex(positive_part_dfa(clos)), ("a", "b"))
        if any(again.contains_word(w) != (w in in_closure) for w in all_words):
            failures.append(("idempotence", index))
        syntactic = syntactic_semigroup(regex, "ab")
        if structural_predicates(syntactic.semigroup).is_group:
            if in_closure != language:
                failures.append(("group language not closed", index))
        for w in short_words:
            certificate = separation_certificate(w, regex, ("a", "b"))
            if certificate is not None and w in in_closure:
                failures.append(("certificate contradicts closure", index, w))
    _report(4, "Pin-Reutenauer properties", failures)


def test_criterion_5_metric_axioms():
    failures = []
    rng = random.Random(55)
    pv = lookup("S")

    def rank_of(u, v):
        return separation_rank(u, v, pv, max_order=3)

    for i in range(1000):
        x, y, z = ("".join(rng.choice("ab") for _ in range(rng.randint(1, 5)))
                   for _ in range(3))
        rxz, rxy, ryz = rank_of(x, z), rank_of(x, y), rank_of(y, z)
        if rank_of(y, x).rank != rxy.rank:
            failures.append(("symmetry", x, y))
        for result, (u, v) in ((rxz, (x, z)), (rxy, (x, y)), (ryz, (y, z))):
            w = result.witness
            if w is not None:
                if not member(w.semigroup, pv) or w.image(u) == w.image(v):
                    failures.append(("witness replay", u, v))
        if any(r.rank is None for r in (rxz, rxy, ryz)):
            continue
        dist = {id(r): 0.0 if r.rank is math.inf else 2.0 ** -r.rank
                for r in (rxz, rxy, ryz)}
        if dist[id(rxz)] > max(dist[id(rxy)], dist[id(ryz)]) + 1e-12:
            failures.append(("ultrametric", x, y, z))
    _report(5, "metric axioms", failures)


def test_criterion_6_omega_power_laws():
    failures = []
    for s in _all_semigroups(4):
        for x in range(s.order):
            profile = monogenic_profile(s, x)
            omega = profile.omega
            before = profile.omega_minus_one
            after = s.table[x][omega]  # x^(omega+1)
            if s.table[omega][omega] != omega:
                failures.append((s.table, x, "idempotent"))
            if s.table[before][after] != omega:
                failures.append((s.table, x, "inverse law"))
            if s.table[before][x] != omega:
                failures.append((s.table, x, "step law"))
    _report(6, "omega-power laws", failures)


def test_criterion_7_entropy():
    failures = []
    full = factorial_trim(to_minimal_dfa(parse_regex("(a|b)*", "ab"), "ab"))
    if abs(entropy(full) - 1.0) > 1e-9:
        failures.append(("full shift", entropy(full)))
    golden = forbid_factor(full, "bb")
    if abs(entropy(golden) - math.log2((1 + math.sqrt(5)) / 2)) > 1e-6:
        failures.append(("golden mean", entropy(golden)))
    refinements = [
        (full, "aa"), (full, "ab"), (full, "ba"), (full, "bb"),
        (full, "aab"), (full, "abb"), (full, "bab"), (full, "aba"),
        (full, "a"), (full, "b"),
        (golden, "aa"), (golden, "ab"), (golden, "ba"),
        (golden, "aab"), (golden, "aba"), (golden, "baa"),
        (golden, "aaa"), (golden, "abab"), (golden, "baab"), (golden, "aaab"),
    ]
    assert len(refinements) == 20
    for parent, factor in refinements:
        if not parent.is_block(factor):
            failures.append(("not a block", factor))
            continue
        try:
            child = forbid_factor(parent, factor)
        except NotASubshiftError:
            continue  # the refinement died out; strict decrease holds trivially
        if not entropy(child) < entropy(parent) - 1e-12:
            failures.append(("no strict decrease", factor))
    _report(7, "entropy", failures)


def test_criterion_8_syntactic_construction():
    failures = []
    b21 = syntactic_semigroup(parse_regex("(ab)*", "ab"))
    profile = structural_predicates(b21.semigroup)
    if b21.semigroup.order != 6:
        failures.append(("order", b21.semigroup.order))
    if not profile.is_aperiodic or profile.is_j_trivial:
        failures.append(("structure", profile))
    trivial = syntactic_semigroup(parse_regex("(a|b)+", "ab"))
    if trivial.semigroup.order != 1:
        failures.append(("full language", trivial.semigroup.order))
    _report(8, "syntactic construction", failures)


def test_criterion_9_stallings_benois_oracles():
    failures = []
    rng = random.Random(7)
    for trial in range(50):
        letters = "ab" if trial % 2 == 0 else "abc"
        gens = [random_group_word(rng, letters, 3, min_len=1)
                for _ in range(rng.randint(1, 3 if letters == "ab" else 2))]
        graph = stallings_graph(gens, letters)
        ball = subgroup_ball(gens, 8)
        for w in ball:
            if not subgroup_contains(graph, w):
                failures.append(("ball member missed", gens, w))
        for _ in range(60):
            w = random_group_word(rng, letters, 5)
            if subgroup_contains(graph, w) != (w in ball):
                failures.append(("ball disagreement", gens, w))
    rng = random.Random(1000)
    probe = reduced_words_upto("ab", 3)
    for _ in range(50):
        automaton = random_group_automaton(rng)
        oracle = reduced_words_of(automaton, 10)
        matcher = ReducedWordMatcher(automaton)
        for w in probe:
            if matcher.accepts(w) != (w in oracle):
                failures.append(("rational disagreement", automaton.edges, w))
    _report(9, "Stallings/Benois oracles", failures)
