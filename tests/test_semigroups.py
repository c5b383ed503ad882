import itertools
import json

import pytest

from profinite_kit.errors import KitError, MalformedTableError, UnsupportedOrderError
from profinite_kit.semigroups import (
    FiniteSemigroup,
    adjoin_identity,
    associative_tables,
    canonical_form,
    check_associativity,
    enumerate_semigroups,
    green_relations,
    monogenic_profile,
    monoid_of,
    structural_predicates,
    subsemigroup_closure,
)

C3 = FiniteSemigroup.from_table([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
C2 = FiniteSemigroup.from_table([[0, 1], [1, 0]])
# monogenic <a : a^4 = a^2> on elements a, a^2, a^3
A4A2 = FiniteSemigroup.from_table([[1, 2, 1], [2, 1, 2], [1, 2, 1]])
LEFT_ZERO = FiniteSemigroup.from_table([[0, 0], [1, 1]])


class TestAssociativity:
    def test_singleton(self):
        assert check_associativity([[0]])

    def test_left_zero(self):
        assert check_associativity([[0, 0], [1, 1]])

    def test_non_associative_witness(self):
        # found by filtering all 16 tables on two elements
        assert not check_associativity([[1, 0], [0, 0]])

    def test_two_element_filter(self):
        tables = [
            [[a, b], [c, d]]
            for a in (0, 1) for b in (0, 1) for c in (0, 1) for d in (0, 1)
        ]
        flags = [check_associativity(t) for t in tables]
        assert sum(flags) == 8
        assert flags[tables.index([[1, 0], [0, 0]])] is False

    def test_out_of_range_entry(self):
        with pytest.raises(MalformedTableError):
            check_associativity([[0, 2], [1, 1]])


class TestMonogenicProfile:
    def test_cyclic_group_generator(self):
        profile = monogenic_profile(C3, 1)
        assert (profile.index, profile.period) == (1, 3)
        assert profile.omega == 0
        assert profile.omega_minus_one == 2

    def test_a4_equals_a2(self):
        profile = monogenic_profile(A4A2, 0)
        assert (profile.index, profile.period) == (2, 2)
        assert profile.omega == 1  # a^2
        assert profile.omega_minus_one == 2  # a^3

    def test_idempotent(self):
        u1 = FiniteSemigroup.from_table([[0, 1], [1, 1]])
        for e in (0, 1):
            profile = monogenic_profile(u1, e)
            assert profile.omega == e
            assert profile.omega_minus_one == e

    def test_profile_invariants_small_orders(self):
        for s in enumerate_semigroups(3):
            for x in range(s.order):
                p = monogenic_profile(s, x)
                assert s.power(x, p.index + p.period) == s.power(x, p.index)
                assert s.table[p.omega][p.omega] == p.omega
                x_omega_plus_one = s.table[x][p.omega]
                assert s.table[p.omega_minus_one][x_omega_plus_one] == p.omega
                assert s.table[x_omega_plus_one][p.omega_minus_one] == p.omega


class TestGreenRelations:
    def test_group_single_classes(self):
        g = green_relations(C3)
        assert g.r_classes == g.l_classes == g.j_classes == g.h_classes == ((0, 1, 2),)

    def test_left_zero(self):
        g = green_relations(LEFT_ZERO)
        assert g.r_classes == ((0,), (1,))
        assert g.l_classes == ((0, 1),)
        assert g.j_classes == ((0, 1),)
        assert g.h_classes == ((0,), (1,))

    def test_h_is_meet_of_r_and_l(self):
        for s in enumerate_semigroups(3):
            g = green_relations(s)
            for x in range(s.order):
                r = set(g.class_of("r", x))
                l = set(g.class_of("l", x))
                assert set(g.class_of("h", x)) == r & l

    def test_j_is_join_of_r_and_l(self):
        # in a finite semigroup the join of the R and L partitions is J
        for s in enumerate_semigroups(3):
            g = green_relations(s)
            parent = list(range(s.order))

            def find(a):
                while parent[a] != a:
                    parent[a] = parent[parent[a]]
                    a = parent[a]
                return a

            for block in g.r_classes + g.l_classes:
                for x in block[1:]:
                    parent[find(x)] = find(block[0])
            joined = {}
            for x in range(s.order):
                joined.setdefault(find(x), set()).add(x)
            assert {frozenset(b) for b in joined.values()} == \
                {frozenset(c) for c in g.j_classes}

    def test_j_order_is_partial_order(self):
        for s in enumerate_semigroups(3):
            g = green_relations(s)
            ids = range(len(g.j_classes))
            order = g.j_order
            assert all((i, i) in order for i in ids)
            for i, j in itertools.product(ids, ids):
                if (i, j) in order and (j, i) in order:
                    assert i == j
                for k in ids:
                    if (i, j) in order and (j, k) in order:
                        assert (i, k) in order


class TestStructuralPredicates:
    def test_c2(self):
        p = structural_predicates(C2)
        assert p.is_group and not p.is_aperiodic

    def test_a4a2_and_quotient(self):
        assert not structural_predicates(A4A2).is_aperiodic
        quotient = FiniteSemigroup.from_table([[1, 1], [1, 1]])  # a^3 = a^2
        assert structural_predicates(quotient).is_aperiodic

    def test_trivial_semigroup(self):
        p = structural_predicates(FiniteSemigroup.from_table([[0]]))
        assert p.is_group and p.is_nilpotent and p.is_aperiodic
        assert p.is_j_trivial and p.is_semilattice and p.is_completely_regular

    def test_aperiodic_iff_trivial_periods(self):
        for s in enumerate_semigroups(3):
            expected = all(monogenic_profile(s, x).period == 1 for x in range(s.order))
            assert structural_predicates(s).is_aperiodic == expected


class TestClosureEngine:
    def test_idempotent_seed(self):
        u1 = FiniteSemigroup.from_table([[0, 1], [1, 1]])
        assert subsemigroup_closure(u1, {1}) == frozenset({1})

    def test_monogenic(self):
        assert subsemigroup_closure(C3, {1}) == frozenset({0, 1, 2})

    def test_a_squared(self):
        assert subsemigroup_closure(A4A2, {1}) == frozenset({1})

    def test_unary_rule(self):
        closed = subsemigroup_closure(C3, {0}, extra_rules=[lambda x: (C3.table[x][1],)])
        assert closed == frozenset({0, 1, 2})

    def test_empty_seed_rejected(self):
        with pytest.raises(KitError):
            subsemigroup_closure(C3, set())


class TestEnumeration:
    def test_counts_naive_oracle(self):
        # full-table filter for n <= 3; these also pin the catalog counts
        for n, all_count, iso_count in ((1, 1, 1), (2, 8, 5), (3, 113, 24)):
            raw = [
                tuple(tuple(row) for row in table)
                for table in (
                    tuple(
                        tuple(values[i * n + j] for j in range(n)) for i in range(n)
                    )
                    for values in itertools.product(range(n), repeat=n * n)
                )
                if check_associativity(table)
            ]
            assert len(raw) == all_count
            assert len({canonical_form(t) for t in raw}) == iso_count
            assert len(associative_tables(n)) == all_count
            assert sum(1 for _ in enumerate_semigroups(n)) == iso_count

    def test_order_four_regression(self):
        # frozen from the pruned search's first run
        assert sum(1 for _ in enumerate_semigroups(4)) == 188

    def test_canonical_forms_are_fixed_points(self):
        for s in enumerate_semigroups(3):
            assert canonical_form(s.table) == s.table

    def test_unsupported_order(self):
        with pytest.raises(UnsupportedOrderError):
            list(enumerate_semigroups(5))


class TestJsonFormat:
    def test_round_trip(self):
        s = FiniteSemigroup.from_table([[0, 1], [1, 0]], labels=["e", "g"])
        again = FiniteSemigroup.from_json(s.to_json())
        assert again == s

    def test_declared_identity_checked(self):
        data = {"order": 2, "table": [[0, 0], [1, 1]], "identity": 0,
                "labels": None, "generators": None}
        with pytest.raises(MalformedTableError):
            FiniteSemigroup.from_json_dict(data)

    def test_bad_generators(self):
        data = {"order": 3, "table": C3.table, "identity": 0,
                "labels": None, "generators": [0]}
        with pytest.raises(MalformedTableError):
            FiniteSemigroup.from_json_dict(data)

    def test_malformed_json(self):
        with pytest.raises(MalformedTableError):
            FiniteSemigroup.from_json("{not json")

    @pytest.mark.parametrize("field,value", [
        ("order", 2.0),
        ("table", [[0, "x"], [1, 0]]),
        ("table", [[0, None], [1, 0]]),
        ("table", [[0, 1], [1, 0.7]]),
        ("table", [[0, 1.7], [1, 0]]),
        ("table", [[0, True], [1, 0]]),
        ("table", [0, 1]),
        ("identity", 7),
        ("identity", False),
        ("generators", [1.0]),
        ("generators", 1),
        ("labels", 5),
    ], ids=["float_order", "string_entry", "null_entry", "float_entry_0.7", "float_entry_1.7",
            "bool_entry", "row_not_a_list", "identity_out_of_range", "bool_identity",
            "float_generator", "generators_not_a_list", "labels_not_a_list"])
    def test_strict_entries(self, field, value):
        data = {"order": 2, "table": [[0, 1], [1, 0]], "identity": 0,
                "labels": None, "generators": None}
        data[field] = value
        with pytest.raises(MalformedTableError):
            FiniteSemigroup.from_json_dict(data)

    def test_identity_range_checked_on_construction(self):
        with pytest.raises(MalformedTableError):
            FiniteSemigroup.from_table([[0, 1], [1, 0]], identity=7)


class TestMonoidHelpers:
    def test_adjoin_identity(self):
        m = adjoin_identity(LEFT_ZERO)
        assert m.order == 3 and m.identity == 2
        assert monoid_of(m) is m

    def test_monoid_of_adjoins_when_needed(self):
        assert monoid_of(LEFT_ZERO).order == 3
        assert monoid_of(C2) is C2
