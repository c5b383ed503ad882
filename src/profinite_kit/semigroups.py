"""Finite semigroups given by multiplication tables.

Everything downstream (syntactic semigroups, pseudoidentity checking,
kernels, the pro-V word metric) works over the immutable FiniteSemigroup
defined here.  The module also provides Green's relations, omega-power
profiles, a generic closure engine and exhaustive enumeration of small
semigroups up to isomorphism.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from ._graph import scc
from .errors import KitError, MalformedTableError, UnsupportedOrderError

Table = tuple[tuple[int, ...], ...]

ENUMERATION_LIMIT = 4


def _freeze_table(rows: Sequence[Sequence[int]]) -> Table:
    """The rows as a tuple of int tuples; a table already in that form is kept."""
    if type(rows) is tuple and all(
            type(row) is tuple and {*map(type, row)} <= {int} for row in rows):
        return rows
    return tuple(tuple(int(x) for x in row) for row in rows)


def _greedy_generators(table: Sequence[Sequence[int]]) -> list[int]:
    """Generators picked in index order by walking the right Cayley graph.

    An element that no left-normed product ((g1 g2) ... ) gk of the
    generators found so far reaches becomes the next generator, so every
    element is such a product.  That needs no associativity.  On a
    transition semigroup the picks are the letter images, plus the
    identity when it is adjoined.
    """
    n = len(table)
    gens: list[int] = []
    reached = [False] * n
    walked: list[int] = []
    for g in range(n):
        if reached[g]:
            continue
        gens.append(g)
        # g itself and x*g for every x reached before g joined the generators
        stack = [g] + [table[x][g] for x in walked]
        while stack:
            y = stack.pop()
            if not reached[y]:
                reached[y] = True
                walked.append(y)
                ty = table[y]
                stack.extend(ty[h] for h in gens)
    return gens


def check_associativity(rows: Sequence[Sequence[int]]) -> bool:
    """True iff the square table with in-range entries is associative.

    Light's test: with every element a left-normed product of generators,
    the table is associative once (x*a)*y == x*(a*y) for each generator a
    and all x, y.  That costs O(n^2 |gens|) instead of O(n^3).
    """
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise MalformedTableError("table is not square")
        if min(row) < 0 or max(row) >= n:
            bad = next(x for x in row if not 0 <= x < n)
            raise MalformedTableError(f"entry {bad} outside [0, {n})")
    if n == 1:
        return True  # [[0]]; itemgetter below needs two or more columns
    for a in _greedy_generators(rows):
        x_times_ay = operator.itemgetter(*rows[a])  # row x -> (x*(a*y) for every y)
        for tx in rows:
            if tuple(rows[tx[a]]) != x_times_ay(tx):
                return False
    return True


def _check_index(value, n: int, what: str) -> int:
    # JSON booleans are ints to Python, and floats would be truncated
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < n:
        raise MalformedTableError(f"{what} {value!r} outside [0, {n})")
    return value


def _find_identity(table: Table) -> Optional[int]:
    n = len(table)
    for e in range(n):
        if all(table[e][x] == x == table[x][e] for x in range(n)):
            return e
    return None


@dataclass(frozen=True)
class FiniteSemigroup:
    """A finite semigroup as an n-by-n table of element indices.

    Row index is the left factor: table[a][b] = a*b.  `identity` is the
    index of the neutral element when one exists, `labels` optional
    display names, `generators` an optional generating set.
    """

    order: int
    table: Table
    identity: Optional[int] = None
    labels: Optional[tuple[str, ...]] = None
    generators: Optional[frozenset[int]] = None

    def __post_init__(self):
        if self.order < 1 or len(self.table) != self.order:
            raise MalformedTableError("order does not match table size")
        if not check_associativity(self.table):
            raise MalformedTableError("table is not associative")
        if self.identity is not None:
            e = _check_index(self.identity, self.order, "identity")
            if not all(self.table[e][x] == x == self.table[x][e] for x in range(self.order)):
                raise MalformedTableError(f"element {e} is not an identity")
        if self.labels is not None and len(self.labels) != self.order:
            raise MalformedTableError("labels do not match order")
        if self.generators is not None:
            if not self.generators:
                raise MalformedTableError("generator set must be nonempty")
            if any(not 0 <= g < self.order for g in self.generators):
                raise MalformedTableError("generator outside element range")
            if subsemigroup_closure(self, self.generators) != frozenset(range(self.order)):
                raise MalformedTableError("generators do not generate the semigroup")

    @classmethod
    def from_table(cls, rows: Sequence[Sequence[int]], identity: Optional[int] = None,
                   labels: Optional[Sequence[str]] = None,
                   generators: Optional[Iterable[int]] = None) -> "FiniteSemigroup":
        table = _freeze_table(rows)
        if identity is None:
            identity = _find_identity(table)
        return cls(
            order=len(table),
            table=table,
            identity=identity,
            labels=tuple(labels) if labels is not None else None,
            generators=frozenset(generators) if generators is not None else None,
        )

    def check_element(self, x: int) -> None:
        if not 0 <= x < self.order:
            raise KitError(f"element {x} outside semigroup of order {self.order}")

    def product(self, elements: Iterable[int]) -> int:
        it = iter(elements)
        try:
            acc = next(it)
        except StopIteration:
            raise KitError("empty product has no value in a semigroup") from None
        for x in it:
            acc = self.table[acc][x]
        return acc

    def power(self, a: int, k: int) -> int:
        if k < 1:
            raise KitError("semigroup powers need exponent >= 1")
        acc = a
        for _ in range(k - 1):
            acc = self.table[acc][a]
        return acc

    def idempotents(self) -> tuple[int, ...]:
        return tuple(x for x in range(self.order) if self.table[x][x] == x)

    def is_commutative(self) -> bool:
        t = self.table
        return all(t[a][b] == t[b][a] for a in range(self.order) for b in range(a))

    def label_of(self, x: int) -> str:
        return self.labels[x] if self.labels is not None else str(x)

    def restrict(self, subset: Iterable[int]) -> "FiniteSemigroup":
        """Induced table on a product-closed subset, in sorted index order."""
        elems = sorted(set(subset))
        pos = {x: i for i, x in enumerate(elems)}
        rows = []
        for a in elems:
            row = []
            for b in elems:
                ab = self.table[a][b]
                if ab not in pos:
                    raise KitError("subset is not closed under the product")
                row.append(pos[ab])
            rows.append(row)
        labels = tuple(self.label_of(x) for x in elems) if self.labels else None
        return FiniteSemigroup.from_table(rows, labels=labels)

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "table": [list(row) for row in self.table],
            "identity": self.identity,
            "labels": list(self.labels) if self.labels is not None else None,
            "generators": sorted(self.generators) if self.generators is not None else None,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: dict) -> "FiniteSemigroup":
        """Strict reader: entries, identity and generators are in-range ints."""
        try:
            rows = data["table"]
            order = data["order"]
        except (KeyError, TypeError) as exc:
            raise MalformedTableError(f"missing field in semigroup JSON: {exc}") from exc
        if not isinstance(rows, list):
            raise MalformedTableError("table must be a list of rows")
        if isinstance(order, bool) or not isinstance(order, int) or order != len(rows):
            raise MalformedTableError("declared order does not match the table")
        n = len(rows)
        for row in rows:
            if not isinstance(row, list) or len(row) != n:
                raise MalformedTableError("table is not square")
            for x in row:
                _check_index(x, n, "entry")
        identity = data.get("identity")
        if identity is not None:
            _check_index(identity, n, "identity")
        generators = data.get("generators")
        if generators is not None:
            if not isinstance(generators, list):
                raise MalformedTableError("generators must be a list")
            for g in generators:
                _check_index(g, n, "generator")
        labels = data.get("labels")
        if labels is not None and not (
                isinstance(labels, list) and all(isinstance(x, str) for x in labels)):
            raise MalformedTableError("labels must be a list of strings")
        return cls.from_table(rows, identity=identity, labels=labels, generators=generators)

    @classmethod
    def from_json(cls, text: str) -> "FiniteSemigroup":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MalformedTableError(f"invalid JSON: {exc}") from exc
        return cls.from_json_dict(data)


def adjoin_identity(s: FiniteSemigroup) -> FiniteSemigroup:
    """S^1: adjoin a fresh identity as the last element (always fresh)."""
    n = s.order
    rows = [list(row) + [a] for a, row in enumerate(s.table)]
    rows.append(list(range(n + 1)))
    labels = tuple(s.labels) + ("1",) if s.labels is not None else None
    return FiniteSemigroup.from_table(rows, identity=n, labels=labels)


def monoid_of(s: FiniteSemigroup) -> FiniteSemigroup:
    """The semigroup itself when it has an identity, else S^1."""
    return s if s.identity is not None else adjoin_identity(s)


# ---------------------------------------------------------------------------
# omega powers


@dataclass(frozen=True)
class MonogenicProfile:
    """Index/period data of the cyclic subsemigroup generated by one element.

    s^index is the first power falling on the cycle, which has length
    period; omega is the unique idempotent power and omega_minus_one the
    inverse of s*omega within the cycle's group.
    """

    element: int
    index: int
    period: int
    omega: int
    omega_minus_one: int


def monogenic_profile(s: FiniteSemigroup, x: int) -> MonogenicProfile:
    s.check_element(x)
    seen: dict[int, int] = {}
    powers = [x]
    seen[x] = 1
    cur = x
    k = 1
    while True:
        cur = s.table[cur][x]
        k += 1
        if cur in seen:
            index = seen[cur]
            period = k - index
            break
        seen[cur] = k
        powers.append(cur)
    omega = powers[_cycle_exponent(index, period, 0) - 1]
    omega_minus_one = powers[_cycle_exponent(index, period, -1) - 1]
    return MonogenicProfile(element=x, index=index, period=period,
                            omega=omega, omega_minus_one=omega_minus_one)


def _cycle_exponent(index: int, period: int, offset: int) -> int:
    """Least t >= max(index, 1) with t = offset (mod period)."""
    t = max(index, 1)
    shift = (offset - t) % period
    return t + shift


def omega_power(s: FiniteSemigroup, x: int, offset: int = 0) -> int:
    """x^(omega+offset) for any integer offset."""
    profile = monogenic_profile(s, x)
    t = _cycle_exponent(profile.index, profile.period, offset)
    return s.power(x, t)


# ---------------------------------------------------------------------------
# Green's relations


@dataclass(frozen=True)
class GreenData:
    """Partitions of the element set into R/L/J/H classes.

    Classes are tuples of sorted element indices, listed in order of their
    least member.  j_order contains a pair (i, j) when the i-th J-class is
    below-or-equal the j-th in the ideal order.
    """

    r_classes: tuple[tuple[int, ...], ...]
    l_classes: tuple[tuple[int, ...], ...]
    j_classes: tuple[tuple[int, ...], ...]
    h_classes: tuple[tuple[int, ...], ...]
    j_order: frozenset[tuple[int, int]]

    def class_of(self, which: str, x: int) -> tuple[int, ...]:
        classes = getattr(self, f"{which}_classes")
        for cls in classes:
            if x in cls:
                return cls
        raise KeyError(x)


def _partition_from_keys(keys: list) -> tuple[tuple[int, ...], ...]:
    groups: dict = {}
    for x, key in enumerate(keys):
        groups.setdefault(key, []).append(x)
    return tuple(tuple(g) for g in sorted(groups.values(), key=lambda g: g[0]))


def green_relations(s: FiniteSemigroup) -> GreenData:
    """Green's relations from the Cayley graphs over a generating set.

    y lies in xS^1 exactly when the right Cayley graph x -> xa has a path
    from x to y, so the R-classes are its strongly connected components.
    L and J come likewise from the left graph and from the union of both
    (J = D in a finite semigroup), H is R meet L, and the J-order is
    reachability between J-components.
    """
    t = s.table
    n = s.order
    gens = _greedy_generators(t)
    right = [[tx[a] for a in gens] for tx in t]
    left = [[t[a][x] for a in gens] for x in range(n)]
    both = [r + l for r, l in zip(right, left)]
    r_comp = scc(n, right.__getitem__)
    l_comp = scc(n, left.__getitem__)
    j_comp = scc(n, both.__getitem__)
    j_classes = _partition_from_keys(j_comp)
    # below[c] is the bitset of the components reachable from c.  Tarjan
    # numbers a component after every one it reaches, so a pass in
    # component order reads only finished sets.
    below = [1 << c for c in range(len(j_classes))]
    for x in sorted(range(n), key=j_comp.__getitem__):
        for y in both[x]:
            below[j_comp[x]] |= below[j_comp[y]]
    comps = [j_comp[cls[0]] for cls in j_classes]
    order = frozenset(
        (i, j) for j, cj in enumerate(comps) for i, ci in enumerate(comps)
        if below[cj] >> ci & 1)
    return GreenData(
        r_classes=_partition_from_keys(r_comp),
        l_classes=_partition_from_keys(l_comp),
        j_classes=j_classes,
        h_classes=_partition_from_keys(list(zip(r_comp, l_comp))),
        j_order=order,
    )


@dataclass(frozen=True)
class StructuralProfile:
    is_group: bool
    is_aperiodic: bool
    is_j_trivial: bool
    is_semilattice: bool
    is_nilpotent: bool
    is_completely_regular: bool


def structural_predicates(s: FiniteSemigroup) -> StructuralProfile:
    green = green_relations(s)
    idempotents = set(s.idempotents())
    single_h = len(green.h_classes) == 1
    is_group = single_h and bool(idempotents)
    is_aperiodic = all(monogenic_profile(s, x).period == 1 for x in range(s.order))
    is_j_trivial = all(len(c) == 1 for c in green.j_classes)
    is_semilattice = s.is_commutative() and len(idempotents) == s.order
    is_nilpotent = False
    if len(idempotents) == 1:
        z = next(iter(idempotents))
        is_nilpotent = all(s.table[z][x] == z == s.table[x][z] for x in range(s.order))
    is_completely_regular = all(
        any(e in cls for e in idempotents)
        for cls in green.h_classes
    )
    return StructuralProfile(
        is_group=is_group,
        is_aperiodic=is_aperiodic,
        is_j_trivial=is_j_trivial,
        is_semilattice=is_semilattice,
        is_nilpotent=is_nilpotent,
        is_completely_regular=is_completely_regular,
    )


# ---------------------------------------------------------------------------
# closure engine

UnaryRule = Callable[[int], Iterable[int]]


def subsemigroup_closure(s: FiniteSemigroup, seed: Iterable[int],
                         extra_rules: Sequence[UnaryRule] = (),
                         trace: Optional[list] = None) -> frozenset[int]:
    """Least superset of seed closed under the product and the given rules.

    Rules map an element to further elements that must be included.  When
    `trace` is a list, every addition is appended as (new, reason, source),
    where reason is "product" or the index of the rule that fired.
    """
    closed = set(seed)
    if not closed:
        raise KitError("closure seed must be nonempty")
    work = list(closed)
    while work:
        x = work.pop()
        for y in tuple(closed):
            for reason, z in (("product", s.table[x][y]), ("product", s.table[y][x])):
                if z not in closed:
                    closed.add(z)
                    work.append(z)
                    if trace is not None:
                        trace.append((z, reason, (x, y)))
        for rule_id, rule in enumerate(extra_rules):
            for z in rule(x):
                if z not in closed:
                    closed.add(z)
                    work.append(z)
                    if trace is not None:
                        trace.append((z, rule_id, x))
    return frozenset(closed)


# ---------------------------------------------------------------------------
# exhaustive enumeration of small semigroups


def _search_tables(n: int) -> list[Table]:
    """Backtracking search for associative n-by-n tables.

    Cells are filled in row-major order; after each assignment only the
    triples that the new cell can complete are rechecked.
    """
    table = [[-1] * n for _ in range(n)]
    rng = range(n)
    out: list[Table] = []

    def consistent(a: int, b: int) -> bool:
        # Check every triple whose evaluation the cell (a, b) may complete:
        # it can appear as (x, y), as (y, z), inside the left side as
        # (x*y, z), or inside the right side as (x, y*z).
        c = table[a][b]
        ta, tb, tc = table[a], table[b], table[c]
        for z in rng:
            bz = tb[z]
            if bz >= 0:
                lhs = tc[z]
                rhs = ta[bz]
                if lhs >= 0 and rhs >= 0 and lhs != rhs:
                    return False
        for x in rng:
            xa = table[x][a]
            if xa >= 0:
                lhs = table[xa][b]
                rhs = table[x][c]
                if lhs >= 0 and rhs >= 0 and lhs != rhs:
                    return False
        for x in rng:
            tx = table[x]
            for y in rng:
                if tx[y] == a:
                    # triple (x, y, b): its left side is the new cell
                    yb = table[y][b]
                    if yb >= 0:
                        rhs = tx[yb]
                        if rhs >= 0 and rhs != c:
                            return False
        for y in rng:
            ty = table[y]
            for z in rng:
                if ty[z] == b:
                    # triple (a, y, z): its right side is the new cell
                    ay = ta[y]
                    if ay >= 0:
                        lhs = table[ay][z]
                        if lhs >= 0 and lhs != c:
                            return False
        return True

    cells = [(i, j) for i in rng for j in rng]

    def fill(k: int):
        if k == len(cells):
            out.append(tuple(tuple(row) for row in table))
            return
        i, j = cells[k]
        for v in rng:
            table[i][j] = v
            if consistent(i, j):
                fill(k + 1)
        table[i][j] = -1

    fill(0)
    return out


@functools.lru_cache(maxsize=None)
def associative_tables(n: int) -> tuple[Table, ...]:
    """All associative tables on {0..n-1}, in search order."""
    if not 1 <= n <= ENUMERATION_LIMIT:
        raise UnsupportedOrderError(f"enumeration supports orders 1..{ENUMERATION_LIMIT}")
    return tuple(_search_tables(n))


def canonical_form(rows: Sequence[Sequence[int]]) -> Table:
    """Lexicographically least relabeling of the table (isomorphism only)."""
    table = _freeze_table(rows)
    n = len(table)
    best: Optional[Table] = None
    for perm in itertools.permutations(range(n)):
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        relabeled = tuple(
            tuple(inv[table[perm[i]][perm[j]]] for j in range(n)) for i in range(n)
        )
        if best is None or relabeled < best:
            best = relabeled
    assert best is not None
    return best


@functools.lru_cache(maxsize=None)
def _canonical_tables(n: int) -> tuple[Table, ...]:
    seen: set[Table] = set()
    ordered: list[Table] = []
    for table in associative_tables(n):
        canon = canonical_form(table)
        if canon not in seen:
            seen.add(canon)
            ordered.append(canon)
    return tuple(ordered)


@functools.lru_cache(maxsize=None)
def _semigroups(n: int, upto_iso: bool) -> tuple[FiniteSemigroup, ...]:
    tables = _canonical_tables(n) if upto_iso else associative_tables(n)
    return tuple(FiniteSemigroup.from_table(table) for table in tables)


def enumerate_semigroups(n: int, upto_iso: bool = True) -> Iterator[FiniteSemigroup]:
    """Stream the semigroups of order n, one per isomorphism class by default.

    The frozen objects are built once per (n, upto_iso) and shared.
    """
    yield from _semigroups(n, upto_iso)
