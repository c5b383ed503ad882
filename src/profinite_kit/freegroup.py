"""Free groups: reduced words, Stallings graphs and rational subsets.

Words over a doubled alphabet (letter, sign) represent elements of the
free group FG(A).  Finitely generated subgroups are handled through
folded core graphs; general rational subsets through automata over the
doubled alphabet with Benois saturation, which makes membership of a
reduced word decidable by plain automaton simulation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Optional, Sequence

from ._graph import explore, reachable
from .errors import FoldingError, WordDomainError

SignedLetter = tuple[str, int]
GroupWord = tuple[SignedLetter, ...]

EPSILON_WORD: GroupWord = ()


def inverse_letter(x: SignedLetter) -> SignedLetter:
    return (x[0], -x[1])


def letter_sort_key(x: SignedLetter) -> tuple[str, int]:
    # a+ < a- < b+ < b- < ...
    return (x[0], 0 if x[1] > 0 else 1)


def reduce_word(raw: Iterable[SignedLetter]) -> GroupWord:
    """Free reduction; independent of cancellation order."""
    stack: list[SignedLetter] = []
    for x in raw:
        if x[1] not in (1, -1) or not x[0]:
            raise WordDomainError(f"bad signed letter {x!r}")
        if stack and stack[-1] == inverse_letter(x):
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def invert_word(w: GroupWord) -> GroupWord:
    return tuple(inverse_letter(x) for x in reversed(w))


def positive_word(text: str) -> GroupWord:
    return tuple((ch, 1) for ch in text)


def parse_group_word(text: str) -> GroupWord:
    """Letters with an optional ' suffix for the inverse; ~ is the identity."""
    text = text.strip()
    if text in ("", "~"):
        return EPSILON_WORD
    out: list[SignedLetter] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if not ch.isalnum():
            raise WordDomainError(f"bad character {ch!r} in group word {text!r}")
        i += 1
        if i < len(text) and text[i] == "'":
            out.append((ch, -1))
            i += 1
        else:
            out.append((ch, 1))
    return reduce_word(out)


def format_group_word(w: GroupWord) -> str:
    if not w:
        return "~"
    return "".join(ch + ("'" if sign < 0 else "") for ch, sign in w)


# ---------------------------------------------------------------------------
# automata over the doubled alphabet


@dataclass(frozen=True)
class GroupAutomaton:
    """Automaton over signed letters, with optional epsilon edges.

    `saturated`: the epsilon edges are transitively closed and Benois adds
    none, so a reduced word lies in the reduced language iff the literal
    word is accepted.  `folded` marks deterministic inverse-closed
    subgroup graphs whose single base state is both initial and final.
    """

    alphabet: tuple[str, ...]
    n_states: int
    edges: frozenset[tuple[int, SignedLetter, int]]
    eps: frozenset[tuple[int, int]] = frozenset()
    initials: frozenset[int] = frozenset([0])
    finals: frozenset[int] = frozenset([0])
    saturated: bool = False
    folded: bool = False

    @cached_property
    def step_map(self) -> dict[tuple[int, SignedLetter], int]:
        """(state, letter) -> target, built once; deterministic graphs only."""
        return {(p, x): q for p, x, q in self.edges}


def empty_automaton(alphabet: Iterable[str]) -> GroupAutomaton:
    return GroupAutomaton(
        alphabet=tuple(sorted(alphabet)), n_states=1, edges=frozenset(),
        initials=frozenset([0]), finals=frozenset(), saturated=True)


def _indexes(m: GroupAutomaton):
    fwd: dict[SignedLetter, dict[int, list[int]]] = {}
    bwd: dict[SignedLetter, dict[int, list[int]]] = {}
    for p, x, q in m.edges:
        fwd.setdefault(x, {}).setdefault(p, []).append(q)
        bwd.setdefault(x, {}).setdefault(q, []).append(p)
    return fwd, bwd


def benois_saturate(m: GroupAutomaton) -> GroupAutomaton:
    """Add an epsilon edge wherever a path spells a word reducing to one.

    Incremental fixpoint over epsilon-reachability pairs: a pair (r, r')
    with r' epsilon-reachable from r fires the cancellation rule
    p -x-> r ... r' -x^{-1}-> q, adding the pair (p, q).
    """
    if m.saturated:
        return m
    fwd, bwd = _indexes(m)
    n = m.n_states
    reach: list[set[int]] = [{p} for p in range(n)]
    reach_rev: list[set[int]] = [{p} for p in range(n)]
    work: deque[tuple[int, int]] = deque((p, p) for p in range(n))

    def add_pair(u: int, v: int):
        if v in reach[u]:
            return
        for p in tuple(reach_rev[u]):
            targets = reach[v] - reach[p]
            for q in targets:
                reach[p].add(q)
                reach_rev[q].add(p)
                work.append((p, q))

    for p, q in m.eps:
        add_pair(p, q)
    while work:
        r, r2 = work.popleft()
        for x, back in bwd.items():
            sources = back.get(r)
            if not sources:
                continue
            outs = fwd.get(inverse_letter(x), {}).get(r2)
            if not outs:
                continue
            for p in sources:
                for q in outs:
                    add_pair(p, q)
    eps = frozenset(
        (p, q) for p in range(n) for q in reach[p] if p != q)
    return replace(m, eps=eps, saturated=True)


def _eps_closure_map(m: GroupAutomaton) -> list[frozenset[int]]:
    adj: list[list[int]] = [[] for _ in range(m.n_states)]
    for p, q in m.eps:
        adj[p].append(q)
    return [frozenset(reachable([s], adj.__getitem__)) if adj[s] else frozenset([s])
            for s in range(m.n_states)]


class ReducedWordMatcher:
    """Reusable membership tester for the reduced language of an automaton.

    Saturates once and precomputes epsilon closures, so repeated queries
    cost a plain subset simulation.
    """

    def __init__(self, m: GroupAutomaton):
        self.automaton = benois_saturate(m)
        self._closure = [{s} for s in range(self.automaton.n_states)]
        for p, q in self.automaton.eps:  # saturated eps edges are transitive
            self._closure[p].add(q)
        self._fwd, _ = _indexes(self.automaton)
        start: set[int] = set()
        for p in self.automaton.initials:
            start |= self._closure[p]
        self.start = frozenset(start)

    def step(self, states: frozenset[int], x: SignedLetter) -> frozenset[int]:
        table = self._fwd.get(x, {})
        nxt: set[int] = set()
        for p in states:
            for q in table.get(p, ()):
                nxt |= self._closure[q]
        return frozenset(nxt)

    def accepts(self, w: GroupWord) -> bool:
        if reduce_word(w) != tuple(w):
            raise WordDomainError(f"word {format_group_word(w)} is not reduced")
        states = self.start
        for x in w:
            states = self.step(states, x)
            if not states:
                return False
        return bool(states & self.automaton.finals)


def trim(m: GroupAutomaton) -> GroupAutomaton:
    """Restrict to states on some path from an initial to a final state."""
    succ: list[list[int]] = [[] for _ in range(m.n_states)]
    pred: list[list[int]] = [[] for _ in range(m.n_states)]
    for p, _x, q in m.edges:
        succ[p].append(q)
        pred[q].append(p)
    for p, q in m.eps:
        succ[p].append(q)
        pred[q].append(p)
    live = reachable(m.initials, succ.__getitem__) & reachable(m.finals, pred.__getitem__)
    if not live:
        return empty_automaton(m.alphabet)
    order = sorted(live)
    relabel = {s: i for i, s in enumerate(order)}
    return GroupAutomaton(
        alphabet=m.alphabet,
        n_states=len(order),
        edges=frozenset((relabel[p], x, relabel[q]) for p, x, q in m.edges
                        if p in live and q in live),
        eps=frozenset((relabel[p], relabel[q]) for p, q in m.eps
                      if p in live and q in live),
        initials=frozenset(relabel[p] for p in m.initials if p in live),
        finals=frozenset(relabel[p] for p in m.finals if p in live),
    )


def _eliminate_epsilon(m: GroupAutomaton) -> GroupAutomaton:
    if not m.eps:
        return m
    closure = _eps_closure_map(m)
    edges = set()
    for p, x, q in m.edges:
        for p0 in range(m.n_states):
            if p in closure[p0]:
                edges.add((p0, x, q))
    finals = frozenset(
        p for p in range(m.n_states) if closure[p] & m.finals)
    return replace(m, edges=frozenset(edges), eps=frozenset(), finals=finals)


# ---------------------------------------------------------------------------
# Stallings graphs


class _Folder:
    """Mutable doubled graph with union-find merging for folding."""

    def __init__(self):
        self.parent: list[int] = []
        self.adj: list[dict[SignedLetter, set[int]]] = []

    def new_state(self) -> int:
        self.parent.append(len(self.parent))
        self.adj.append({})
        return len(self.parent) - 1

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def add_edge(self, p: int, x: SignedLetter, q: int):
        self.adj[p].setdefault(x, set()).add(q)
        self.adj[q].setdefault(inverse_letter(x), set()).add(p)

    def _merge_into(self, a: int, b: int):
        # a, b are representatives; b is absorbed by a
        self.parent[b] = a
        for x, targets in self.adj[b].items():
            self.adj[a].setdefault(x, set()).update(targets)
        self.adj[b] = {}

    def fold(self):
        dirty = deque(range(len(self.parent)))
        while dirty:
            s = self.find(dirty.popleft())
            for x in list(self.adj[s]):
                targets = {self.find(q) for q in self.adj[s].get(x, ())}
                self.adj[s][x] = targets
                if len(targets) > 1:
                    it = iter(sorted(targets))
                    a = next(it)
                    for b in it:
                        if a != b:
                            self._merge_into(a, b)
                            dirty.append(a)
                    dirty.append(s)
                    break

    def core(self, base: int):
        # remove non-base leaves; a leaf has a single incident half-edge
        base = self.find(base)
        live = {self.find(s) for s in range(len(self.parent))
                if self.adj[self.find(s)] or self.find(s) == base}
        changed = True
        while changed:
            changed = False
            for s in tuple(live):
                if s == base:
                    continue
                half_edges = [
                    (x, self.find(q))
                    for x, targets in self.adj[s].items()
                    for q in targets if self.find(q) in live
                ]
                if len(half_edges) <= 1:
                    live.discard(s)
                    changed = True
        return live

    def to_automaton(self, base: int, alphabet: Iterable[str]) -> GroupAutomaton:
        self.fold()
        base = self.find(base)
        live = self.core(base)
        letters = sorted({x for s in live for x in self.adj[s]}, key=letter_sort_key)

        def successors(s: int) -> list[Optional[int]]:
            # folding leaves at most one target per letter
            out = []
            for x in letters:
                targets = self.adj[s].get(x)
                q = self.find(next(iter(targets))) if targets else None
                out.append(q if q in live else None)
            return out

        # breadth-first renumbering from the base for reproducible output
        order, rows = explore(base, successors)
        return GroupAutomaton(
            alphabet=tuple(sorted(alphabet)),
            n_states=len(order),
            edges=frozenset((p, x, q) for p, row in enumerate(rows)
                            for x, q in zip(letters, row) if q is not None),
            initials=frozenset([0]),
            finals=frozenset([0]),
            saturated=True,
            folded=True,
        )


def stallings_graph(gens: Sequence[GroupWord],
                    alphabet: Iterable[str] = ()) -> GroupAutomaton:
    """Folded core graph of the subgroup generated by the given words."""
    letters = set(alphabet)
    for g in gens:
        letters.update(ch for ch, _ in g)
    folder = _Folder()
    base = folder.new_state()
    for g in gens:
        g = reduce_word(g)
        if not g:
            continue
        prev = base
        for i, x in enumerate(g):
            nxt = base if i == len(g) - 1 else folder.new_state()
            folder.add_edge(prev, x, nxt)
            prev = nxt
    return folder.to_automaton(base, letters)


def subgroup_contains(graph: GroupAutomaton, w: GroupWord) -> bool:
    """Loop test at the base of a folded subgroup graph."""
    if not graph.folded:
        raise FoldingError("subgroup membership needs a folded graph")
    state = 0
    for x in reduce_word(w):
        nxt = graph.step_map.get((state, x))
        if nxt is None:
            return False
        state = nxt
    return state == 0


def generated_subgroup(m: GroupAutomaton) -> GroupAutomaton:
    """Stallings graph of the subgroup of FG(A) generated by L(m).

    Realized by trimming m, wedging all initial and final states into a
    single base point, doubling the edges and folding; the reduced
    language of the result is exactly <L(m)>.
    """
    m = trim(_eliminate_epsilon(m))
    if not m.finals:
        return stallings_graph([], m.alphabet)
    folder = _Folder()
    ids = [folder.new_state() for _ in range(m.n_states)]
    base = folder.new_state()
    for p in m.initials | m.finals:
        folder.parent[ids[p]] = base  # wedge onto the base point
    for p, x, q in m.edges:
        folder.add_edge(folder.find(ids[p]), x, folder.find(ids[q]))
    return folder.to_automaton(base, m.alphabet)


# ---------------------------------------------------------------------------
# intersections of reduced languages


def rational_intersection_witness(automata: Sequence[GroupAutomaton]
                                  ) -> Optional[GroupWord]:
    """Shortest reduced word in every automaton's reduced language.

    Breadth-first search over the synchronous product, forbidding
    immediate backtracking so only reduced words are explored; ties are
    broken toward the lexicographically least word (a+ < a- < b+ < ...).
    Returns None when the intersection is empty.
    """
    return _intersection_witness([ReducedWordMatcher(m) for m in automata])


def _intersection_witness(matchers: Sequence[ReducedWordMatcher]) -> Optional[GroupWord]:
    """`rational_intersection_witness` over matchers that are already built."""
    letters = sorted(
        {x for mt in matchers for _, x, _ in mt.automaton.edges} |
        {inverse_letter(x) for mt in matchers for _, x, _ in mt.automaton.edges},
        key=letter_sort_key)
    start = tuple(mt.start for mt in matchers)

    def accepting(config) -> bool:
        return all(states & mt.automaton.finals for states, mt in zip(config, matchers))

    if accepting(start):
        return EPSILON_WORD
    seen = {(start, None)}
    queue: deque[tuple[tuple, Optional[SignedLetter], GroupWord]] = deque(
        [(start, None, EPSILON_WORD)])
    while queue:
        config, last, word = queue.popleft()
        for x in letters:
            if last is not None and x == inverse_letter(last):
                continue
            nxt = tuple(mt.step(states, x) for mt, states in zip(matchers, config))
            if any(not states for states in nxt):
                continue
            key = (nxt, x)
            if key in seen:
                continue
            seen.add(key)
            extended = word + (x,)
            if accepting(nxt):
                return extended
            queue.append((nxt, x, extended))
    return None
