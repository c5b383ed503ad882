"""Substitutions, sofic shifts, irreducibility and entropy.

A shift is handled through the deterministic automaton of a candidate
block language: the largest factorial sublanguage is carved out with a
suffix-tracking subset construction, then states off biinfinite paths
are discarded.  What remains is a presentation whose path language is
exactly the block language of the shift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._graph import explore, scc
from .errors import KitError, NonPrimitiveError, NotASubshiftError
from .languages import Dfa, minimize_dfa

# ---------------------------------------------------------------------------
# substitutions


@dataclass(frozen=True)
class Substitution:
    """Endomorphism of A+ determined by nonempty letter images."""

    alphabet: tuple[str, ...]
    images: tuple[str, ...]

    def __post_init__(self):
        if len(self.alphabet) != len(self.images) or not self.alphabet:
            raise KitError("substitution needs one image per letter")
        for w in self.images:
            if not w or any(ch not in self.alphabet for ch in w):
                raise KitError(f"image {w!r} is empty or uses foreign letters")

    def image_of(self, ch: str) -> str:
        return self.images[self.alphabet.index(ch)]

    def apply(self, word: str) -> str:
        return "".join(self.image_of(ch) for ch in word)

    def incidence_matrix(self) -> np.ndarray:
        """M[b][a] counts occurrences of letter b in the image of a."""
        k = len(self.alphabet)
        m = np.zeros((k, k), dtype=np.int64)
        for a, image in enumerate(self.images):
            for ch in image:
                m[self.alphabet.index(ch)][a] += 1
        return m


def parse_substitution(text: str) -> Substitution:
    """Format: 'a->ab; b->ba' (letters single alphanumerics)."""
    letters = []
    images = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if "->" not in part:
            raise KitError(f"substitution rule {part!r} lacks '->'")
        lhs, rhs = (side.strip() for side in part.split("->", 1))
        if len(lhs) != 1 or not lhs.isalnum():
            raise KitError(f"rule source must be a single letter, got {lhs!r}")
        if lhs in letters:
            raise KitError(f"duplicate rule for letter {lhs!r}")
        letters.append(lhs)
        images.append(rhs)
    return Substitution(alphabet=tuple(letters), images=tuple(images))


def wielandt_bound(k: int) -> int:
    return (k - 1) ** 2 + 1


def is_primitive(s: Substitution) -> bool:
    """Primitivity through the incidence matrix at the Wielandt exponent."""
    booleanized = (s.incidence_matrix() > 0).astype(np.int64)
    power = np.eye(len(s.alphabet), dtype=np.int64)
    for _ in range(wielandt_bound(len(s.alphabet))):
        power = ((power @ booleanized) > 0).astype(np.int64)
    return bool((power > 0).all())


def substitution_blocks(s: Substitution, n: int) -> frozenset[str]:
    """All length-n blocks of the subshift of a primitive substitution.

    Iterates the substitution from every letter and accumulates length-n
    factors until the set is stable for two successive rounds, which is
    sound here because the accumulated sets grow monotonically toward
    the finite block set.
    """
    if n < 1:
        raise KitError("block length must be positive")
    if not is_primitive(s):
        raise NonPrimitiveError("block extraction requires a primitive substitution")
    words = list(s.images)
    blocks: set[str] = set()
    stable_rounds = 0
    while stable_rounds < 2:
        words = [s.apply(w) for w in words]
        before = len(blocks)
        for w in words:
            for i in range(len(w) - n + 1):
                blocks.add(w[i:i + n])
        if len(blocks) == before and all(len(w) >= n for w in words):
            stable_rounds += 1
        else:
            stable_rounds = 0
    return frozenset(blocks)


# ---------------------------------------------------------------------------
# sofic shifts


@dataclass(frozen=True)
class SoficShift:
    """A sofic shift given by its trimmed block presentation.

    `nodes` and `edges` form the graph whose path labels are exactly the
    blocks; `block_dfa` is its determinization (complete, with a sink),
    used for exact block counting; `presentation` is the input automaton.
    """

    alphabet: tuple[str, ...]
    presentation: Dfa
    nodes: tuple[int, ...]
    edges: tuple[tuple[int, str, int], ...]
    block_dfa: Dfa

    def block_count(self, n: int) -> int:
        counts = [0] * self.block_dfa.n_states
        counts[self.block_dfa.initial] = 1
        for _ in range(n):
            nxt = [0] * self.block_dfa.n_states
            for state, c in enumerate(counts):
                if c:
                    for a in range(len(self.alphabet)):
                        nxt[self.block_dfa.transition[state][a]] += c
            counts = nxt
        return sum(c for state, c in enumerate(counts)
                   if c and state in self.block_dfa.finals)

    def blocks(self, n: int) -> frozenset[str]:
        out = []
        frontier: list[tuple[int, str]] = [(self.block_dfa.initial, "")]
        for _ in range(n):
            nxt = []
            for state, word in frontier:
                for a, ch in enumerate(self.alphabet):
                    t = self.block_dfa.transition[state][a]
                    if t in self.block_dfa.finals:
                        nxt.append((t, word + ch))
            frontier = nxt
        return frozenset(word for _, word in frontier)

    def is_block(self, word: str) -> bool:
        if not word:
            return False
        state = self.block_dfa.initial
        for ch in word:
            state = self.block_dfa.step(state, ch)
        return state in self.block_dfa.finals


Rows = Sequence[Sequence[Optional[int]]]  # rows[node][letter], None for no move


def _suffix_graph(dfa: Dfa) -> Rows:
    """Deterministic graph of the largest factorial sublanguage.

    A node is the set of states reached by running every suffix of the
    word read so far from the initial state; a letter move survives only
    when all extended suffixes stay accepting, i.e. every factor ending
    at the new position belongs to the language.
    """
    def successors(current: frozenset[int]) -> list[Optional[frozenset[int]]]:
        out = []
        for a in range(len(dfa.alphabet)):
            stepped = frozenset(dfa.transition[s][a] for s in current)
            out.append(stepped | {dfa.initial} if stepped <= dfa.finals else None)
        return out

    return explore(frozenset([dfa.initial]), successors)[1]


def _biinfinite_trim(rows: Rows) -> set[int]:
    live = set(range(len(rows)))
    changed = True
    while changed:
        changed = False
        incoming = {q for p in live for q in rows[p] if q in live}
        for p in tuple(live):
            has_out = any(q in live for q in rows[p])
            if not has_out or p not in incoming:
                live.discard(p)
                changed = True
    return live


def _determinize_graph(alphabet: Sequence[str], starts: frozenset[int],
                       rows: Rows,
                       live: set[int]) -> Dfa:
    """Subset construction over the multi-start path graph; sink completes."""
    letters = range(len(alphabet))
    order, table = explore(starts & live, lambda current: [
        frozenset(rows[p][a] for p in current) & live for a in letters])
    finals = frozenset(i for i, ss in enumerate(order) if ss)
    return Dfa(n_states=len(order), alphabet=tuple(alphabet),
               transition=tuple(table), initial=0, finals=finals)


def factorial_trim(dfa: Dfa) -> SoficShift:
    """Extract the sofic shift presented by a candidate block language."""
    dfa = minimize_dfa(dfa)
    rows = _suffix_graph(dfa)
    live = _biinfinite_trim(rows)
    if not live:
        raise NotASubshiftError("no biinfinite paths: the language presents no subshift")
    node_ids = tuple(sorted(live))
    edge_list = tuple(sorted(
        (p, ch, q) for p in node_ids for ch, q in zip(dfa.alphabet, rows[p]) if q in live))
    block_dfa = _determinize_graph(dfa.alphabet, frozenset(live), rows, live)
    return SoficShift(
        alphabet=dfa.alphabet,
        presentation=dfa,
        nodes=node_ids,
        edges=edge_list,
        block_dfa=block_dfa,
    )


def is_irreducible(shift: SoficShift) -> bool:
    """Does one strongly connected component carry the whole block language?

    Strong connectivity of the trimmed presentation suffices, but shifts
    with transient presentation states (such as the even shift) need the
    weaker test that some component's path language covers every block.
    """
    n = max(shift.nodes) + 1
    rows: list[list[Optional[int]]] = [[None] * len(shift.alphabet) for _ in range(n)]
    for p, ch, q in shift.edges:
        rows[p][shift.alphabet.index(ch)] = q
    comp = scc(n, lambda p: [q for q in rows[p] if q is not None])
    components: dict[int, set[int]] = {}
    for p in shift.nodes:
        components.setdefault(comp[p], set()).add(p)
    if len(components) == 1:
        return True
    for members in components.values():
        comp_dfa = _determinize_graph(shift.alphabet, frozenset(members), rows, members)
        if _covers(shift.block_dfa, comp_dfa):
            return True
    return False


def _covers(block_dfa: Dfa, candidate: Dfa) -> bool:
    """Is every word of block_dfa accepted by candidate (both factorial)?"""
    seen = {(block_dfa.initial, candidate.initial)}
    stack = [(block_dfa.initial, candidate.initial)]
    while stack:
        p, q = stack.pop()
        for a in range(len(block_dfa.alphabet)):
            p2 = block_dfa.transition[p][a]
            q2 = candidate.transition[q][a]
            if p2 not in block_dfa.finals:
                continue
            if q2 not in candidate.finals:
                return False
            if (p2, q2) not in seen:
                seen.add((p2, q2))
                stack.append((p2, q2))
    return True


def entropy(shift: SoficShift) -> float:
    """log2 of the spectral radius of the deterministic presentation."""
    live = sorted(shift.block_dfa.finals)
    index = {s: i for i, s in enumerate(live)}
    size = len(live)
    adjacency = np.zeros((size, size), dtype=np.float64)
    for s in live:
        for a in range(len(shift.alphabet)):
            t = shift.block_dfa.transition[s][a]
            if t in index:
                adjacency[index[s]][index[t]] += 1.0
    radius = max(abs(np.linalg.eigvals(adjacency)))
    return float(np.log2(radius))


def forbid_factor(shift: SoficShift, factor: str) -> SoficShift:
    """The subshift of all points of `shift` avoiding the given factor."""
    if not factor:
        raise KitError("the forbidden factor must be nonempty")
    base = shift.block_dfa
    # product with the automaton tracking the longest suffix matching a
    # prefix of the factor; hitting the full factor is fatal
    def advance(matched: int, ch: str) -> int:
        candidate = factor[:matched] + ch
        while candidate:
            if factor.startswith(candidate):
                return len(candidate)
            candidate = candidate[1:]
        return 0

    sink = (-1, -1)  # joint sink, absorbing

    def successors(key: tuple[int, int]) -> list[tuple[int, int]]:
        if key == sink:
            return [sink] * len(base.alphabet)
        state, matched = key
        out = []
        for t, ch in zip(base.transition[state], base.alphabet):
            m2 = advance(matched, ch)
            out.append(sink if t not in base.finals or m2 == len(factor) else (t, m2))
        return out

    order, rows = explore((base.initial, 0), successors)
    finals = frozenset(i for i, key in enumerate(order) if key != sink)
    pruned = Dfa(n_states=len(order), alphabet=base.alphabet,
                 transition=tuple(rows), initial=0, finals=finals)
    return factorial_trim(pruned)
