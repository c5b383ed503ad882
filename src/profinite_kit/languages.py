"""Regular-language frontend: regexes, automata and syntactic semigroups.

Languages are semigroup-first (subsets of A+); whether the empty word is
accepted travels alongside as an explicit flag instead of being folded
into the algebra silently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ._graph import explore, reachable
from .errors import KitError, RegexSyntaxError, WordDomainError
from .semigroups import FiniteSemigroup

# ---------------------------------------------------------------------------
# regex AST


@dataclass(frozen=True)
class Empty:
    pass


@dataclass(frozen=True)
class Epsilon:
    pass


@dataclass(frozen=True)
class Letter:
    char: str


@dataclass(frozen=True)
class Union:
    left: "Regex"
    right: "Regex"


@dataclass(frozen=True)
class Concat:
    left: "Regex"
    right: "Regex"


@dataclass(frozen=True)
class Star:
    inner: "Regex"


@dataclass(frozen=True)
class Plus:
    inner: "Regex"


Regex = Empty | Epsilon | Letter | Union | Concat | Star | Plus


def regex_letters(r: Regex) -> frozenset[str]:
    if isinstance(r, Letter):
        return frozenset([r.char])
    if isinstance(r, (Union, Concat)):
        return regex_letters(r.left) | regex_letters(r.right)
    if isinstance(r, (Star, Plus)):
        return regex_letters(r.inner)
    return frozenset()


def regex_to_str(r: Regex) -> str:
    """Printer; parenthesizes so parse(print(r)) round-trips."""
    def prec(node: Regex) -> int:
        if isinstance(node, Union):
            return 0
        if isinstance(node, Concat):
            return 1
        return 2

    def wrap(node: Regex, level: int) -> str:
        text = regex_to_str(node)
        return f"({text})" if prec(node) < level else text

    if isinstance(r, Empty):
        return "#"
    if isinstance(r, Epsilon):
        return "~"
    if isinstance(r, Letter):
        return r.char
    if isinstance(r, Union):
        return f"{wrap(r.left, 0)}|{wrap(r.right, 0)}"
    if isinstance(r, Concat):
        return f"{wrap(r.left, 1)}{wrap(r.right, 1)}"
    if isinstance(r, Star):
        return f"{wrap(r.inner, 2)}*"
    return f"{wrap(r.inner, 2)}+"


# smart constructors used by dfa_to_regex to keep eliminated expressions small

def union_of(a: Regex, b: Regex) -> Regex:
    if isinstance(a, Empty):
        return b
    if isinstance(b, Empty):
        return a
    if a == b:
        return a
    return Union(a, b)


def concat_of(a: Regex, b: Regex) -> Regex:
    if isinstance(a, Empty) or isinstance(b, Empty):
        return Empty()
    if isinstance(a, Epsilon):
        return b
    if isinstance(b, Epsilon):
        return a
    return Concat(a, b)


def star_of(a: Regex) -> Regex:
    if isinstance(a, (Empty, Epsilon)):
        return Epsilon()
    if isinstance(a, Star):
        return a
    return Star(a)


class _RegexParser:
    """Recursive descent over: union > concat > postfix */+ > atoms."""

    def __init__(self, text: str, alphabet: frozenset[str]):
        self.text = text
        self.alphabet = alphabet
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> Regex:
        r = self.parse_union()
        if self.peek():
            raise RegexSyntaxError(f"unexpected {self.peek()!r}", self.pos)
        return r

    def parse_union(self) -> Regex:
        r = self.parse_concat()
        while self.peek() == "|":
            self.pos += 1
            r = Union(r, self.parse_concat())
        return r

    def parse_concat(self) -> Regex:
        r = self.parse_postfix()
        while True:
            ch = self.peek()
            if ch and (ch.isalnum() or ch in "(~#"):
                r = Concat(r, self.parse_postfix())
            else:
                return r

    def parse_postfix(self) -> Regex:
        r = self.parse_atom()
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                r = Star(r)
            elif ch == "+":
                self.pos += 1
                r = Plus(r)
            else:
                return r

    def parse_atom(self) -> Regex:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            r = self.parse_union()
            if self.peek() != ")":
                raise RegexSyntaxError("expected ')'", self.pos)
            self.pos += 1
            return r
        if ch == "~":
            self.pos += 1
            return Epsilon()
        if ch == "#":
            self.pos += 1
            return Empty()
        if ch.isalnum():
            if ch not in self.alphabet:
                raise RegexSyntaxError(f"letter {ch!r} outside alphabet", self.pos)
            self.pos += 1
            return Letter(ch)
        raise RegexSyntaxError("expected a letter, '(', '~' or '#'", self.pos)


def parse_regex(text: str, alphabet: Iterable[str]) -> Regex:
    letters = frozenset(alphabet)
    for ch in letters:
        if len(ch) != 1 or not ch.isalnum():
            raise KitError(f"alphabet letters must be single alphanumerics, got {ch!r}")
    return _RegexParser(text, letters).parse()


# ---------------------------------------------------------------------------
# automata


@dataclass(frozen=True)
class Dfa:
    """Complete deterministic automaton; transitions are total by invariant."""

    n_states: int
    alphabet: tuple[str, ...]
    transition: tuple[tuple[int, ...], ...]  # transition[state][letter_index]
    initial: int
    finals: frozenset[int]

    def letter_index(self, ch: str) -> int:
        try:
            return self.alphabet.index(ch)
        except ValueError:
            raise WordDomainError(f"letter {ch!r} outside alphabet {self.alphabet}") from None

    def step(self, state: int, ch: str) -> int:
        return self.transition[state][self.letter_index(ch)]

    def accepts(self, word: str) -> bool:
        state = self.initial
        for ch in word:
            state = self.step(state, ch)
        return state in self.finals


def _nfa_of_regex(r: Regex, alphabet: Sequence[str]):
    """Thompson construction; returns (n_states, eps, moves, initial, final)."""
    eps: list[tuple[int, int]] = []
    moves: list[tuple[int, str, int]] = []
    counter = itertools.count()

    def build(node: Regex) -> tuple[int, int]:
        start, end = next(counter), next(counter)
        if isinstance(node, Empty):
            pass
        elif isinstance(node, Epsilon):
            eps.append((start, end))
        elif isinstance(node, Letter):
            moves.append((start, node.char, end))
        elif isinstance(node, Union):
            for part in (node.left, node.right):
                s, e = build(part)
                eps.append((start, s))
                eps.append((e, end))
        elif isinstance(node, Concat):
            s1, e1 = build(node.left)
            s2, e2 = build(node.right)
            eps.extend([(start, s1), (e1, s2), (e2, end)])
        elif isinstance(node, Star):
            s, e = build(node.inner)
            eps.extend([(start, s), (e, end), (start, end), (e, s)])
        elif isinstance(node, Plus):
            s, e = build(node.inner)
            eps.extend([(start, s), (e, end), (e, s)])
        else:
            raise KitError(f"unknown regex node {node!r}")
        return start, end

    initial, final = build(r)
    return next(counter), eps, moves, initial, final


def _determinize(n: int, eps, moves, initial: int, final: int,
                 alphabet: Sequence[str]) -> Dfa:
    eps_adj: list[list[int]] = [[] for _ in range(n)]
    for p, q in eps:
        eps_adj[p].append(q)
    move_map: dict[tuple[int, str], list[int]] = {}
    for p, ch, q in moves:
        move_map.setdefault((p, ch), []).append(q)

    def closure(states: Iterable[int]) -> frozenset[int]:
        return frozenset(reachable(states, eps_adj.__getitem__))

    order, rows = explore(closure([initial]), lambda current: [
        closure(q for p in current for q in move_map.get((p, ch), ())) for ch in alphabet])
    finals = frozenset(i for i, ss in enumerate(order) if final in ss)
    return Dfa(
        n_states=len(order),
        alphabet=tuple(alphabet),
        transition=tuple(rows),
        initial=0,
        finals=finals,
    )


def minimize_dfa(dfa: Dfa) -> Dfa:
    """Moore partition refinement on the reachable part; stays complete."""
    states = sorted(reachable([dfa.initial], dfa.transition.__getitem__))
    block = {s: (s in dfa.finals) for s in states}
    while True:
        signature = {
            s: (block[s], tuple(block[dfa.transition[s][a]] for a in range(len(dfa.alphabet))))
            for s in states
        }
        fresh: dict = {}
        for s in states:
            fresh.setdefault(signature[s], len(fresh))
        new_block = {s: fresh[signature[s]] for s in states}
        if len(set(new_block.values())) == len(set(block.values())):
            block = new_block
            break
        block = new_block
    n = len(set(block.values()))
    rows = [[0] * len(dfa.alphabet) for _ in range(n)]
    for s in states:
        for a in range(len(dfa.alphabet)):
            rows[block[s]][a] = block[dfa.transition[s][a]]
    return Dfa(
        n_states=n,
        alphabet=dfa.alphabet,
        transition=tuple(tuple(r) for r in rows),
        initial=block[dfa.initial],
        finals=frozenset(block[s] for s in states if s in dfa.finals),
    )


def to_minimal_dfa(r: Regex, alphabet: Optional[Iterable[str]] = None) -> Dfa:
    """Minimal complete DFA of the regex (a sink arises from completion)."""
    letters = tuple(sorted(frozenset(alphabet) if alphabet is not None else regex_letters(r)))
    nfa = _nfa_of_regex(r, letters)
    return minimize_dfa(_determinize(*nfa, letters))


def dfa_to_regex(dfa: Dfa) -> Regex:
    """Kleene state elimination over the reachable part of the automaton."""
    reach = reachable([dfa.initial], dfa.transition.__getitem__)
    states = sorted(reach)
    # generalized NFA with fresh start/accept nodes
    start, accept = "start", "accept"
    nodes: list = [start] + states + [accept]
    label: dict[tuple, Regex] = {}

    def add(p, q, r: Regex):
        label[(p, q)] = union_of(label.get((p, q), Empty()), r)

    add(start, dfa.initial, Epsilon())
    for s in states:
        if s in dfa.finals:
            add(s, accept, Epsilon())
        for a, ch in enumerate(dfa.alphabet):
            t = dfa.transition[s][a]
            if t in reach:
                add(s, t, Letter(ch))
    for mid in states:
        loop = star_of(label.get((mid, mid), Empty()))
        preds = [p for p in nodes if p != mid and (p, mid) in label]
        succs = [q for q in nodes if q != mid and (mid, q) in label]
        for p in preds:
            for q in succs:
                add(p, q, concat_of(concat_of(label[(p, mid)], loop), label[(mid, q)]))
        for key in [k for k in label if mid in k]:
            del label[key]
    return label.get((start, accept), Empty())


# ---------------------------------------------------------------------------
# syntactic semigroup


@dataclass(frozen=True)
class Morphism:
    """Letter-to-element map inducing a homomorphism from A+."""

    alphabet: tuple[str, ...]
    codomain: FiniteSemigroup
    letter_image: tuple[int, ...]

    def image_of_letter(self, ch: str) -> int:
        try:
            return self.letter_image[self.alphabet.index(ch)]
        except ValueError:
            raise WordDomainError(f"letter {ch!r} outside alphabet {self.alphabet}") from None

    def image_of_word(self, word: str) -> int:
        if not word:
            raise WordDomainError("a semigroup morphism has no image for the empty word")
        return self.codomain.product(self.image_of_letter(ch) for ch in word)


def recognizes(m: Morphism, accept: frozenset[int], word: str) -> bool:
    return m.image_of_word(word) in accept


def _compose(t1: tuple[int, ...], t2: tuple[int, ...]) -> tuple[int, ...]:
    # left-to-right: the word uv acts as u followed by v
    return tuple(t2[x] for x in t1)


def transition_semigroup(dfa: Dfa, include_identity: bool = False
                         ) -> tuple[FiniteSemigroup, Morphism, dict[tuple[int, ...], int]]:
    """Transformations of the state set induced by words.

    Generated by the letter actions; the identity transformation joins in
    only when some word induces it or include_identity forces it.
    """
    identity = tuple(range(dfa.n_states))
    letter_actions = [tuple(dfa.transition[s][a] for s in range(dfa.n_states))
                      for a in range(len(dfa.alphabet))]
    elements: list[tuple[int, ...]] = []
    index: dict[tuple[int, ...], int] = {}
    if include_identity:
        index[identity] = 0
        elements.append(identity)
    for action in letter_actions:
        if action not in index:
            index[action] = len(elements)
            elements.append(action)
    frontier = list(elements)
    while frontier:
        t = frontier.pop()
        for g in letter_actions:
            prod = _compose(t, g)
            if prod not in index:
                index[prod] = len(elements)
                elements.append(prod)
                frontier.append(prod)
    rows = tuple(tuple(index[_compose(a, b)] for b in elements) for a in elements)
    semigroup = FiniteSemigroup.from_table(rows)
    morphism = Morphism(
        alphabet=dfa.alphabet,
        codomain=semigroup,
        letter_image=tuple(index[a] for a in letter_actions),
    )
    return semigroup, morphism, index


@dataclass(frozen=True)
class SyntacticResult:
    """Syntactic semigroup of a regular language with its recognizing data.

    When the language contains the empty word the identity transformation
    is adjoined (as the image of the empty word) so the accept set can
    recognize it; `accepts_empty` records that flag either way.
    """

    semigroup: FiniteSemigroup
    morphism: Morphism
    accept: frozenset[int]
    accepts_empty: bool
    dfa: Dfa


def syntactic_semigroup(r: Regex, alphabet: Optional[Iterable[str]] = None) -> SyntacticResult:
    dfa = to_minimal_dfa(r, alphabet)
    accepts_empty = dfa.initial in dfa.finals
    semigroup, morphism, index = transition_semigroup(dfa, include_identity=accepts_empty)
    accept = frozenset(
        i for t, i in index.items() if t[dfa.initial] in dfa.finals)
    return SyntacticResult(
        semigroup=semigroup,
        morphism=morphism,
        accept=accept,
        accepts_empty=accepts_empty,
        dfa=dfa,
    )
