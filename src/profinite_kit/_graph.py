"""Worklist walks shared by every automaton construction.

States are hashable values and edges come from a `successors` callable,
so subset constructions, product automata and plain adjacency lists all
use the same two loops.  Passing a bound method such as
`dfa.transition.__getitem__` keeps the cost at one call per state.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Optional, Sequence


def explore(start: Hashable,
            successors: Callable[[Hashable], Sequence[Optional[Hashable]]]
            ) -> tuple[list, list[tuple[Optional[int], ...]]]:
    """Number the states reachable from `start` in breadth-first order.

    `successors(state)` gives one next state per letter, or None where the
    letter has no move.  Returns the states by number (`start` is 0) and,
    for each state, its row of successor numbers with None kept in place.
    """
    index = {start: 0}
    states = [start]
    rows = []
    for state in states:  # the list grows while it is walked
        row = []
        for nxt in successors(state):
            if nxt is not None and nxt not in index:
                index[nxt] = len(states)
                states.append(nxt)
            row.append(None if nxt is None else index[nxt])
        rows.append(tuple(row))
    return states, rows


def reachable(starts: Iterable[Hashable],
              successors: Callable[[Hashable], Iterable[Hashable]]) -> set:
    """Every state reachable from the start states, the starts included."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for nxt in successors(stack.pop()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen
