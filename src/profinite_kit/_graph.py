"""Worklist walks shared by every automaton construction.

States are hashable values and edges come from a `successors` callable,
so subset constructions, product automata and plain adjacency lists all
use the same two loops.  Passing a bound method such as
`dfa.transition.__getitem__` keeps the cost at one call per state.
`scc` splits a graph on the nodes 0..n-1 into strongly connected
components; Cayley graphs and shift presentations use it.
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


def scc(n: int, successors: Callable[[int], Iterable[int]]) -> list[int]:
    """Strongly connected components of a graph on the nodes 0..n-1.

    Tarjan's algorithm with an explicit stack.  Returns the component
    number of every node.  Components are numbered in reverse topological
    order: an edge never leads to a component with a larger number.
    """
    comp = [-1] * n
    index = [-1] * n
    low = [0] * n
    stack: list[int] = []
    counter = count = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(successors(root)))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(successors(w))))
                    break
                if comp[w] < 0 and index[w] < low[v]:  # w is still on the stack
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = count
                        if w == v:
                            break
                    count += 1
    return comp
