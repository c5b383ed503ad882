"""Answer checks that do not call the function under test.

Each check returns None when the answer holds and a short reason when it
does not.  They run outside the timed region.
"""

from __future__ import annotations

import functools
import itertools
import re

# Known sizes: semigroups up to isomorphism (OEIS A027851) and labelled
# associative tables (OEIS A023814), orders 1..4.
ISO_COUNTS = {1: 1, 2: 5, 3: 24, 4: 188}
LABELLED_COUNTS = {1: 1, 2: 8, 3: 113, 4: 3492}

# V <= W for the registered pseudovarieties, so rank_V(u, v) >= rank_W(u, v).
INCLUSIONS = (("Sl", "J"), ("J", "A"), ("N", "J"), ("Sl", "CR"), ("G", "CR"),
              ("A", "S"), ("CR", "S"))
WORD_CHECK_LENGTH = {2: 9, 3: 6}
# Orders at which the search checks that a rank is minimal, by trying every table.
EXACT_ORDERS = (2, 3)


def python_regex(text: str) -> re.Pattern:
    """The toolkit's regex syntax in Python's: ~ is the empty word, # the empty set."""
    return re.compile(text.replace("~", "(?:)").replace("#", "(?!)"))


def words(alphabet: str, max_len: int):
    for n in range(max_len + 1):
        for letters in itertools.product(alphabet, repeat=n):
            yield "".join(letters)


# ---------------------------------------------------------------------------
# syntactic


def check_syntactic(text: str, alphabet: str, result) -> str | None:
    sem, letter_images, accept, accepts_empty, green, kernel = result
    pattern = python_regex(text)
    if bool(pattern.fullmatch("")) != accepts_empty:
        return "empty word membership disagrees with re"
    table = sem.table
    level = {"": None}
    for _ in range(WORD_CHECK_LENGTH[len(alphabet)]):
        nxt = {}
        for word, image in level.items():
            for ch, letter in zip(alphabet, letter_images):
                img = letter if image is None else table[image][letter]
                w = word + ch
                if (img in accept) != bool(pattern.fullmatch(w)):
                    return f"word {w!r} classified differently from re"
                nxt[w] = img
        level = nxt
    n = sem.order
    for classes in (green.r_classes, green.l_classes, green.j_classes, green.h_classes):
        if sorted(x for c in classes for x in c) != list(range(n)):
            return "Green classes do not partition the semigroup"
    monoid_identity = sem.identity if sem.identity is not None else n
    idempotents = {x for x in range(n) if table[x][x] == x}
    if not (idempotents | {monoid_identity}) <= kernel:
        return "kernel misses an idempotent or the identity"
    return None


# ---------------------------------------------------------------------------
# search


def _cycle(table, x):
    """(index, period) of the powers of x."""
    seen = {}
    cur, k = x, 1
    while cur not in seen:
        seen[cur] = k
        cur, k = table[cur][x], k + 1
    return seen[cur], k - seen[cur]


def in_pseudovariety(table, name: str) -> bool:
    """Structural definition of each registered pseudovariety."""
    n = len(table)
    rng = range(n)
    idempotents = [e for e in rng if table[e][e] == e]
    if name == "S":
        return True
    if name == "A":
        return all(_cycle(table, x)[1] == 1 for x in rng)
    if name == "CR":
        return all(_cycle(table, x)[0] == 1 for x in rng)
    if name == "Sl":
        return len(idempotents) == n and all(table[a][b] == table[b][a] for a in rng for b in rng)
    if name == "N":
        return len(idempotents) == 1 and all(
            table[idempotents[0]][x] == idempotents[0] == table[x][idempotents[0]] for x in rng)
    if name == "G":
        ids = [e for e in rng if all(table[e][x] == x == table[x][e] for x in rng)]
        return bool(ids) and all(any(table[x][y] == ids[0] for y in rng) for x in rng)
    if name == "J":
        def ideal(x):
            left = {x} | {table[a][x] for a in rng}
            return frozenset(left | {table[y][b] for y in left for b in rng})
        ideals = [ideal(x) for x in rng]
        return len(set(ideals)) == n
    raise ValueError(name)


def _associative(table) -> bool:
    rng = range(len(table))
    return all(table[table[a][b]][c] == table[a][table[b][c]] for a in rng for b in rng for c in rng)


def _image(table, assignment: dict, word: str) -> int:
    acc = assignment[word[0]]
    for ch in word[1:]:
        acc = table[acc][assignment[ch]]
    return acc


def group_rank(u: str, v: str):
    """Rank in G: the groups of order <= 4 are abelian, so they see letter
    counts modulo 2, 3 and 4 and nothing else."""
    for m in (2, 3, 4):
        if any(u.count(ch) % m != v.count(ch) % m for ch in set(u + v)):
            return m
    return None


def _relabel(table, perm):
    inverse = [perm.index(i) for i in range(len(perm))]
    return tuple(tuple(perm[table[inverse[i]][inverse[j]]] for j in range(len(perm)))
                 for i in range(len(perm)))


@functools.cache
def small_semigroups(order: int) -> tuple:
    """One table per isomorphism class of semigroups of this order (2 or 3),
    found by trying every table."""
    classes = set()
    for cells in itertools.product(range(order), repeat=order * order):
        table = tuple(cells[i * order:(i + 1) * order] for i in range(order))
        if _associative(table):
            classes.add(min(_relabel(table, p) for p in itertools.permutations(range(order))))
    return tuple(sorted(classes))


@functools.cache
def _members(order: int, pv: str) -> frozenset:
    return frozenset(t for t in small_semigroups(order) if in_pseudovariety(t, pv))


@functools.cache
def _separating(u: str, v: str, order: int) -> frozenset:
    """The classes of semigroups of this order with an assignment telling u from v."""
    letters = sorted(set(u + v))
    out = set()
    for table in small_semigroups(order):
        for values in itertools.product(range(order), repeat=len(letters)):
            images = dict(zip(letters, values))
            if _image(table, images, u) != _image(table, images, v):
                out.add(table)
                break
    return frozenset(out)


def check_rank(u: str, v: str, pv: str, result) -> str | None:
    """The witness must hold, and no member of pv of order 2 or 3 below the
    rank (or at all, when none was found) may separate u from v.  The rank
    in G is known exactly (group_rank)."""
    rank, table, assignment = result
    bound = float("inf") if rank is None else rank
    for order in EXACT_ORDERS:
        if order < bound and _separating(u, v, order) & _members(order, pv):
            return f"a member of {pv} of order {order} separates the words"
    if pv == "G" and rank != group_rank(u, v):
        return f"rank in G is {group_rank(u, v)}, not {rank}"
    if rank is None:
        return None if table is None else "unseparated pair carries a witness"
    if table is None or len(table) != rank:
        return "witness order differs from the rank"
    if not _associative(table):
        return "witness table is not associative"
    if not in_pseudovariety(table, pv):
        return f"witness is not in {pv}"
    images = dict(assignment)
    if _image(table, images, u) == _image(table, images, v):
        return "witness does not separate the words"
    return None


def check_rank_lattice(ranks: dict) -> str | None:
    """ranks maps a pseudovariety to a rank (None past the search bound)."""
    def value(r):
        return float("inf") if r is None else r
    for small, big in INCLUSIONS:
        if value(ranks[small]) < value(ranks[big]):
            return f"rank in {small} below rank in {big}"
    return None


def check_count(order: int, upto_iso: bool, count: int) -> str | None:
    expected = (ISO_COUNTS if upto_iso else LABELLED_COUNTS)[order]
    return None if count == expected else f"expected {expected} semigroups, got {count}"


# ---------------------------------------------------------------------------
# closure


def _cyclic(k: int):
    return [[(i + j) % k for j in range(k)] for i in range(k)]


def _s3():
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(q[p[i]] for i in range(3))] for q in perms] for p in perms]


# (name, table) of the groups in which witnesses are re-evaluated and
# negative separation answers looked into; element 0 is the identity.
CHECK_GROUPS = tuple((f"C{k}", _cyclic(k)) for k in range(2, 7)) + (("S3", _s3()),)


def _inverse(group, g):
    return next(h for h in range(len(group)) if group[g][h] == 0)


def _assignments():
    """(name, table, images of a and b) over every check group."""
    for name, group in CHECK_GROUPS:
        for assignment in itertools.product(range(len(group)), repeat=2):
            yield name, group, assignment


class GroupImages:
    """For one monoid morphism from {a, b}*: element -> the group images of
    the words mapping to it, per check group and assignment, computed once."""

    def __init__(self, monoid, letter_images):
        self.table, self.identity, self.letters = monoid.table, monoid.identity, letter_images
        self._cache: dict = {}

    def __call__(self, name: str, group, assignment) -> dict[int, set[int]]:
        key = (name, assignment)
        if key not in self._cache:
            start = (self.identity, 0)
            seen = {start}
            stack = [start]
            while stack:
                x, g = stack.pop()
                for img, h in zip(self.letters, assignment):
                    nxt = (self.table[x][img], group[g][h])
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            out: dict[int, set[int]] = {}
            for x, g in seen:
                out.setdefault(x, set()).add(g)
            self._cache[key] = out
        return self._cache[key]


def check_pointlike(images: GroupImages, elements, pointlike: bool, result) -> str | None:
    """A witness w must map into the image of every preimage, in every check
    group.  `pointlike` marks a set built to be pointlike
    (corpus.constructed_pointlike), where a negative answer is wrong; on
    the random sets no finite search can prove a negative answer wrong."""
    ok, witness = result
    if not ok:
        if pointlike:
            return "a set pointlike by construction reported not pointlike"
        return None if witness is None else "negative answer carries a witness"
    if witness is None:
        return "positive answer lacks a witness"
    for name, group, assignment in _assignments():
        letters = dict(zip("ab", assignment))
        w = 0
        for ch, sign in witness:
            h = letters[ch] if sign > 0 else _inverse(group, letters[ch])
            w = group[w][h]
        reach = images(name, group, assignment)
        if any(w not in reach.get(x, ()) for x in elements):
            return f"witness maps outside a preimage's image in {name}"
    return None


def check_kernel(expected: frozenset, result) -> str | None:
    return None if result == expected else "kernel_via_closure differs from kernel_g"


def _language_images(dfa, group, letters: dict) -> set[int]:
    """The group images of every word the DFA accepts, the empty word too."""
    start = (dfa.initial, 0)
    seen = {start}
    stack = [start]
    while stack:
        state, g = stack.pop()
        for a, ch in enumerate(dfa.alphabet):
            nxt = (dfa.transition[state][a], group[g][letters[ch]])
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return {g for state, g in seen if state in dfa.finals}


def check_separation(word: str, text: str, dfa, result) -> str | None:
    """A negative answer fails when a check group separates the word from the
    language (`dfa` accepts it); a certificate is re-evaluated."""
    separable, certificate = result
    pattern = python_regex(text)
    if separable and pattern.fullmatch(word):
        return "word of the language reported separable"
    if not separable:
        for name, group, assignment in _assignments():
            letters = dict(zip("ab", assignment))
            if _image(group, letters, word) not in _language_images(dfa, group, letters):
                return f"{name} separates the word, yet it is reported inseparable"
        return None
    if certificate is None:
        return None
    group, assignment, word_image, language_images = certificate
    images = dict(assignment)
    if _image(group, images, word) != word_image:
        return "certificate word image is wrong"
    if word_image in language_images:
        return "certificate does not separate"
    for w in words("ab", 8):
        if w and pattern.fullmatch(w) and _image(group, images, w) not in language_images:
            return f"certificate misses the image of {w!r}"
    return None


def check_stallings(gens, probes, result, products: int) -> str | None:
    edges, answers = result
    step = {}
    for p, x, q in edges:
        if (p, x) in step:
            return "graph is not folded"
        step[(p, x)] = q
    for p, (ch, sign), q in edges:
        if step.get((q, (ch, -sign))) != p:
            return "graph lacks an inverse edge"

    def loops(word):
        state = 0
        stack = []
        for x in word:  # free reduction on the fly
            if stack and stack[-1] == (x[0], -x[1]):
                stack.pop()
            else:
                stack.append(x)
        for x in stack:
            state = step.get((state, x))
            if state is None:
                return False
        return state == 0

    if not all(loops(g) for g in gens):
        return "a generator is not a loop at the base"
    for probe, answer in zip(probes, answers):
        if answer != loops(probe):
            return "subgroup membership disagrees with the graph walk"
    if not all(answers[:products]):
        return "a product of generators is reported outside the subgroup"
    return None
