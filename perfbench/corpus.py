"""Seeded input generators for the four workloads.

Everything here is a pure function of the seed.  The generators call the
library only to measure a candidate input (its syntactic monoid order, the
size of its preimage regexes) so that every seed draws the same number of
inputs from the same strata; the timed queries see only the chosen inputs.
"""

from __future__ import annotations

import random

from oracles import group_rank

# ROADMAP languages kept in every corpus (monoid orders 113 and 653).
ANCHOR_113 = "(ab|ba)*(aa|b)*"
ANCHOR_653 = "(a|bb)*(ab|ba)*(aa|bab)*"

# syntactic workload: target monoid order -> how many regexes per seed.
# Costs grow like order^3 but vary about twofold at one order (Green's
# order and the kernel closure depend on the J-classes), so the median and
# p90 each sit in the middle of a large stratum: 20 holds p50 and 56 holds
# p90.  The few large targets carry most of the time.
SYNTACTIC_STRATA = {14: 165, 20: 120, 28: 50, 40: 40, 56: 60, 113: 8, 160: 4, 226: 2}
SYNTACTIC_MEDIAN = 20
THREE_LETTER_SHARE = 0.3

# closure workload, over the letters a, b.  Separation queries (and the cli
# tables) draw from regexes stratified by monoid order.  kernel_via_closure
# and g_pointlike run on monoids stratified by the total size of their
# preimage regexes, which is what their cost follows; stratifying by order
# alone leaves a heavy tail.
CLOSURE_STRATA = {10: 3, 14: 3, 20: 3, 28: 3, 40: 3, 56: 3, 80: 2, 113: 1, 150: 1}
KERNEL_STRATA = {300: 25, 600: 32, 1200: 6, 2400: 2}   # the 600 band holds p90
KERNEL_ORDERS = (8, 64)
KERNEL_TOLERANCE = 0.2
# g_pointlike subsets: total preimage size -> count; the 80 band holds the median
POINTLIKE_STRATA = {20: 12, 40: 36, 80: 72, 160: 48}
# g_pointlike sets that are pointlike by construction, by the same bands
CONSTRUCTED_POINTLIKE_STRATA = {40: 8, 80: 16}
SEPARATION_QUERIES = 70
STALLINGS_SIZES = (100, 160, 220, 280, 340, 400)
PRODUCT_PROBES = 10     # products of generators; as many random words follow

# search workload: one query is a word pair against every registered
# pseudovariety.  Pairs per stratum (see `stratum`): signature class,
# rank in G, both words of length >= 4.
PAIR_STRATA = {
    # content differs, a word shorter than 4: cheap in every pseudovariety
    ("all", 2, False): 24, ("content", 2, False): 24, ("content", 3, False): 12,
    # content differs, both words long: one full scan (N); holds the median
    ("all", 2, True): 24, ("content", 2, True): 48, ("content", 3, True): 24,
    # same content: J, A, CR and S must look past order 2; holds p90
    ("ends", 2, True): 16, ("ends", None, True): 16, ("parity", 2, True): 16,
    ("none", 3, True): 12, ("none", None, True): 24,
}
PAIRS = sum(PAIR_STRATA.values())
MAX_ORDER = 4
PAIR_KINDS = ("shuffle", "substitute", "extend", "random")

# cli workload: subcommand shape -> invocations per pass (100 in total;
# one in five is metric or enumerate at order 3 or 4).  Every metric call
# and most enumerations run the per-process order-4 search, so those 18
# slow processes hold p90.
CLI_MIX = {
    "metric": 10, "enumerate": 10, "syntactic": 8, "member": 8, "separate": 8,
    "closure": 7, "kernel": 7, "pointlike": 7, "inevitable-loop": 7,
    "inevitable-two-vertex": 7, "omega": 7, "entropy": 7, "primitive": 7,
}

CLI_ENUMERATIONS = [(4, False)] * 4 + [(4, True)] * 4 + [(3, False), (3, True)]
CLI_LARGE_TABLE = 34       # splits the closure strata into 10-28 and 40-150
CLI_POINTLIKE_SMALL = 16

TOLERANCE = 0.05


def word(rng: random.Random, alphabet: str, lo: int, hi: int) -> str:
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))


def template_regex(rng: random.Random, alphabet: str) -> str:
    """One to three iterated unions of short words, e.g. (ab|b)*(aa|bab)+."""
    parts = []
    for _ in range(rng.randint(1, 3)):
        alternatives = sorted({word(rng, alphabet, 1, 3) for _ in range(rng.randint(1, 3))})
        parts.append("(" + "|".join(alternatives) + ")" + rng.choice("**+"))
    return "".join(parts)


def syntactic_shape(pk, text: str, alphabet: str) -> tuple[int, bool]:
    """(order, whether the identity transformation is an element) of the
    syntactic semigroup, counted on transformations only.

    Mirrors what syntactic_semigroup returns (the identity joins when the
    empty word is accepted) without building a multiplication table.
    Without the identity, monoid_of adjoins one and validates a second table.
    """
    dfa = pk.languages.to_minimal_dfa(pk.languages.parse_regex(text, alphabet), alphabet)
    n = dfa.n_states
    actions = [tuple(dfa.transition[s][a] for s in range(n)) for a in range(len(alphabet))]
    seen = set(actions)
    frontier = list(seen)
    while frontier:
        t = frontier.pop()
        for g in actions:
            product = tuple(g[x] for x in t)
            if product not in seen:
                seen.add(product)
                frontier.append(product)
    if dfa.initial in dfa.finals:
        seen.add(tuple(range(n)))
    return len(seen), tuple(range(n)) in seen


def regex_near(pk, rng: random.Random, target: int, alphabet: str,
               identity: bool | None = None) -> tuple[str, int]:
    """Rejection-sample a template regex whose order is within 5 % of target
    (and, when asked, with or without the identity transformation)."""
    while True:
        text = template_regex(rng, alphabet)
        order, has_identity = syntactic_shape(pk, text, alphabet)
        if abs(order - target) <= TOLERANCE * target + 0.5 and identity in (None, has_identity):
            return text, order


def syntactic_corpus(pk, seed: int) -> list[tuple[str, str]]:
    """(regex, alphabet) pairs: the two anchors plus the seeded strata, with a
    fixed share of three-letter alphabets.  The median stratum has no
    identity transformation throughout: with and without one, its costs
    differ by half."""
    rng = random.Random(f"syntactic:{seed}")
    out = [(ANCHOR_113, "ab"), (ANCHOR_653, "ab")]
    for target, count in SYNTACTIC_STRATA.items():
        three = round(count * THREE_LETTER_SHARE)
        for k in range(count):
            alphabet = "abc" if k < three else "ab"
            identity = False if target == SYNTACTIC_MEDIAN else None
            out.append((regex_near(pk, rng, target, alphabet, identity)[0], alphabet))
    rng.shuffle(out)
    return out


def closure_regexes(pk, seed: int) -> list[str]:
    """Two-letter regexes for the closure monoids, anchor first."""
    rng = random.Random(f"closure:{seed}")
    out = [ANCHOR_113]
    for target, count in CLOSURE_STRATA.items():
        out.extend(regex_near(pk, rng, target, "ab")[0] for _ in range(count))
    return out


def regex_size(regex) -> int:
    """Number of nodes of a regex tree (iterative: the trees can be deep)."""
    count, stack = 0, [regex]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(getattr(node, f) for f in ("left", "right", "inner") if hasattr(node, f))
    return count


def syntactic_monoid(pk, text: str):
    """(monoid, the two-letter morphism onto it, letter images) of a regex."""
    res = pk.languages.syntactic_semigroup(pk.languages.parse_regex(text, "ab"), "ab")
    monoid = pk.semigroups.monoid_of(res.semigroup)
    images = res.morphism.letter_image
    return monoid, pk.closure.MonoidMorphism(("a", "b"), monoid, images), images


def preimage_sizes(pk, text: str, limit: int):
    """Size of the preimage regex of every element, or None past a total of limit."""
    monoid, morphism, _ = syntactic_monoid(pk, text)
    sizes = []
    for x in range(monoid.order):
        sizes.append(regex_size(morphism.preimage_regex(x)))
        if sum(sizes) > limit:
            return None
    return sizes


def kernel_regexes(pk, seed: int) -> list[tuple[str, list[int]]]:
    """(regex, preimage size per element) for the kernel monoids, anchor first."""
    rng = random.Random(f"kernel:{seed}")
    out = [(ANCHOR_113, preimage_sizes(pk, ANCHOR_113, 10 ** 9))]
    lo_order, hi_order = KERNEL_ORDERS
    for target, count in KERNEL_STRATA.items():
        lo, hi = target * (1 - KERNEL_TOLERANCE), target * (1 + KERNEL_TOLERANCE)
        drawn = 0
        while drawn < count:
            text = template_regex(rng, "ab")
            if not lo_order <= syntactic_shape(pk, text, "ab")[0] <= hi_order:
                continue
            sizes = preimage_sizes(pk, text, hi)
            if sizes is not None and sum(sizes) >= lo:
                out.append((text, sizes))
                drawn += 1
    return out


def pointlike_subsets(rng: random.Random, kernel: list) -> list[tuple[int, list[int]]]:
    """(monoid index, subset of 2 or 3 elements) with a fixed count per band
    of total preimage size, which g_pointlike's cost follows."""
    out = []
    for target, count in POINTLIKE_STRATA.items():
        lo, hi = target * (1 - KERNEL_TOLERANCE), target * (1 + KERNEL_TOLERANCE)
        drawn = 0
        while drawn < count:
            i = rng.randrange(len(kernel))
            sizes = kernel[i][1]
            elements = subset(rng, len(sizes), rng.choice((2, 3)))
            if lo <= sum(sizes[x] for x in elements) <= hi:
                out.append((i, elements))
                drawn += 1
    return out


def _omega(table, x: int) -> int:
    """The idempotent power of x."""
    power = x
    while table[power][power] != power:
        power = table[power][x]
    return power


def _image(monoid, letter_images, w: str) -> int:
    acc = monoid.identity
    for ch in w:
        acc = monoid.table[acc][letter_images["ab".index(ch)]]
    return acc


def constructed_pointlike(rng: random.Random, monoids: list,
                          kernel: list) -> list[tuple[int, list[int]]]:
    """(monoid index, 2 or 3 elements) of the form phi(uv), phi(u) e phi(v)
    with e = phi(z)^omega.  In a finite group z^(n!) maps to 1 for large n,
    so u z^(n!) v, which maps to phi(u) e phi(v), and uv have one image in
    every finite group: the set is G-pointlike."""
    out = []
    for target, count in CONSTRUCTED_POINTLIKE_STRATA.items():
        lo, hi = target * (1 - KERNEL_TOLERANCE), target * (1 + KERNEL_TOLERANCE)
        drawn = 0
        while drawn < count:
            i = rng.randrange(len(monoids))
            monoid, _, images = monoids[i]
            table = monoid.table
            u, v = (_image(monoid, images, word(rng, "ab", 0, 4)) for _ in range(2))
            elements = {table[u][v]} | {
                table[table[u][_omega(table, _image(monoid, images, word(rng, "ab", 1, 4)))]][v]
                for _ in range(rng.choice((1, 2)))}
            if len(elements) > 1 and lo <= sum(kernel[i][1][x] for x in elements) <= hi:
                out.append((i, sorted(elements)))
                drawn += 1
    return out


def subset(rng: random.Random, order: int, size: int) -> list[int]:
    return sorted(rng.sample(range(order), min(size, order)))


def separation_pair(rng: random.Random, regexes: list[str]) -> tuple[str, str]:
    return word(rng, "ab", 2, 8), rng.choice(regexes)


def group_word(rng: random.Random, alphabet: str, lo: int, hi: int) -> tuple:
    """A freely reduced signed word of length in [lo, hi]."""
    length = rng.randint(lo, hi)
    out: list = []
    while len(out) < length:
        x = (rng.choice(alphabet), rng.choice((1, -1)))
        if out and out[-1] == (x[0], -x[1]):
            continue
        out.append(x)
    return tuple(out)


def stallings_inputs(rng: random.Random) -> list[tuple[list, list]]:
    """(generators, probe words) per query; probes mix products and strangers."""
    out = []
    for size in STALLINGS_SIZES:
        alphabet = "abc" if size % 3 == 0 else "ab"
        # long generators: short random ones generate the whole free group
        gens = [group_word(rng, alphabet, 20, 40) for _ in range(size)]
        probes = []
        for _ in range(PRODUCT_PROBES):
            factors = [rng.choice(gens) for _ in range(rng.randint(2, 4))]
            probes.append(tuple(x for g in factors for x in g))
        probes.extend(group_word(rng, alphabet, 10, 40) for _ in range(10))
        out.append((gens, probes))
    return out


def word_pair(rng: random.Random, kind: str) -> tuple[str, str]:
    alphabet = "abc" if rng.random() < 0.2 else "ab"
    while True:
        u = word(rng, alphabet, 2, 12)
        if kind == "shuffle":
            letters = list(u)
            rng.shuffle(letters)
            v = "".join(letters)
        elif kind == "substitute":
            i = rng.randrange(len(u))
            v = u[:i] + rng.choice(alphabet) + u[i + 1:]
        elif kind == "extend":
            i = rng.randrange(len(u) + 1)
            v = (u[:i] + rng.choice(alphabet) + u[i:])[:12]
        else:
            v = word(rng, alphabet, 2, 12)
        if u != v:
            return u, v


def signature(u: str, v: str) -> str:
    """Which order-2 semigroups tell u from v, as one class name.

    C2 sees a letter count's parity, the two-element semilattice the
    content, the left- and right-zero semigroups the first and last
    letter; so the class fixes, for every registered pseudovariety,
    whether the rank is 2.  Words of length >= 2 all look alike to the
    null semigroup.
    """
    parity = any(u.count(ch) % 2 != v.count(ch) % 2 for ch in set(u + v))
    content = set(u) != set(v)
    ends = u[0] != v[0] or u[-1] != v[-1]
    if parity and content and u[0] != v[0] and u[-1] != v[-1]:
        return "all"
    if content:
        return "content"
    if ends:
        return "ends"
    return "parity" if parity else "none"


def stratum(u: str, v: str) -> tuple:
    # Both words of length >= 4 means no nilpotent semigroup of order <= 4
    # separates them, so the N query scans all 218 semigroups.
    return signature(u, v), group_rank(u, v), min(len(u), len(v)) >= 4


def search_pairs(seed: int) -> list[tuple[str, str]]:
    """Word pairs with a fixed count per stratum, so every seed has the same
    number of rank-2 queries per pseudovariety and of full G and N scans."""
    rng = random.Random(f"search:{seed}")
    left = dict(PAIR_STRATA)
    out = []
    while len(out) < PAIRS:
        u, v = word_pair(rng, rng.choice(PAIR_KINDS))
        key = stratum(u, v)
        if left.get(key):
            left[key] -= 1
            out.append((u, v))
    return out


def full_scan_pair(rng: random.Random) -> tuple[str, str, str]:
    """(pseudovariety, u, v) that no member of order <= 4 separates:
    N with both words of length >= 4, Sl with equal content, or G with
    letter counts equal modulo 12."""
    pv = rng.choice(("N", "Sl", "G"))
    while True:
        u, v = word_pair(rng, rng.choice(PAIR_KINDS))
        if {"N": min(len(u), len(v)) >= 4, "Sl": set(u) == set(v),
                "G": group_rank(u, v) is None}[pv]:
            return pv, u, v


def entropy_regex(rng: random.Random) -> str:
    """A starred union holding the letter a, so its largest factorial
    sublanguage is infinite and presents a nonempty shift."""
    words = {"a"} | {word(rng, "ab", 2, 4) for _ in range(rng.randint(1, 3))}
    return "(" + "|".join(sorted(words)) + ")*"


def substitution(rng: random.Random) -> str:
    alphabet = "abc"[: rng.randint(2, 3)]
    return "; ".join(f"{ch}->{word(rng, alphabet, 1, 3)}" for ch in alphabet)
