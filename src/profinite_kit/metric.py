"""The pro-V word metric: separation rank and distance by bounded search.

The rank of two words is the least order of a semigroup in V together
with a letter assignment telling them apart.  Since the search is capped,
distinct words whose rank exceeds the cap get an interval, never the
point value 0; equal words get rank infinity and distance exactly 0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from .errors import KitError, UnsupportedOrderError
from .kappa import PseudovarietyDef, member
from .semigroups import ENUMERATION_LIMIT, FiniteSemigroup, enumerate_semigroups

DEFAULT_MAX_ORDER = 4


@dataclass(frozen=True)
class SeparationWitness:
    semigroup: FiniteSemigroup
    assignment: tuple[tuple[str, int], ...]  # letter -> element

    def image(self, word: str) -> int:
        images = dict(self.assignment)
        return self.semigroup.product(images[ch] for ch in word)


@dataclass(frozen=True)
class RankResult:
    """rank is an int when exact, math.inf for equal words, None when the
    bounded search was exhausted without separating."""

    u: str
    v: str
    rank: Optional[float]
    max_order: int
    witness: Optional[SeparationWitness] = None

    @property
    def exact(self) -> bool:
        return self.rank is not None


def separation_rank(u: str, v: str, pseudovariety: PseudovarietyDef,
                    max_order: int = DEFAULT_MAX_ORDER) -> RankResult:
    """Least cardinality of a member of V separating u from v, if <= max_order."""
    if not u or not v:
        raise KitError("the word metric is defined on nonempty words")
    if not 1 <= max_order <= ENUMERATION_LIMIT:
        raise UnsupportedOrderError(f"max_order must lie in 1..{ENUMERATION_LIMIT}")
    if u == v:
        return RankResult(u=u, v=v, rank=math.inf, max_order=max_order)
    alphabet = tuple(sorted(set(u) | set(v)))
    for n in range(1, max_order + 1):
        for s in enumerate_semigroups(n):
            if not member(s, pseudovariety):
                continue
            for values in itertools.product(range(n), repeat=len(alphabet)):
                images = dict(zip(alphabet, values))
                if s.product(images[ch] for ch in u) != s.product(images[ch] for ch in v):
                    witness = SeparationWitness(
                        semigroup=s, assignment=tuple(zip(alphabet, values)))
                    return RankResult(u=u, v=v, rank=n, max_order=max_order,
                                      witness=witness)
    return RankResult(u=u, v=v, rank=None, max_order=max_order)


@dataclass(frozen=True)
class DistanceResult:
    rank: RankResult
    value: Optional[float]                 # exact distance when known
    interval: Optional[tuple[float, float]]  # enclosing interval otherwise

    def __post_init__(self):
        assert (self.value is None) != (self.interval is None)


def distance(u: str, v: str, pseudovariety: PseudovarietyDef,
             max_order: int = DEFAULT_MAX_ORDER) -> DistanceResult:
    """2^(-rank), or the interval [0, 2^-(max_order+1)] past the search cap."""
    rank = separation_rank(u, v, pseudovariety, max_order)
    if rank.rank is math.inf:
        return DistanceResult(rank=rank, value=0.0, interval=None)
    if rank.rank is None:
        return DistanceResult(rank=rank, value=None,
                              interval=(0.0, 2.0 ** -(max_order + 1)))
    return DistanceResult(rank=rank, value=2.0 ** -rank.rank, interval=None)
