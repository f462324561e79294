"""Boundary combinatorics of the moduli space of stable pointed rational curves.

A boundary divisor is recorded by the subset of marked points on one side
of the node; an F-curve by a partition of the marked points into four
nonempty blocks.  Restricting any weighted bundle to an F-curve reduces
its degree computation to a four-point weight vector obtained by summing
weights over blocks mod r.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .records import Record
from .weights import WeightVector


class BoundaryCut(Record):
    """One side of a boundary divisor of the n-pointed moduli space.

    Canonical representative: the stored side contains the marked point 1,
    which identifies a subset with its complement.
    """

    __slots__ = ("n", "members")

    def __init__(self, n: int, members: Iterable[int]) -> None:
        if n < 4:
            raise ValueError(f"need n >= 4, got n={n}")
        members = frozenset(int(i) for i in members)
        if any(i < 1 or i > n for i in members):
            raise ValueError(f"cut {sorted(members)} not within {{1, ..., {n}}}")
        if not 2 <= len(members) <= n - 2:
            raise ValueError(
                f"cut size must lie between 2 and n-2 = {n - 2}, got {len(members)}"
            )
        if 1 not in members:
            members = frozenset(range(1, n + 1)) - members
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "members", members)

    @property
    def complement(self) -> frozenset[int]:
        return frozenset(range(1, self.n + 1)) - self.members


class SetPartition4(Record):
    """A partition of {1, ..., n} into four nonempty blocks (an F-curve).

    Blocks are stored sorted by their minimum element.
    """

    __slots__ = ("n", "blocks")

    def __init__(self, n: int, blocks: Iterable[Iterable[int]]) -> None:
        if n < 4:
            raise ValueError(f"need n >= 4, got n={n}")
        blocks = tuple(frozenset(int(i) for i in b) for b in blocks)
        if len(blocks) != 4 or any(not b for b in blocks):
            raise ValueError("exactly four nonempty blocks required")
        union: set[int] = set()
        total = 0
        for b in blocks:
            union |= b
            total += len(b)
        if total != n or union != set(range(1, n + 1)):
            raise ValueError(f"blocks do not partition {{1, ..., {n}}}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", tuple(sorted(blocks, key=min)))

    def label(self) -> str:
        """Slash-joined comma-lists of sorted block elements, e.g. '1,2/3/4/5,6'."""
        return "/".join(",".join(str(i) for i in sorted(b)) for b in self.blocks)


def enumerate_boundary_cuts(n: int) -> list[BoundaryCut]:
    """All canonical boundary cuts of the n-pointed space.

    Each subset/complement pair appears exactly once (the representative
    contains 1); there are 2^(n-1) - n - 1 of them.
    """
    if n < 4:
        raise ValueError(f"need n >= 4, got n={n}")
    cuts = []
    rest = range(2, n + 1)
    for size in range(2, n - 1):
        for extra in combinations(rest, size - 1):
            cuts.append(BoundaryCut(n, frozenset((1,) + extra)))
    return cuts


def enumerate_fcurves(n: int) -> list[SetPartition4]:
    """All partitions of {1, ..., n} into four nonempty blocks.

    Read off walk_fcurves, so blocks come out sorted by minimum element
    and the overall order is deterministic.  The count is the Stirling
    number S(n, 4).
    """
    return list(_fcurves_cached(n))


@lru_cache(maxsize=None)
def _fcurves_cached(n: int) -> tuple[SetPartition4, ...]:
    # a block's text recurs across many F-curves; parse each one once
    parsed: dict[str, frozenset[int]] = {}

    def block(text: str) -> frozenset[int]:
        if text not in parsed:
            parsed[text] = frozenset(map(int, text.split(",")))
        return parsed[text]

    return tuple(
        SetPartition4(n, tuple(map(block, label.split("/"))))
        for label, _ in walk_fcurves(1, (0,) * n)
    )


def walk_fcurves(
    r: int, c: Sequence[int]
) -> Iterator[tuple[str, tuple[int, ...]]]:
    """Every F-curve of len(c) points as (label, block sums of c mod r).

    One restricted-growth walk: each point joins a block already opened or
    opens the next one.  Every block carries its label text and its running
    weight sum mod r down the recursion, so an F-curve costs one join and
    nothing is kept per F-curve.  The label is SetPartition4.label(), the
    sums are in block order, and the order is that of enumerate_fcurves.
    """
    n = len(c)
    if n < 4:
        raise ValueError(f"need n >= 4, got n={n}")
    names = [str(i) for i in range(1, n + 1)]
    # entries of a block not yet opened are stale until a point opens it
    texts = [names[0], "", "", ""]
    sums = [c[0] % r, 0, 0, 0]

    def extend(i: int, used: int) -> Iterator[tuple[str, tuple[int, ...]]]:
        # every unopened block must still be reachable
        if 4 - used > n - i:
            return
        if i == n:
            yield "/".join(texts), tuple(sums)
            return
        name, w = names[i], c[i]
        for b in range(used):
            text, s = texts[b], sums[b]
            texts[b], sums[b] = text + "," + name, (s + w) % r
            yield from extend(i + 1, used)
            texts[b], sums[b] = text, s
        if used < 4:
            texts[used], sums[used] = name, w % r
            yield from extend(i + 1, used + 1)

    return extend(1, 1)


def induce_four_weights(c: WeightVector, partition: SetPartition4) -> WeightVector:
    """Sum the weights over each block of an F-curve partition, mod r.

    This is the four-point weight vector governing the restriction of any
    of the weighted bundles to the F-curve; entries are represented in
    {0, ..., r-1}.
    """
    if len(c) != partition.n:
        raise ValueError(
            f"weight vector length {len(c)} does not match partition on {partition.n} points"
        )
    if c.total() % c.r != 0:
        raise ValueError("weight sum must be divisible by r")
    return WeightVector(c.r, block_sums(c.r, c, partition.blocks))


def block_sums(
    r: int, c: Sequence[int], blocks: Iterable[Iterable[int]]
) -> tuple[int, ...]:
    """Sum the weights c over each block of 1-based indices, mod r, in block order."""
    return tuple(sum(c[i - 1] for i in block) % r for block in blocks)
