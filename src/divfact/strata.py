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
from operator import add

from .records import Record, at_least, between

# annotations only: `typing` (with `re`) is not imported when the program runs
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterable, Iterator, Sequence


class BoundaryCut(Record):
    """One side of a boundary divisor of the n-pointed moduli space.

    Canonical representative: the stored side contains the marked point 1,
    which identifies a subset with its complement.
    """

    __slots__ = ("n", "members")

    def __init__(self, n: int, members: Iterable[int]) -> None:
        at_least("n", n, 4)
        members = frozenset(int(i) for i in members)
        if any(i < 1 or i > n for i in members):
            raise ValueError(f"cut {sorted(members)} not within {{1, ..., {n}}}")
        between("cut size", len(members), 2, n - 2)
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
        at_least("n", n, 4)
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
    at_least("n", n, 4)
    cuts = []
    rest = range(2, n + 1)
    for size in range(2, n - 1):
        for extra in combinations(rest, size - 1):
            cuts.append(BoundaryCut(n, frozenset((1,) + extra)))
    return cuts


def enumerate_fcurves(n: int) -> list[SetPartition4]:
    """All partitions of {1, ..., n} into four nonempty blocks.

    Read off split_walk, so blocks come out sorted by minimum element
    and the overall order is deterministic.  The count is the Stirling
    number S(n, 4).
    """
    return list(_fcurves_cached(n))


def count_fcurves(n: int) -> int:
    """The number of F-curves of n >= 4 points, S(n, 4), without listing them.

    Inclusion-exclusion over the blocks left empty:
    S(n, 4) = (4^n - 4 * 3^n + 6 * 2^n - 4) / 4!.
    """
    return (4**n - 4 * 3**n + 6 * 2**n - 4) // 24


@lru_cache(maxsize=4)
def _fcurves_cached(n: int) -> tuple[SetPartition4, ...]:
    # a block's text recurs across many F-curves; parse each one once
    parsed: dict[str, frozenset[int]] = {}

    def block(text: str) -> frozenset[int]:
        if text not in parsed:
            parsed[text] = frozenset(map(int, text.split(",")))
        return parsed[text]

    def partition(texts: Iterable[str]) -> SetPartition4:
        # walked blocks partition {1, ..., n} in order already: skip the checks
        p = object.__new__(SetPartition4)
        Record.__init__(p, n, tuple(map(block, texts)))
        return p

    # each prefix's texts joined with each tail its plan finishes them with
    plan, prefixes = split_walk(1, (0,) * n)
    return tuple(
        partition(map(add, texts, tails))
        for used, texts, _ in prefixes
        for tails, _ in plan[used]
    )


def _walk(r: int, c: Sequence[int], first: int, opened: int) -> Iterator[tuple[int, tuple, tuple]]:
    """Restricted-growth strings, the one recursion of every F-curve walk: each
    of points first+1..len(c) joins an open block (`opened` at the start) or
    opens the next, up to four.  Yields (blocks open, texts, sums mod r) per
    leaf, lexicographically; an already open block gains its text after a comma."""
    texts, sums = ["", "", "", ""], [0, 0, 0, 0]

    def place(i: int, used: int) -> Iterator[tuple[int, tuple, tuple]]:
        if i == len(c):
            yield used, tuple(texts), tuple(sums)
            return
        label, weight = str(i + 1), c[i]
        for b in range(min(used + 1, 4)):
            text, total = texts[b], sums[b]
            texts[b] = f"{text},{label}" if text or b < opened else label
            sums[b] = (total + weight) % r
            yield from place(i + 1, max(used, b + 1))
            texts[b], sums[b] = text, total

    return place(first, opened)


def split_walk(r: int, c: Sequence[int]) -> tuple[dict, Iterator]:
    """The F-curve walk over len(c) points as (plan, prefixes).

    prefixes yields (blocks opened, block texts, block sums mod r) for each
    placement of the first n - k points, k = min(n - 4, 4), that the last k
    points can finish with four blocks ("" and 0 if unopened).  plan[opened]
    lists the ways the last k points finish it, as the (text, weight mod r)
    each block gains, in walk order; it is empty if opened + k < 4."""
    n = len(c)
    at_least("n", n, 4)
    k = min(n - 4, 4)
    plan = {
        opened: [(texts, sums) for used, texts, sums in _walk(r, c, n - k, opened) if used == 4]
        for opened in range(1, 5)
    }
    prefixes = (prefix for prefix in _walk(r, c[: n - k], 0, 0) if prefix[0] + k >= 4)
    return plan, prefixes


def block_sums(
    r: int, c: Sequence[int], blocks: Iterable[Iterable[int]]
) -> tuple[int, ...]:
    """Sum the weights c over each block of 1-based indices, mod r, in block order."""
    return tuple(sum(c[i - 1] for i in block) % r for block in blocks)
