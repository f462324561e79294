"""Weight vectors and GIT linearizations.

Two kinds of weight data appear throughout: integer weights modulo a
cyclic order r (attached to marked points), and exact rational GIT
linearizations living in a hypersimplex.  This module houses both, plus
the weight transformations used when a pointed curve degenerates along a
boundary divisor: splitting a linearization across two linear subspaces,
and the pair of mod-r rules that push weights to the two sides of a
boundary cut.

All arithmetic is exact; rationals are `fractions.Fraction` throughout.
`fractions` (with `decimal`) is imported only where a rational is made, so
the integer paths never load it.
"""

from __future__ import annotations

from .records import Record, at_least, between
from .strata import BoundaryCut

# annotations only: `typing` (with `re`) is not imported when the program runs
TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction
    from typing import Iterable, Iterator, Sequence

    Rational = Fraction | int


class WeightVector(Record):
    """Integer weights mod r attached to an ordered tuple of points.

    Entries normally lie in {0, ..., r-1}.  The value r is permitted
    because one of the two restriction rules represents the residue 0 by
    r on its attaching point.
    """

    __slots__ = ("r", "entries")

    def __init__(self, r: int, entries: Iterable[int]) -> None:
        at_least("r", r, 1)
        entries = tuple(int(e) for e in entries)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "entries", entries)
        for e in entries:
            between("weight", e, 0, r)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

    def total(self) -> int:
        return sum(self.entries)


class Linearization(Record):
    """A rational weight vector in the hypersimplex of GIT linearizations.

    The entries lie in [0, 1] and sum to d+1, where d is the dimension of
    the ambient projective space for the point configuration.
    """

    __slots__ = ("entries", "d")

    def __init__(self, entries: Iterable[Rational], d: int) -> None:
        from fractions import Fraction

        entries = tuple(Fraction(e) for e in entries)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "d", d)
        if not in_hypersimplex(entries, d):
            raise ValueError(
                f"weights {','.join(map(str, entries))} are not in the hypersimplex"
                f" Delta({d + 1}, {len(entries)})"
            )

    @property
    def n(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]


def in_hypersimplex(entries: Sequence[Rational], d: int) -> bool:
    """Exact membership test for the hypersimplex Delta(d+1, n).

    True iff every entry lies in [0, 1] and the entries sum to d+1.
    """
    if not entries:
        raise ValueError("empty weight vector")
    at_least("d", d, 1)
    from fractions import Fraction

    vals = [Fraction(e) for e in entries]
    if any(v < 0 or v > 1 for v in vals):
        return False
    return sum(vals) == d + 1


class RangeConditionError(ValueError):
    """A linearization cannot be split: a side sum leaves its allowed window."""


def split_linearization(
    c: Linearization, n1: int, d1: int
) -> tuple[Linearization, Linearization]:
    """Split a linearization across two linear subspaces of dimensions d1, d2.

    The first n1 weights stay on the d1-dimensional side and the rest on
    the d2 = d - d1 side; each side gains an attaching point whose weight
    makes the side sum equal d_i + 1 exactly.  Requires the side sums to
    satisfy d1 <= sum(first n1) <= d1 + 1 and d2 <= sum(rest) <= d2 + 1,
    which is exactly what membership of both outputs in their smaller
    hypersimplices needs.  Only the left window is checked: the two sums
    add up to d + 1, so the left window holds exactly when the right one does.
    """
    n, d = c.n, c.d
    between("n1", n1, 2, n - 2)
    between("d1", d1, 1, d - 1)
    d2 = d - d1
    # the entries are Fractions, so the sums are too
    left = sum(c.entries[:n1])
    right = sum(c.entries[n1:])
    if left < d1:
        raise RangeConditionError(
            f"sum of first {n1} weights is {left} < d1 = {d1}"
        )
    if left > d1 + 1:
        raise RangeConditionError(
            f"sum of first {n1} weights is {left} > d1 + 1 = {d1 + 1}"
        )
    c_prime = Linearization(c.entries[:n1] + (right - d2,), d1)
    c_double = Linearization(c.entries[n1:] + (left - d1,), d2)
    return c_prime, c_double


def _relabel(c: WeightVector, members: Iterable[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split entries of c into (those indexed by members, the rest), 1-based.

    The members must be a boundary cut of len(c) points, checked by
    BoundaryCut; the caller's side is kept, not the cut's canonical one.
    Relative order is preserved on both sides, so a general cut is
    reduced to the initial-segment case.
    """
    chosen = frozenset(map(int, members))
    BoundaryCut(len(c), chosen)
    inside = tuple(c[i - 1] for i in sorted(chosen))
    outside = tuple(e for i, e in enumerate(c, 1) if i not in chosen)
    return inside, outside


def phi_rule(c: WeightVector, members: Iterable[int]) -> WeightVector:
    """Weights restricted to the side of the cut that holds `members`.

    Keeps the entries indexed by `members` and appends an attaching
    weight congruent to the complementary sum mod r, represented in
    {1, ..., r}.
    """
    inside, outside = _relabel(c, members)
    rho = sum(outside) % c.r
    if rho == 0:
        rho = c.r
    return WeightVector(c.r, inside + (rho,))


def psi_rule(c: WeightVector, members: Iterable[int]) -> WeightVector:
    """Weights restricted to the side of the cut opposite `members`.

    Keeps the entries outside `members` and appends an attaching weight
    congruent to the inside sum mod r, represented in {0, ..., r-1}.
    """
    inside, outside = _relabel(c, members)
    sigma = sum(inside) % c.r
    return WeightVector(c.r, outside + (sigma,))
