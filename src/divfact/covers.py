"""Numerics of cyclic covers of the line: genus and degeneration.

A degree-r cyclic cover branched over weighted points p_i with weights
c_i (r dividing the total weight) has genus determined by
Riemann-Hurwitz:

    g = (2 - 2r + sum_i (r - gcd(c_i, r))) / 2.

When the base line degenerates into two lines glued at a node, the
admissible-covers limit glues two cyclic covers whose branch weights are
the original ones plus an attaching weight equal to the opposite side's
sum, at s = gcd(side sum, r) points over the node.  Only the numerical
bookkeeping of this picture is implemented: weight labels, genera and
the point count s.
"""

from __future__ import annotations

import warnings
from math import gcd

from .records import Record, at_least, between

# annotations only: `typing` (with `re`) is not imported when the program runs
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterable, Sequence


class DisconnectedCoverWarning(UserWarning):
    """The branch data allows a disconnected cover; formulas applied verbatim."""


class InvariantError(Exception):
    """A computed identity failed: a fault in the program, not in its input."""


class CoverSpec(Record):
    """Branch data of a degree-r cyclic cover of the line.

    Weights are nonnegative integers whose sum is divisible by r; a
    weight divisible by r is an unramified (forgettable) point since
    gcd(c_i, r) = r there.
    """

    __slots__ = ("r", "entries")

    def __init__(self, r: int, entries: Iterable[int]) -> None:
        at_least("r", r, 2)
        entries = tuple(int(e) for e in entries)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise ValueError("at least one branch point required")
        if any(e < 0 for e in entries):
            raise ValueError(f"branch weights must be nonnegative, got {entries}")
        if sum(entries) % r != 0:
            raise ValueError(f"r={r} must divide the total branch weight {sum(entries)}")

    @property
    def n(self) -> int:
        return len(self.entries)


class DegenerationData(Record):
    """Numerical data of the admissible-covers limit over a one-node base."""

    __slots__ = ("c_prime", "c_double_prime", "s", "g", "g1", "g2")


def _genus_value(r: int, entries: Sequence[int]) -> int:
    """Riemann-Hurwitz value for weights whose total r divides.

    The ramification sum is then even: for odd r each term is even, and
    for even r a term is odd exactly when its weight is, which an even
    number of weights are.
    """
    ramification = 0
    for e in entries:
        ramification += r - gcd(e, r)
    return 1 - r + ramification // 2


def genus(spec: CoverSpec) -> int:
    """Genus of the cyclic cover via Riemann-Hurwitz.

    For branch data that only supports a disconnected cover (the weights
    and r share a common factor) the formula is still evaluated, a
    warning is emitted, and the result may be negative; it is then the
    arithmetic Euler-characteristic genus of the disjoint union.
    """
    connectivity = gcd(spec.r, *spec.entries)
    if connectivity > 1:
        warnings.warn(
            f"gcd of branch weights and r={spec.r} is {connectivity} > 1; "
            "the cover may be disconnected",
            DisconnectedCoverWarning,
            stacklevel=2,
        )
    return _genus_value(spec.r, spec.entries)


def degenerate(spec: CoverSpec, n1: int) -> DegenerationData:
    """Numerical degeneration data when the first n1 branch points split off.

    Produces the two side weight vectors (attaching weights reduced into
    {0, ..., r-1}), the number s of points over the node, and the three
    genera, asserting the additivity g = g1 + g2 + s - 1; a failed
    assertion raises InvariantError.
    """
    r, entries = spec.r, spec.entries
    n = spec.n
    between("n1", n1, 2, n - 2)
    left = sum(entries[:n1])
    right = sum(entries[n1:])
    # r divides left + right (CoverSpec), so gcd(left, r) = gcd(right, r)
    s = gcd(left, r)
    c_prime = entries[:n1] + (right % r,)
    c_double_prime = entries[n1:] + (left % r,)
    g = _genus_value(r, entries)
    g1 = _genus_value(r, c_prime)
    g2 = _genus_value(r, c_double_prime)
    if g != g1 + g2 + s - 1:
        raise InvariantError(
            f"genus additivity failed: g={g}, g1={g1}, g2={g2}, s={s}"
        )
    return DegenerationData(c_prime, c_double_prime, s, g, g1, g2)

