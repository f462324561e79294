"""Degrees of the three weighted bundle families on F-curves.

Three constructions attach a line bundle to a mod-r weight vector on the
marked points: level-one type A conformal blocks, GIT polarizations
pulled back from quotients of point configurations, and (tensor powers
of) Hodge eigenbundle determinants on cyclic-cover loci.  Each family
obeys the same boundary restriction rule, so its degree on an F-curve
only depends on the four block sums of the weights.  This module holds
each family's own derivation of its degree on one four-point class, read
unchecked by the n-point paths and, after one check of outside input, by
the public deg4_* functions.  On top of it sit the degree vectors, the
comparison of the three derivations on every class, and a check of the
factorization rule's attaching residues on a boundary cut.

GIT degrees are stored at the scale of the quotient's hyperplane class
times r (equivalently, the r-th tensor power convention used for the
cyclic family), so all three families take integer values on the same
scale.  A weight vector whose sum is not divisible by r names the
trivial bundle, hence degree zero everywhere.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from itertools import combinations_with_replacement

from .records import MutableRecord, Record, at_least, between
from .strata import SetPartition4, block_sums, count_fcurves, enumerate_fcurves, split_walk
from .weights import WeightVector, phi_rule, psi_rule

# annotations only: `typing` (with `re`) is not imported when the program runs
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterable, Iterator, Sequence


class BundleFamily(Enum):
    CB = "cb"
    GIT = "git"
    CYC = "cyc"


def _check_base_input(r: int, c: Sequence[int]) -> list[int]:
    at_least("r", r, 1)
    vals = sorted(map(int, c))
    if len(vals) != 4:
        raise ValueError(f"need exactly 4 weights, got {len(vals)}")
    for e in vals:
        between("weight", e, 0, r)
    return vals


def deg4_cb(r: int, c: Sequence[int]) -> int:
    """Degree of the four-point level-one conformal block bundle.

    Fakhruddin's class sum_i D(c_i) psi_i - sum_S D(c_S) delta_S ("Chern classes
    of conformal blocks"), D(a) = a(r - a)/(2r) the conformal weight of a residue
    mod r, on the line of four points: the points' weights less those of the
    three boundary points, where point 1 meets point j with s_j = (c1 + cj) mod r.
    So 2r times the degree is sum a(r - a) - sum_{j=2..4} s_j(r - s_j), and 0
    when r does not divide |c| (trivial bundle).
    """
    return _cb(r, _check_base_input(r, c))


def _cb(r: int, c: Sequence[int]) -> int:
    c1, c2, c3, c4 = c
    if (c1 + c2 + c3 + c4) % r:
        return 0
    s2, s3, s4 = (c1 + c2) % r, (c1 + c3) % r, (c1 + c4) % r
    twice = c1 * (r - c1) + c2 * (r - c2) + c3 * (r - c3) + c4 * (r - c4)
    return (twice - s2 * (r - s2) - s3 * (r - s3) - s4 * (r - s4)) // (2 * r)


def deg4_git(r: int, c: Sequence[int]) -> int:
    """Degree of the four-point GIT bundle, at r times the quotient scale.

    The invariants of weight m c on four points of the line are spanned by the
    semistandard 2 x (m r) tableaux with content m c; let h(m) count them.  The
    degree on the quotient line is h(m + 1) - h(m): at m = 0, the number of
    2 x r tableaux with content c less 1.  For c sorted ascending with |c| = 2r
    that number is min(c1, r - c4) + 1, so the degree is min(c1, r - c4); else 0.
    """
    return _git(r, _check_base_input(r, c))


def _git(r: int, c: Sequence[int]) -> int:
    c1, c2, c3, c4 = c
    if c1 + c2 + c3 + c4 != 2 * r:
        return 0
    return min(c1, r - c4)


def deg4_cyc(r: int, c: Sequence[int]) -> int:
    """Degree of the r-th power of the four-point cyclic eigenbundle determinant.

    With c sorted ascending, points 1, 2, 3 at x = 0, 1, t and point 4 at
    infinity, the cover carries w = dx x^(-c1/r) (x-1)^(-c2/r) (x-t)^(-c3/r).
    When |c| = 2r, w spans its eigenspace, of rank 1 (Chevalley-Weil), and the
    degree on the t-line is r times w's orders at t = 0, 1 and infinity:
    min(0, r - c1 - c3) + min(0, r - c2 - c3) + min(c3, r - c4); else 0.  The
    order at t = 0 is always 0, so _cyc drops it: sorted, c1 + c3 <= c2 + c4,
    and the two sum to 2r, so c1 + c3 <= r.  It must agree with the class of
    Fedorchuk, "Cyclic covering morphisms on M-bar_{0,n}".
    """
    return _cyc(r, _check_base_input(r, c))


def _cyc(r: int, c: Sequence[int]) -> int:
    c1, c2, c3, c4 = c
    if c1 + c2 + c3 + c4 != 2 * r:
        return 0
    # min() spelled as conditionals: the n-point paths run this once per class read
    at_1, at_inf = r - c2 - c3, r - c4
    return (at_1 if at_1 < 0 else 0) + (c3 if c3 < at_inf else at_inf)


# each family's derivation on a sorted class in {0, ..., r}, unchecked
_DERIVATIONS = {BundleFamily.CB: _cb, BundleFamily.GIT: _git, BundleFamily.CYC: _cyc}


def fcurve_degree(
    family: BundleFamily, r: int, c: Sequence[int], partition: SetPartition4
) -> int:
    """Degree of the family's bundle for weights c on one F-curve.

    Reduces to the family's four-point derivation on the block sums of c
    mod r.  Returns 0 when r does not divide the total weight (trivial
    bundle convention).
    """
    entries = tuple(int(x) for x in c)
    if len(entries) != partition.n:
        raise ValueError(
            f"weight vector length {len(entries)} does not match partition on {partition.n} points"
        )
    at_least("r", r, 1)
    return _DERIVATIONS[family](r, sorted(block_sums(r, entries, partition.blocks)))


class DegreeVector(Record):
    """Degrees of a line bundle on every F-curve of the n-pointed space.

    By numerical equivalence on this moduli space, two bundles are
    isomorphic exactly when their degree vectors agree.
    """

    __slots__ = ("n", "r", "degrees")  # degrees: {SetPartition4: int}

    def items(self) -> Iterable[tuple[SetPartition4, int]]:
        return self.degrees.items()


def degree_blocks(family: BundleFamily, r: int, c: Sequence[int]) -> tuple[dict, Iterator]:
    """Degrees on every F-curve, one prefix of strata.split_walk at a time.

    Returns split_walk's plan and per prefix (used, texts, degrees), degrees[j]
    on the F-curve that plan[used][j] completes, as a tuple; all 0 if r does
    not divide |c| (trivial bundle).  The degrees depend only on (used, sums),
    so each such row is derived once, one derivation per distinct gain, and
    kept in a bounded memo, the one four-point table of the walk; nothing is
    kept per F-curve."""
    entries = tuple(int(x) for x in c)
    at_least("r", r, 1)
    plan, prefixes = split_walk(r, entries)
    trivial = sum(entries) % r != 0
    derive = _DERIVATIONS[family]
    groups = {}
    for used, rows in plan.items():
        distinct: dict[tuple[int, ...], int] = {}  # gain -> its index
        index = [distinct.setdefault(gain, len(distinct)) for _, gain in rows]
        groups[used] = index, list(distinct)

    # bounded: at large r nearly every prefix has its own sums
    @lru_cache(maxsize=256)
    def row(used: int, sums: tuple[int, ...]) -> tuple[int, ...]:
        index, gains = groups[used]
        if trivial:
            return (0,) * len(index)
        degrees = [derive(r, sorted([(p + g) % r for p, g in zip(sums, gain)])) for gain in gains]
        return tuple([degrees[i] for i in index])

    blocks = ((used, texts, row(used, sums)) for used, texts, sums in prefixes)
    return plan, blocks


def degree_vector(family: BundleFamily, r: int, c: Sequence[int]) -> DegreeVector:
    """Evaluate the family's degree on every F-curve, in canonical order."""
    entries = tuple(int(x) for x in c)
    n = len(entries)
    _, blocks = degree_blocks(family, r, entries)
    degrees = (d for _, _, ds in blocks for d in ds)
    return DegreeVector(n=n, r=r, degrees=dict(zip(enumerate_fcurves(n), degrees)))


class Mismatch(MutableRecord):
    __slots__ = ("c", "partition", "cb", "git", "cyc")


class MainTheoremReport(MutableRecord):
    __slots__ = ("r", "n", "vectors_checked", "fcurves_per_vector", "mismatches")

    def __init__(self, r: int, n: int, vectors_checked: int, fcurves_per_vector: int,
                 mismatches: list[Mismatch] | None = None) -> None:
        mismatches = [] if mismatches is None else mismatches
        super().__init__(r, n, vectors_checked, fcurves_per_vector, mismatches)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def verify_main_theorem(r: int, n: int) -> MainTheoremReport:
    """Compare the three families' degrees on every four-point class.

    Covers every c in {0, ..., r-1}^n with r dividing the sum, on every
    F-curve.  Each such pair reads its degrees from the four-point class
    of its block sums, and every class u occurs (c = (u, 0, ..., 0) on the
    F-curve 1/2/3/4..n), so one pass over the classes decides the whole
    sweep; the F-curves are only counted.  Any mismatch signals an
    implementation bug; the report carries one, on that witness, per
    disagreeing class, in sorted order.
    """
    at_least("r", r, 2)
    at_least("n", n, 4)
    mismatches = []
    # the last residue is fixed by the other three: each sorted class once,
    # in lexicographic order
    for head in combinations_with_replacement(range(r), 3):
        u = head + (-sum(head) % r,)
        if u[3] < u[2]:
            continue
        cb, git, cyc = (derive(r, u) for derive in _DERIVATIONS.values())
        if not cb == git == cyc:
            mismatches.append((u, cb, git, cyc))
    if mismatches:  # the witness and its padding have size n: built only to report
        witness = SetPartition4(n, ({1}, {2}, {3}, range(4, n + 1)))
        pad = (0,) * (n - 4)
        mismatches = [Mismatch(u + pad, witness, *degrees) for u, *degrees in mismatches]
    return MainTheoremReport(
        r=r,
        n=n,
        vectors_checked=r ** (n - 1),
        fcurves_per_vector=count_fcurves(n),
        mismatches=mismatches,
    )


def check_git_factorization(r: int, c: Sequence[int], members: Iterable[int]) -> bool:
    """Check that the phi/psi rules give the right attaching residues on one cut.

    An F-curve of either side of the cut becomes an ambient F-curve once
    the opposite side is merged into the block carrying the attaching
    point.  Block sums are linear, so the ambient degree there is the
    side F-curve's degree for the merged weights: the side's own weights
    plus, on the attaching point, the opposite side's total.  On every
    F-curve of either side, that degree must equal the one of the
    restricted weights.  On a degree table this decides only whether the
    restricted weights are the merged ones mod r (ROADMAP item 2): when
    they are, every F-curve has equal block sums, and the F-curves are
    walked only when they are not, one degree row per prefix of each.
    """
    at_least("r", r, 1)
    entries = tuple(int(x) for x in c)
    wv = WeightVector(r, tuple(e % r for e in entries))
    inside = tuple(sorted(set(int(i) for i in members)))
    restricted = (tuple(phi_rule(wv, inside)), tuple(psi_rule(wv, inside)))
    outside = tuple(i for i in range(1, len(entries) + 1) if i not in inside)
    git = BundleFamily.GIT

    for side, own, other in zip(restricted, (inside, outside), (outside, inside)):
        merged = tuple(entries[i - 1] for i in own) + (sum(entries[i - 1] for i in other),)
        if len(merged) < 4 or all((a - b) % r == 0 for a, b in zip(side, merged)):
            continue
        _, rows = degree_blocks(git, r, side)
        _, ambient = degree_blocks(git, r, merged)
        if any(a != b for (_, _, a), (_, _, b) in zip(rows, ambient)):
            return False
    return True
