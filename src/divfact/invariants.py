"""Tableau invariants of point configurations and their boundary restriction.

The multihomogeneous invariants of n ordered points in projective d-space
are spanned by semistandard tableau functions: products of maximal minors
of the coordinate matrix, one minor per tableau column.  When the
configuration space is restricted to two linear subspaces glued at a
point (the block coordinate matrix produced by `attach_block_matrix`),
each tableau function either dies or splits as a signed product of two
smaller tableau functions.  This module enumerates the tableau bases,
evaluates them symbolically, performs the combinatorial splitting, and
cross-checks the two against each other.

Everything here is exact: polynomial identities over the integers and
rational point coordinates.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Hashable, Iterator, Sequence

from .polynomials import Poly, determinant
from .records import MutableRecord, Record, at_least
from .weights import Linearization, split_linearization

Column = tuple[int, ...]


class Tableau(Record):
    """A rectangular semistandard filling with d+1 rows and k columns.

    Entries weakly increase along rows and strictly increase down
    columns; each column is stored as a strictly increasing tuple.
    """

    __slots__ = ("d", "k", "columns")

    def __init__(self, d: int, k: int, columns: Sequence[Sequence[int]]) -> None:
        columns = tuple(tuple(int(v) for v in col) for col in columns)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "columns", columns)
        if len(columns) != k:
            raise ValueError(f"expected {k} columns, got {len(columns)}")
        for col in columns:
            if len(col) != d + 1:
                raise ValueError(f"column {col} does not have height {d + 1}")
            if any(col[i] >= col[i + 1] for i in range(len(col) - 1)):
                raise ValueError(f"column {col} is not strictly increasing")
            if col[0] < 1:
                raise ValueError(f"entries must be positive, got column {col}")
        for left, right in zip(columns, columns[1:]):
            if any(a > b for a, b in zip(left, right)):
                raise ValueError(
                    f"rows not weakly increasing between columns {left} and {right}"
                )

    def content(self, n: int) -> tuple[int, ...]:
        """Occurrence count of each entry 1..n."""
        counts = [0] * n
        for col in self.columns:
            for v in col:
                counts[v - 1] += 1
        return tuple(counts)


def check_content(d: int, k: int, content: Sequence[int]) -> None:
    """The content of a (d+1) x k tableau: counts >= 0 that sum to k(d+1)."""
    for x in content:
        at_least("content", x, 0)
    if sum(content) != k * (d + 1):
        raise ValueError(f"content sums to {sum(content)}, expected k*(d+1) = {k * (d + 1)}")


def enumerate_tableaux(d: int, k: int, content: Sequence[int]) -> list[Tableau]:
    """All semistandard (d+1) x k fillings where entry i appears content[i-1] times.

    Returns the empty list when none exist.  Enumeration is by
    lexicographic backtracking over cells, column by column, so the order
    is deterministic; the backtracking keeps its own stack, so any size
    runs without recursion.
    """
    at_least("d", d, 0)
    at_least("k", k, 0)
    n = len(content)
    remaining = [int(x) for x in content]
    check_content(d, k, remaining)
    height = d + 1
    size = k * height
    if size == 0:
        return [Tableau(d, k, ())]
    cells: list[int] = []  # the filling so far, column by column

    def entries(t: int) -> Iterator[int]:
        """The entries cell t may take, given the cells before it."""
        row = t % height
        lowest = cells[t - 1] + 1 if row > 0 else 1
        if t >= height:
            lowest = max(lowest, cells[t - height])
        # the column still needs height - row - 1 strictly larger entries
        return iter(range(lowest, n - (height - row - 1) + 1))

    results: list[Tableau] = []
    tries = [entries(0)]  # per filled cell and the next: its entries left to try
    while tries:
        for v in tries[-1]:
            if remaining[v - 1]:
                break
        else:
            tries.pop()
            if cells:
                remaining[cells.pop() - 1] += 1
            continue
        remaining[v - 1] -= 1
        cells.append(v)
        if len(cells) < size:
            tries.append(entries(len(cells)))
            continue
        columns = tuple(tuple(cells[j:j + height]) for j in range(0, size, height))
        results.append(Tableau(d, k, columns))
        remaining[cells.pop() - 1] += 1
    return results


# ---------------------------------------------------------------------------
# symbolic coordinate matrices


def generic_matrix(d: int, n: int) -> list[list[Poly]]:
    """The (d+1) x n matrix of independent coordinate variables x(i, j)."""
    return [[Poly.variable((i, j)) for j in range(1, n + 1)] for i in range(d + 1)]


def side_matrices(
    d1: int, n1: int, d2: int, n2: int
) -> tuple[list[list[Poly]], list[list[Poly]]]:
    """Coordinate matrices of the two glued configuration spaces.

    The first has n1 generic points in d1-space plus a final point fixed
    at the last basis vector; the second has n2 generic points in
    d2-space plus a final point fixed at the first basis vector.  Second
    block variables are indexed by columns n1+1..n1+n2 so they coincide
    with the variables of `attach_block_matrix`.
    """
    a1 = [
        [Poly.variable((i, j)) for j in range(1, n1 + 1)]
        + [Poly.const(1 if i == d1 else 0)]
        for i in range(d1 + 1)
    ]
    a2 = [
        [Poly.variable((i, n1 + j)) for j in range(1, n2 + 1)]
        + [Poly.const(1 if i == 0 else 0)]
        for i in range(d2 + 1)
    ]
    return a1, a2


def attach_block_matrix(d1: int, d2: int, n1: int, n2: int) -> list[list[Poly]]:
    """The glued (d+1) x n coordinate matrix, d = d1 + d2, n = n1 + n2.

    Columns 1..n1 occupy rows 0..d1 and columns n1+1..n occupy rows
    d1..d; the shared row d1 carries the last coordinate row of the first
    block and the first coordinate row of the second.  The attaching
    point itself is not a column.
    """
    zero = Poly.const(0)
    return [
        [Poly.variable((i, j)) if i <= d1 else zero for j in range(1, n1 + 1)]
        + [Poly.variable((i - d1, j)) if i >= d1 else zero for j in range(n1 + 1, n1 + n2 + 1)]
        for i in range(d1 + d2 + 1)
    ]


def tableau_polynomial(columns: Sequence[Column], matrix: Sequence[Sequence[Poly]]) -> Poly:
    """Product over tableau columns of the corresponding maximal minors.

    A column (a_1 < ... < a_h) selects matrix columns a_1, ..., a_h (the
    matrix must have exactly h rows); juxtaposition multiplies minors.
    """
    height = len(matrix)
    width = len(matrix[0])
    result = Poly.const(1)
    for col in columns:
        if len(col) != height:
            raise ValueError(f"column {col} does not match matrix height {height}")
        if col[-1] > width:
            raise ValueError(f"column {col} selects beyond matrix width {width}")
        sub = [[matrix[i][a - 1] for a in col] for i in range(height)]
        result = result * determinant(sub)
    return result


def evaluate_tableau(t: Tableau, n: int) -> Poly:
    """The tableau function on the generic coordinate matrix of n points."""
    return tableau_polynomial(t.columns, generic_matrix(t.d, n))


# ---------------------------------------------------------------------------
# exact elimination

Vector = dict[Hashable, int]


def _reduce(pivots: dict[Hashable, Vector], vec: Vector) -> Vector:
    """What is left of vec after eliminating every lead of pivots.

    Fraction-free: `pivots` maps each lead to its echelon row, a primitive
    integer vector whose least key is the lead (keys are sortable).  The
    remainder is a nonzero integer multiple of vec minus an integer
    combination of the rows, and is empty exactly when vec lies in their
    span over Q.
    """
    row = vec
    for lead in sorted(pivots):
        b = row.get(lead)
        if b:
            p = pivots[lead]
            out = {key: p[lead] * v for key, v in row.items()}
            for key, v in p.items():
                out[key] = out.get(key, 0) - b * v
            g = gcd(*out.values())
            row = {key: v // g for key, v in out.items() if v}
    return row


def _echelon_add(pivots: dict[Hashable, Vector], vec: Vector) -> bool:
    """Add what is left of vec to the echelon rows; False if vec was in their span."""
    row = _reduce(pivots, vec)
    if row:
        lead = min(row)
        g = gcd(*row.values()) if row[lead] > 0 else -gcd(*row.values())
        pivots[lead] = {key: v // g for key, v in row.items()}
    return bool(row)


# ---------------------------------------------------------------------------
# point configurations and semistability


class PointConfiguration(Record):
    """An ordered tuple of points in projective d-space, exact rational.

    Each point is stored as a homogeneous coordinate column normalized so
    that its first nonzero coordinate equals 1.
    """

    __slots__ = ("d", "points")

    def __init__(self, d: int, points: Sequence[Sequence[Fraction | int]]) -> None:
        normalized = []
        for p in points:
            coords = tuple(Fraction(x) for x in p)
            if len(coords) != d + 1:
                raise ValueError(
                    f"point {','.join(map(str, coords))} has {len(coords)} coordinates,"
                    f" need d + 1 = {d + 1}"
                )
            pivot = next((x for x in coords if x != 0), None)
            if pivot is None:
                raise ValueError("zero column is not a projective point")
            normalized.append(tuple(x / pivot for x in coords))
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "points", tuple(normalized))

    @property
    def n(self) -> int:
        return len(self.points)


class Stability(Enum):
    STABLE = "stable"
    STRICTLY_SEMISTABLE = "strictly-semistable"
    UNSTABLE = "unstable"


def _integral(point: Sequence[Fraction]) -> Vector:
    """The point scaled to integer coordinates (the same projective point)."""
    scale = lcm(*(x.denominator for x in point))
    return {i: x.numerator * (scale // x.denominator) for i, x in enumerate(point) if x}


def is_semistable(cfg: PointConfiguration, c: Linearization) -> Stability:
    """Classify a weighted configuration as stable, strictly semistable, or unstable.

    The configuration is semistable iff every proper linear subspace W
    carries total weight at most dim W + 1, and stable iff strictly less.
    It suffices to test subspaces spanned by subsets of the points, since
    replacing W by the span of the points it contains keeps the weight
    while possibly lowering the dimension.  Spans of at most d points
    exhaust these (they are automatically proper).  Each point is scaled
    to integer coordinates, the same projective point, and spans are
    computed by fraction-free elimination.
    """
    if cfg.n != c.n:
        raise ValueError(f"{cfg.n} points but {c.n} weights")
    if cfg.d != c.d:
        raise ValueError(f"configuration in dimension {cfg.d} but linearization for {c.d}")
    vectors = [_integral(p) for p in cfg.points]
    worst = None
    for size in range(1, cfg.d + 1):
        for subset in combinations(range(cfg.n), size):
            pivots: dict[Hashable, Vector] = {}
            if not all(_echelon_add(pivots, vectors[i]) for i in subset):
                continue  # dependent subset; its span already appeared
            weight = sum(
                (c[i] for i in range(cfg.n) if not _reduce(pivots, vectors[i])),
                Fraction(0),
            )
            slack = weight - size
            if worst is None or slack > worst:
                worst = slack
    if worst is None or worst < 0:
        return Stability.STABLE
    if worst == 0:
        return Stability.STRICTLY_SEMISTABLE
    return Stability.UNSTABLE


def attach_configuration(
    a1: PointConfiguration, a2: PointConfiguration
) -> PointConfiguration:
    """Glue two normalized configurations into one in the joined space.

    The first configuration must end with the last basis vector of its
    space and the second with the first basis vector of its own; those
    two final points become the attaching point and are dropped.  The
    remaining points embed block-wise: first-block points keep their
    coordinates in rows 0..d1, second-block points occupy rows d1..d.
    """
    d1, d2 = a1.d, a2.d
    last1 = tuple(Fraction(1 if i == d1 else 0) for i in range(d1 + 1))
    first2 = tuple(Fraction(1 if i == 0 else 0) for i in range(d2 + 1))
    if a1.points[-1] != last1:
        raise ValueError(
            f"final point of the first configuration must be {last1}, got {a1.points[-1]}"
        )
    if a2.points[-1] != first2:
        raise ValueError(
            f"final point of the second configuration must be {first2}, got {a2.points[-1]}"
        )
    d = d1 + d2
    zero = Fraction(0)
    ambient: list[tuple[Fraction, ...]] = []
    for p in a1.points[:-1]:
        ambient.append(tuple(p) + (zero,) * d2)
    for p in a2.points[:-1]:
        ambient.append((zero,) * d1 + tuple(p))
    return PointConfiguration(d, tuple(ambient))


# ---------------------------------------------------------------------------
# the restriction map on tableau functions


def _mu_columns(
    t: Tableau, n1: int, n2: int, d1: int, d2: int
) -> tuple[int, list[Column], list[Column]] | None:
    """Split a tableau function across the glued configuration space.

    None when the restriction vanishes (a column meets the blocks in
    sizes other than d1+1/d2 and d1/d2+1); otherwise the sign and factor
    columns (entries n1+1 and n2+1 mark the attaching point) making
    restriction = sign * left function * right function exactly.  Left
    columns keep t's order; on the right the narrow pattern's come first,
    the only order that can be semistandard.  A factor need not be.

    The sign is (-1)^(d2 * wide columns).  Rows 0..d1-1 of the glued
    matrix vanish on second-block columns and rows d1+1..d on first-block
    ones, so each column minor is block-triangular.  A wide column (d1+1
    first-block entries) gives det(first block) * det(second block without
    its row 0); its right factor carries the attaching point e_0 last, in
    column d2 + 1, and expanding along it gives (-1)^d2 times that second
    minor.  A narrow column gives det(first block without its row d1) *
    det(second block); its left factor carries e_d1 last, on the diagonal,
    which gives sign +1.

    t has height d1+d2+1 and entries in 1..n1+n2: its one caller
    enumerates it from a content of that length.
    """
    left: list[Column] = []
    right_narrow: list[Column] = []
    right_wide: list[Column] = []
    for col in t.columns:
        first = tuple(v for v in col if v <= n1)
        second = tuple(v - n1 for v in col if v > n1)
        if len(first) == d1 + 1:
            left.append(first)
            right_wide.append(second + (n2 + 1,))
        elif len(first) == d1:
            left.append(first + (n1 + 1,))
            right_narrow.append(second)
        else:
            return None
    return (-1) ** (d2 * len(right_wide)), left, right_narrow + right_wide


class _SideSpan:
    """Coordinates of one side's tableau functions in its basis functions.

    `coordinates` gives {basis index: coefficient}, up to one nonzero
    factor, or None outside the span.  Basis columns are read off; any
    other function is reduced against the basis functions, each tagged
    with its index (keys (0, monomial number), then (1, index)), and what
    is left of the tags is the combination that cancels it.  The basis
    functions are evaluated on first need.
    """

    def __init__(self, basis: list[Tableau], matrix: list[list[Poly]]) -> None:
        self.basis, self.matrix = basis, matrix
        self.index = {t.columns: i for i, t in enumerate(basis)}
        self.monomials: dict = {}
        self.pivots: dict[Hashable, Vector] = {}

    def _vector(self, f: Poly) -> Vector:
        number = self.monomials.setdefault
        return {(0, number(m, len(self.monomials))): v for m, v in f.terms.items()}

    def coordinates(self, columns: tuple[Column, ...], f: Poly) -> dict[int, int] | None:
        if columns in self.index:
            return {self.index[columns]: 1}
        if not self.pivots:
            for i, t in enumerate(self.basis):
                f_i = tableau_polynomial(t.columns, self.matrix)
                _echelon_add(self.pivots, {**self._vector(f_i), (1, i): 1})
        rest = _reduce(self.pivots, self._vector(f))
        if any(tag == 0 for tag, _ in rest):
            return None
        return {i: v for (_, i), v in rest.items()}


class RestrictionReport(MutableRecord):
    """Outcome of the exhaustive symbolic check of the restriction map."""

    __slots__ = ("d1", "d2", "n1", "n2", "k", "alpha", "beta", "dim_ambient", "dim_left",
                 "dim_right", "decomposable", "zero_restrictions", "nonbasis_images",
                 "surjective", "failures")

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_restriction_theorem(
    d1: int, d2: int, n1: int, n2: int, c: Linearization, k: int
) -> RestrictionReport:
    """Check the tableau restriction against the symbolic oracle, exhaustively.

    For every basis tableau of the ambient invariant space: substitute the
    block coordinate matrix and compare with the signed product of the
    combinatorial factors (zero when absent); verify the multiplicity
    bookkeeping (the attaching indices appear alpha resp. beta times with
    alpha + beta = k and side contents matching the split weights); and
    check that the images span every product of a left and a right basis
    function.  Each image is a signed product of two side tableau
    functions; a factor that is not a basis tableau is written in its
    side's basis functions, so the span is the rank of the images'
    coordinate tensors, compared with dim_left * dim_right.
    """
    d = d1 + d2
    n = n1 + n2
    if c.d != d or c.n != n:
        raise ValueError(f"linearization must live in Delta({d + 1}, {n})")
    at_least("k", k, 1)
    scaled = [k * x for x in c.entries]
    if any(x.denominator != 1 for x in scaled):
        raise ValueError(
            f"k = {k} does not clear the denominators of {','.join(map(str, c.entries))}"
        )
    content = tuple(int(x) for x in scaled)

    c_prime, c_double = split_linearization(c, n1, d1)
    left_content = tuple(int(k * x) for x in c_prime.entries)
    right_content = tuple(int(k * x) for x in c_double.entries)
    beta = left_content[-1]
    alpha = right_content[-1]

    b = attach_block_matrix(d1, d2, n1, n2)
    a1, a2 = side_matrices(d1, n1, d2, n2)

    ambient_basis = enumerate_tableaux(d, k, content)
    left_basis = enumerate_tableaux(d1, k, left_content)
    right_basis = enumerate_tableaux(d2, k, right_content)

    left = _SideSpan(left_basis, a1)
    right = _SideSpan(right_basis, a2)
    # echelon rows of the images in the product basis, entry i * dim_right + j
    # on the product of left basis function i and right basis function j
    dim_right = len(right_basis)
    images: dict[Hashable, Vector] = {}
    rank = 0
    failures: list[str] = []
    decomposable = zero_restrictions = nonbasis = 0

    if alpha + beta != k:
        failures.append(f"alpha + beta = {alpha + beta} differs from k = {k}")

    for t in ambient_basis:
        lhs = tableau_polynomial(t.columns, b)
        raw = _mu_columns(t, n1, n2, d1, d2)
        if raw is None:
            zero_restrictions += 1
            if not lhs.is_zero():
                failures.append(f"tableau {t.columns} should restrict to zero but gives {lhs!r}")
            continue
        decomposable += 1
        sign, left_cols, right_cols = raw
        f_left = tableau_polynomial(left_cols, a1)
        f_right = tableau_polynomial(right_cols, a2)
        rhs = sign * f_left * f_right
        if lhs != rhs:
            failures.append(
                f"tableau {t.columns}: restriction {lhs!r} differs from "
                f"signed product {rhs!r}"
            )
            continue
        counts_left = [sum(col.count(v) for col in left_cols) for v in range(1, n1 + 2)]
        counts_right = [sum(col.count(v) for col in right_cols) for v in range(1, n2 + 2)]
        if tuple(counts_left) != left_content or tuple(counts_right) != right_content:
            failures.append(
                f"tableau {t.columns}: factor contents {counts_left}, {counts_right} "
                f"differ from split weights {left_content}, {right_content}"
            )
            continue
        left_cols, right_cols = tuple(left_cols), tuple(right_cols)
        if left_cols not in left.index or right_cols not in right.index:
            nonbasis += 1
        x = left.coordinates(left_cols, f_left)
        y = right.coordinates(right_cols, f_right)
        if x is None or y is None:
            failures.append(
                f"tableau {t.columns}: factor {left_cols if x is None else right_cols} "
                f"lies outside the span of its side's basis functions"
            )
            continue
        rank += _echelon_add(
            images, {i * dim_right + j: u * v for i, u in x.items() for j, v in y.items()}
        )

    return RestrictionReport(
        d1=d1, d2=d2, n1=n1, n2=n2, k=k, alpha=alpha, beta=beta,
        dim_ambient=len(ambient_basis), dim_left=len(left_basis), dim_right=dim_right,
        decomposable=decomposable, zero_restrictions=zero_restrictions,
        nonbasis_images=nonbasis, surjective=rank == len(left_basis) * dim_right,
        failures=failures,
    )
