"""Independent oracles for every output the benchmark checks.

Nothing here imports divfact.  Each oracle recomputes an answer from a
published formula or by a different method than the program uses:

- four-point degrees from Fakhruddin's level-one formula
  (Chern classes of conformal blocks, arXiv:0910.2960), in Fractions;
- cyclic-cover genera from Riemann-Hurwitz, and s = gcd(side sum, r);
- counts of F-curves, boundary cuts and weight vectors in closed form;
- generic determinants by the Leibniz expansion;
- tableau functions by numeric Fraction determinants at seeded integer points;
- tableau bases by chains of horizontal strips (a count and the fillings);
- surjectivity of the restriction map by exact ranks of coefficient vectors;
- stability by testing the span of every small subset of points.

The `check_*` functions take what the program returned and give a list of
problems, empty when the output is right.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import gcd

# ---------------------------------------------------------------------------
# four-point degrees and F-curves


def conformal_weight(r: int, a: int) -> Fraction:
    """Delta(a) = a(r - a) / 2r, the level-one conformal weight of omega_a."""
    a %= r
    return Fraction(a * (r - a), 2 * r)


@lru_cache(maxsize=None)
def _fakhruddin_sorted(r: int, residues: tuple[int, ...]) -> Fraction:
    first = residues[0]
    total = sum(conformal_weight(r, a) for a in residues)
    pairings = sum(conformal_weight(r, first + other) for other in residues[1:])
    return total - pairings


def fakhruddin_degree(r: int, c) -> Fraction:
    """Degree of the level-one sl_r conformal block bundle on M_{0,4}.

    sum_i Delta(c_i) minus Delta of the pair sums of the three pairings,
    and 0 when r does not divide |c|.  By the main theorem the GIT and
    cyclic-cover families take the same value.
    """
    if len(c) != 4:
        raise ValueError(f"need four weights, got {c}")
    if sum(c) % r:
        return Fraction(0)
    return _fakhruddin_sorted(r, tuple(sorted(x % r for x in c)))


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind, by the recurrence."""
    row = [1] + [0] * k
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


def count_fcurves(n: int) -> int:
    return stirling2(n, 4)


def count_cuts(n: int) -> int:
    return 2 ** (n - 1) - n - 1


def count_vectors(r: int, n: int) -> int:
    return r ** (n - 1)


def partitions4(points: tuple[int, ...]) -> list[tuple[tuple[int, ...], ...]]:
    """All partitions of `points` into four nonempty blocks, blocks in first-seen order."""
    out: list[tuple[tuple[int, ...], ...]] = []

    def grow(i: int, blocks: list[list[int]]) -> None:
        if len(blocks) + len(points) - i < 4:
            return
        if i == len(points):
            out.append(tuple(tuple(b) for b in blocks))
            return
        p = points[i]
        for b in blocks:
            b.append(p)
            grow(i + 1, blocks)
            b.pop()
        if len(blocks) < 4:
            blocks.append([p])
            grow(i + 1, blocks)
            blocks.pop()

    grow(0, [])
    return out


def parse_fcurve_label(label: str, n: int) -> tuple[tuple[int, ...], ...] | None:
    """Blocks of an F-curve label such as '1,2/3/4/5,6', or None when malformed."""
    try:
        blocks = tuple(tuple(int(x) for x in part.split(",")) for part in label.split("/"))
    except ValueError:
        return None
    flat = sorted(x for b in blocks for x in b)
    if len(blocks) != 4 or flat != list(range(1, n + 1)):
        return None
    return blocks


def _block_sums(r: int, c, blocks) -> list[int]:
    return [sum(c[i - 1] for i in b) % r for b in blocks]


def check_degree_records(r: int, c, records) -> list[str]:
    """A degree vector: one record per F-curve, each degree as Fakhruddin predicts."""
    n = len(c)
    problems = []
    seen = set()
    for rec in records:
        blocks = parse_fcurve_label(rec["fcurve"], n)
        if blocks is None:
            problems.append(f"malformed F-curve label {rec['fcurve']!r}")
            continue
        seen.add(frozenset(frozenset(b) for b in blocks))
        want = fakhruddin_degree(r, _block_sums(r, c, blocks))
        if rec["degree"] != want:
            problems.append(f"{rec['fcurve']}: degree {rec['degree']}, expected {want}")
    if len(seen) != len(records) or len(seen) != count_fcurves(n):
        problems.append(
            f"{len(records)} records, {len(seen)} distinct F-curves, expected {count_fcurves(n)}"
        )
    return problems


def check_verify_main(r: int, n: int, vectors_checked: int, fcurves: int, mismatches) -> list[str]:
    """The sweep covers r^(n-1) vectors on S(n,4) F-curves and, by the theorem, finds nothing."""
    problems = []
    if vectors_checked != count_vectors(r, n):
        problems.append(f"checked {vectors_checked} vectors, expected {count_vectors(r, n)}")
    if fcurves != count_fcurves(n):
        problems.append(f"{fcurves} F-curves per vector, expected {count_fcurves(n)}")
    if mismatches:
        problems.append(f"{len(mismatches)} mismatches where the three families agree")
    return problems


@lru_cache(maxsize=None)
def _cut_fcurve_pairs(n: int, inside: tuple[int, ...]):
    """(other side's points, side partition, ambient partition), for both sides.

    The attaching point of a side is written 0; on the ambient curve it is
    replaced by every point of the other side.
    """
    outside = tuple(i for i in range(1, n + 1) if i not in inside)
    pairs = []
    for side, other in ((inside, outside), (outside, inside)):
        if len(side) + 1 < 4:
            continue
        for q in partitions4(side + (0,)):
            ambient = tuple(
                tuple(i for i in b if i != 0) + (other if 0 in b else ()) for b in q
            )
            pairs.append((other, q, ambient))
    return tuple(pairs)


def factorization_holds(r: int, c, members) -> bool:
    """Fakhruddin degrees agree on every side F-curve and its ambient image.

    The attaching weight of a side is the other side's sum mod r.
    """
    n = len(c)
    if sum(c) % r:
        return True  # the trivial bundle has degree 0 on every curve
    inside = tuple(sorted(set(members)))
    for other, side_blocks, ambient_blocks in _cut_fcurve_pairs(n, inside):
        attach = sum(c[i - 1] for i in other) % r
        side = [
            (sum(c[i - 1] for i in b if i != 0) + (attach if 0 in b else 0)) % r
            for b in side_blocks
        ]
        if fakhruddin_degree(r, side) != fakhruddin_degree(r, _block_sums(r, c, ambient_blocks)):
            return False
    return True


# ---------------------------------------------------------------------------
# cyclic covers and the two side rules


def rh_genus(r: int, c) -> int:
    """Riemann-Hurwitz: 2g - 2 = -2r + sum_i (r - gcd(c_i, r))."""
    twice = 2 - 2 * r + sum(r - gcd(x, r) for x in c)
    if twice % 2:
        raise ValueError(f"odd Riemann-Hurwitz numerator for r={r}, c={tuple(c)}")
    return twice // 2


def expected_degeneration(r: int, c, n1: int) -> tuple:
    """(c', c'', s, g, g1, g2) when the first n1 points split off."""
    left, right = sum(c[:n1]), sum(c[n1:])
    c1 = tuple(c[:n1]) + (right % r,)
    c2 = tuple(c[n1:]) + (left % r,)
    return c1, c2, gcd(left, r), rh_genus(r, c), rh_genus(r, c1), rh_genus(r, c2)


def check_degeneration(r: int, c, n1: int, got: tuple) -> list[str]:
    want = expected_degeneration(r, c, n1)
    problems = []
    if tuple(got) != want:
        problems.append(f"r={r} c={tuple(c)} n1={n1}: got {got}, expected {want}")
    if gcd(sum(c[:n1]), r) != gcd(sum(c[n1:]), r):
        problems.append(f"gcd symmetry fails for r={r} c={tuple(c)} n1={n1}")
    c1, c2, s, g, g1, g2 = want
    if g != g1 + g2 + s - 1:
        problems.append(f"genus additivity fails for r={r} c={tuple(c)} n1={n1}")
    return problems


def expected_phi_psi(r: int, c, members) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Side weights: phi keeps `members` and attaches the rest's sum in 1..r,
    psi keeps the rest and attaches the members' sum in 0..r-1."""
    mem = set(members)
    inside = tuple(c[i - 1] for i in sorted(mem))
    outside = tuple(c[i - 1] for i in range(1, len(c) + 1) if i not in mem)
    rho = sum(outside) % r or r
    return inside + (rho,), outside + (sum(inside) % r,)


# ---------------------------------------------------------------------------
# polynomials, determinants and tableau functions


def perm_sign(p) -> int:
    sign = 1
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


def leibniz_terms(matrix) -> dict:
    """Terms of det(matrix) for a matrix of distinct variables, by Leibniz.

    Monomials are sorted tuples of (variable, exponent) pairs.
    """
    size = len(matrix)
    terms = {}
    for p in permutations(range(size)):
        mono = tuple(sorted((matrix[i][p[i]], 1) for i in range(size)))
        terms[mono] = terms.get(mono, 0) + perm_sign(p)
    return {m: v for m, v in terms.items() if v}


def fraction_det(rows) -> Fraction:
    """Determinant of a numeric matrix by Gaussian elimination over Q."""
    m = [[Fraction(x) for x in row] for row in rows]
    size = len(m)
    det = Fraction(1)
    for k in range(size):
        pivot = next((i for i in range(k, size) if m[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, size):
            f = m[i][k] / m[k][k]
            if f:
                for j in range(k, size):
                    m[i][j] -= f * m[k][j]
    return det


def evaluate_terms(terms: dict, values: dict):
    total = 0
    for mono, coeff in terms.items():
        v = coeff
        for var, e in mono:
            v *= values[var] ** e
        total += v
    return total


def tableau_value(columns, numeric) -> Fraction:
    """Product over the columns of the maximal minors of a numeric matrix."""
    value = Fraction(1)
    for col in columns:
        value *= fraction_det([[row[a - 1] for a in col] for row in numeric])
    return value


def check_tableau_function(columns, d: int, n: int, terms: dict, points) -> list[str]:
    """Compare a symbolic tableau function with numeric minors at test points.

    `points` are (d+1) x n matrices of integers or Fractions; variable (i, j)
    is row i, column j (1-based).  The minors are Fraction determinants.
    """
    problems = []
    for numeric in points:
        values = {(i, j): numeric[i][j - 1] for i in range(d + 1) for j in range(1, n + 1)}
        got = evaluate_terms(terms, values)
        want = tableau_value(columns, numeric)
        if got != want:
            problems.append(f"tableau {columns}: value {got} at a test point, expected {want}")
    return problems


# ---------------------------------------------------------------------------
# tableau bases


def _strips(shape: tuple[int, ...], size: int, width: int):
    """Shapes obtained from `shape` by adding a horizontal strip of `size` cells."""
    rows = len(shape)

    def grow(i: int, left: int, acc: list[int]):
        if i == rows:
            if left == 0:
                yield tuple(acc)
            return
        cap = width if i == 0 else shape[i - 1]
        for new in range(shape[i], min(cap, shape[i] + left) + 1):
            acc.append(new)
            yield from grow(i + 1, left - (new - shape[i]), acc)
            acc.pop()

    yield from grow(0, size, [])


def kostka_rectangle(height: int, k: int, content) -> int:
    """Number of semistandard fillings of a height x k rectangle with `content`."""
    counts = {(0,) * height: 1}
    for size in content:
        nxt: dict[tuple[int, ...], int] = {}
        for shape, ways in counts.items():
            for new in _strips(shape, size, k):
                nxt[new] = nxt.get(new, 0) + ways
        counts = nxt
    return counts.get((k,) * height, 0)


def ssyt_rectangle(height: int, k: int, content) -> list[tuple[tuple[int, ...], ...]]:
    """The fillings themselves, as column tuples, built strip by strip."""
    chains = [((0,) * height, [])]
    for size in content:
        chains = [
            (new, rows + [new]) for shape, rows in chains for new in _strips(shape, size, k)
        ]
    out = []
    target = (k,) * height
    for shape, steps in chains:
        if shape != target:
            continue
        grid = [[0] * k for _ in range(height)]
        prev = (0,) * height
        for value, cur in enumerate(steps, start=1):
            for i in range(height):
                for j in range(prev[i], cur[i]):
                    grid[i][j] = value
            prev = cur
        out.append(tuple(tuple(grid[i][j] for i in range(height)) for j in range(k)))
    return out


def check_tableau_basis(d: int, k: int, content, columns_list) -> list[str]:
    """The basis is exactly the set of semistandard fillings with this content."""
    problems = []
    want = kostka_rectangle(d + 1, k, content)
    if len(columns_list) != want:
        problems.append(f"{len(columns_list)} tableaux, expected {want}")
    got = {tuple(tuple(c) for c in cols) for cols in columns_list}
    if len(got) != len(columns_list):
        problems.append("repeated tableaux")
    if got != set(ssyt_rectangle(d + 1, k, content)):
        problems.append("tableaux differ from the semistandard fillings")
    return problems


# ---------------------------------------------------------------------------
# the restriction map: exact ranks of coefficient vectors


def _poly_mul(a: dict, b: dict) -> dict:
    """Product of polynomials whose monomials are packed exponent vectors."""
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = ma + mb
            out[m] = out.get(m, 0) + ca * cb
    return {m: v for m, v in out.items() if v}


def _minor(matrix, col) -> dict:
    """Leibniz over the selected columns; entries are a variable index, 1 or 0.

    A monomial is an int holding one 8-bit exponent per variable, so that
    multiplying monomials is adding ints.
    """
    size = len(matrix)
    out: dict = {}
    for p in permutations(range(size)):
        m = 0
        for i in range(size):
            entry = matrix[i][col[p[i]] - 1]
            if entry == 0:
                break
            if entry != 1:
                m += 1 << (8 * entry[1])
        else:
            out[m] = out.get(m, 0) + perm_sign(p)
    return {m: v for m, v in out.items() if v}


def _product_of_minors(matrix, columns, cache: dict) -> dict:
    poly = {0: 1}
    for col in columns:
        key = (id(matrix), col)
        if key not in cache:
            cache[key] = _minor(matrix, col)
        poly = _poly_mul(poly, cache[key])
        if not poly:
            break
    return poly


def exact_rank(vectors, pivots: dict | None = None) -> int:
    """Rank over Q of sparse integer vectors, by fraction-free elimination.

    With `pivots` given, vectors are reduced against them and new pivots are
    added to it; the return value is the number of new pivots.
    """
    pivots = {} if pivots is None else pivots
    added = 0
    for vec in vectors:
        row = dict(vec)
        for col in sorted(pivots):
            b = row.get(col)
            if not b:
                continue
            p = pivots[col]
            a = p[col]
            if a != 1:
                row = {key: a * v for key, v in row.items()}
            for key, v in p.items():
                row[key] = row.get(key, 0) - b * v
            row = {key: v for key, v in row.items() if v}
            if a != 1:
                common = 0
                for v in row.values():
                    common = gcd(common, v)
                if common > 1:
                    row = {key: v // common for key, v in row.items()}
        if row:
            lead = min(row)
            if row[lead] < 0:
                row = {key: -v for key, v in row.items()}
            pivots[lead] = row
            added += 1
    return added


def restriction_ranks(d1: int, d2: int, n1: int, n2: int, content, k: int) -> dict:
    """Ranks of the restricted ambient basis, of the product basis and of both.

    The block matrix puts points 1..n1 in rows 0..d1 and points n1+1..n in
    rows d1..d; the side matrices add an attaching point at the last,
    resp. first, basis vector.  Variables (i, j) are shared, so images and
    products live in one polynomial ring.
    """
    d, n = d1 + d2, n1 + n2
    names = [(i, j) for j in range(1, n1 + 1) for i in range(d1 + 1)]
    names += [(i, j) for j in range(n1 + 1, n + 1) for i in range(d2 + 1)]
    index = {v: t for t, v in enumerate(names)}

    def var(i, j):
        return ("x", index[(i, j)])

    block = [
        [var(i, j) if i <= d1 else 0 for j in range(1, n1 + 1)]
        + [var(i - d1, j) if i >= d1 else 0 for j in range(n1 + 1, n + 1)]
        for i in range(d + 1)
    ]
    side1 = [[var(i, j) for j in range(1, n1 + 1)] + [1 if i == d1 else 0] for i in range(d1 + 1)]
    side2 = [
        [var(i, n1 + j) for j in range(1, n2 + 1)] + [1 if i == 0 else 0] for i in range(d2 + 1)
    ]
    left_content = tuple(content[:n1]) + (sum(content[n1:]) - k * d2,)
    right_content = tuple(content[n1:]) + (sum(content[:n1]) - k * d1,)
    cache: dict = {}
    images = []
    for cols in ssyt_rectangle(d + 1, k, content):
        f = _product_of_minors(block, cols, cache)
        if f:
            images.append(f)
    lefts = [_product_of_minors(side1, cols, cache) for cols in ssyt_rectangle(d1 + 1, k, left_content)]
    rights = [_product_of_minors(side2, cols, cache) for cols in ssyt_rectangle(d2 + 1, k, right_content)]
    products = [_poly_mul(g, h) for g in lefts for h in rights]
    rank_images = exact_rank(images)
    pivots: dict = {}
    rank_products = exact_rank(products, pivots)
    rank_union = rank_products + exact_rank(images, pivots)
    return {
        "dim_ambient": kostka_rectangle(d + 1, k, content),
        "dim_left": len(lefts),
        "dim_right": len(rights),
        "nonzero_images": len(images),
        "rank_images": rank_images,
        "rank_products": rank_products,
        "rank_union": rank_union,
        "alpha": right_content[-1],
        "beta": left_content[-1],
    }


def check_restriction(report: dict, ranks: dict, k: int) -> list[str]:
    """Compare a restriction report with the ranks; surjective means the
    images span every product of side basis tableaux."""
    problems = []
    expect = {
        "alpha": ranks["alpha"],
        "beta": ranks["beta"],
        "dim_ambient": ranks["dim_ambient"],
        "dim_left": ranks["dim_left"],
        "dim_right": ranks["dim_right"],
        "decomposable": ranks["nonzero_images"],
        "zero_restrictions": ranks["dim_ambient"] - ranks["nonzero_images"],
        "surjective": ranks["rank_union"] == ranks["rank_images"],
        "failures": [],
    }
    for key, want in expect.items():
        if report[key] != want:
            problems.append(f"{key} = {report[key]!r}, expected {want!r}")
    if report["alpha"] + report["beta"] != k:
        problems.append(f"alpha + beta = {report['alpha'] + report['beta']}, expected {k}")
    return problems


# ---------------------------------------------------------------------------
# stability


def _integral(point) -> list[int]:
    """The point scaled to integer coordinates (the same projective point)."""
    scale = 1
    for x in point:
        scale = scale * Fraction(x).denominator // gcd(scale, Fraction(x).denominator)
    return [int(Fraction(x) * scale) for x in point]


def _reduce(basis, v: list[int]) -> list[int]:
    """Fraction-free reduction of v against an echelon basis of (pivot, row)."""
    for pivot, row in basis:
        if v[pivot]:
            a, b = row[pivot], v[pivot]
            v = [a * x - b * y for x, y in zip(v, row)]
    return v


def stability_verdict(points, weights) -> str:
    """'stable', 'strictly-semistable' or 'unstable', by subset spans.

    Every proper subspace spanned by points is the span of at most d of
    them; it must carry weight at most its dimension plus one, strictly
    less for stability.
    """
    dim = len(points[0]) - 1
    vectors = [_integral(p) for p in points]
    worst = None
    for size in range(1, dim + 1):
        for subset in combinations(range(len(vectors)), size):
            basis = []
            for i in subset:
                v = _reduce(basis, vectors[i])
                pivot = next((j for j, x in enumerate(v) if x), None)
                if pivot is not None:
                    basis.append((pivot, v))
            rank = len(basis)
            weight = sum(
                (Fraction(weights[i]) for i in range(len(vectors)) if not any(_reduce(basis, vectors[i]))),
                Fraction(0),
            )
            slack = weight - rank
            if worst is None or slack > worst:
                worst = slack
    if worst is None or worst < 0:
        return "stable"
    return "strictly-semistable" if worst == 0 else "unstable"
