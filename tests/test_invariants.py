import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest

from divfact import invariants
from divfact.invariants import (
    _mu_columns,
    PointConfiguration,
    Stability,
    Tableau,
    attach_block_matrix,
    attach_configuration,
    enumerate_tableaux,
    evaluate_tableau,
    generic_matrix,
    is_semistable,
    side_matrices,
    tableau_polynomial,
    verify_restriction_theorem,
)
from divfact.polynomials import Poly
from divfact.weights import Linearization, split_linearization


def brute_force_tableaux(d, k, content):
    """All fillings by filtering chains of strictly increasing columns.

    Independent of the backtracking enumerator: picks every multiset of
    column sets, sorts it, and keeps content and row-monotone matches.
    """
    n = len(content)
    height = d + 1
    column_pool = list(combinations(range(1, n + 1), height))
    found = set()
    for cols in combinations_with_replacement(column_pool, k):
        counts = [0] * n
        for col in cols:
            for v in col:
                counts[v - 1] += 1
        if counts != list(content):
            continue
        ordered = sorted(cols)
        if all(
            all(a <= b for a, b in zip(left, right))
            for left, right in zip(ordered, ordered[1:])
        ):
            found.add(tuple(ordered))
    return found


class TestTableau:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            Tableau(1, 1, ((2, 1),))  # column not increasing
        with pytest.raises(ValueError):
            Tableau(1, 2, ((2, 3), (1, 4)))  # rows not weakly increasing
        with pytest.raises(ValueError):
            Tableau(1, 1, ((1, 2), (1, 2)))  # wrong column count
        with pytest.raises(ValueError):
            Tableau(2, 1, ((1, 2),))  # wrong height

    def test_content(self):
        t = Tableau(1, 2, ((1, 2), (1, 3)))
        assert t.content(4) == (2, 1, 1, 0)


class TestEnumerateTableaux:
    def test_two_by_two_standard(self):
        ts = enumerate_tableaux(1, 2, (1, 1, 1, 1))
        assert len(ts) == 2
        assert {t.columns for t in ts} == {((1, 2), (3, 4)), ((1, 3), (2, 4))}

    def test_single_column(self):
        assert len(enumerate_tableaux(1, 1, (1, 1))) == 1
        assert len(enumerate_tableaux(2, 1, (1, 1, 1))) == 1

    def test_impossible_content_gives_empty(self):
        assert enumerate_tableaux(1, 1, (2, 0)) == []

    def test_content_sum_checked(self):
        with pytest.raises(ValueError):
            enumerate_tableaux(1, 2, (1, 1, 1))

    def test_negative_shape_rejected(self):
        # both contents sum to k*(d+1), so only the sign check catches them
        with pytest.raises(ValueError):
            enumerate_tableaux(-1, 0, (0,))
        with pytest.raises(ValueError):
            enumerate_tableaux(-2, -1, (1,))

    def test_matches_brute_force(self):
        cases = [
            (1, 2, (1, 1, 1, 1)),
            (1, 3, (2, 1, 2, 1)),
            (2, 2, (1, 1, 1, 1, 1, 1)),
            (2, 2, (2, 1, 1, 2, 0)),
            (3, 2, (2, 1, 1, 2, 2)),
        ]
        for d, k, content in cases:
            ours = {t.columns for t in enumerate_tableaux(d, k, content)}
            assert ours == brute_force_tableaux(d, k, content)

    def test_many_cells(self):
        # 6000 cells, more than Python's recursion limit allows frames
        ts = enumerate_tableaux(1, 3000, (3000, 3000))
        assert [t.columns for t in ts] == [((1, 2),) * 3000]

    def test_deterministic_order(self):
        a = enumerate_tableaux(2, 2, (1, 1, 1, 1, 1, 1))
        b = enumerate_tableaux(2, 2, (1, 1, 1, 1, 1, 1))
        assert [t.columns for t in a] == [t.columns for t in b]


class TestEvaluateTableau:
    def test_single_minor(self):
        t = Tableau(1, 1, ((1, 2),))
        x = lambda i, j: Poly.variable((i, j))
        assert evaluate_tableau(t, 2) == x(0, 1) * x(1, 2) - x(0, 2) * x(1, 1)

    def test_square_of_doubled_column(self):
        single = evaluate_tableau(Tableau(1, 1, ((1, 2),)), 2)
        double = evaluate_tableau(Tableau(1, 2, ((1, 2), (1, 2))), 2)
        assert double == single * single

    def test_multiplicative_over_columns(self):
        m = generic_matrix(1, 4)
        both = tableau_polynomial([(1, 3), (2, 4)], m)
        assert both == tableau_polynomial([(1, 3)], m) * tableau_polynomial([(2, 4)], m)

    def test_alternating_in_column_entries(self):
        m = generic_matrix(1, 4)
        assert tableau_polynomial([(2, 1)], m) == -tableau_polynomial([(1, 2)], m)

    def test_vanishes_on_coincident_points(self):
        # the basis tableau whose minor uses columns 1 and 2 dies at p1 = p2
        cfg = PointConfiguration(
            1, ((1, 2), (1, 2), (1, 3), (1, 5))
        )
        # integer homogeneous coordinates, one point per column
        matrix = [
            [Poly.const(int(p[i])) for p in cfg.points] for i in range(cfg.d + 1)
        ]
        assert tableau_polynomial(((1, 2), (3, 4)), matrix).is_zero()
        assert not tableau_polynomial(((1, 3), (2, 4)), matrix).is_zero()

    def test_entries_beyond_n_rejected(self):
        with pytest.raises(ValueError):
            evaluate_tableau(Tableau(1, 1, ((1, 5),)), 4)


class TestSemistability:
    def setup_method(self):
        self.c = Linearization((Fraction(1, 2),) * 4, 1)

    def test_distinct_points_stable(self):
        cfg = PointConfiguration(1, ((1, 0), (0, 1), (1, 1), (2, 1)))
        assert is_semistable(cfg, self.c) is Stability.STABLE

    def test_doubled_point_strictly_semistable(self):
        cfg = PointConfiguration(1, ((1, 0), (1, 0), (1, 1), (2, 1)))
        assert is_semistable(cfg, self.c) is Stability.STRICTLY_SEMISTABLE

    def test_tripled_point_unstable(self):
        cfg = PointConfiguration(1, ((1, 0), (1, 0), (1, 0), (2, 1)))
        assert is_semistable(cfg, self.c) is Stability.UNSTABLE

    def test_plane_configuration_collinear(self):
        # four of five points on a line: weight 8/3 > dim + 1 = 2
        c = Linearization((Fraction(2, 3),) * 4 + (Fraction(1, 3),), 2)
        collinear = PointConfiguration(
            2, ((1, 0, 0), (1, 1, 0), (1, 2, 0), (1, 3, 0), (0, 0, 1))
        )
        assert is_semistable(collinear, c) is Stability.UNSTABLE
        general = PointConfiguration(
            2, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3))
        )
        assert is_semistable(general, c) is Stability.STABLE

    def test_matches_fraction_reference(self):
        # repeated, rescaled and dependent points against a reference that
        # computes spans by Gaussian elimination over Fraction
        def rank(vectors):
            rows, r = [list(v) for v in vectors], 0
            for j in range(len(rows[0]) if rows else 0):
                pivot = next((i for i in range(r, len(rows)) if rows[i][j]), None)
                if pivot is None:
                    continue
                rows[r], rows[pivot] = rows[pivot], rows[r]
                for i in range(r + 1, len(rows)):
                    factor = rows[i][j] / rows[r][j]
                    rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
                r += 1
            return r

        def reference(points, c):
            worst = None
            for size in range(1, len(points[0])):
                for subset in combinations(range(len(points)), size):
                    span = [points[i] for i in subset]
                    if rank(span) < size:
                        continue
                    inside = [i for i in range(len(points)) if rank(span + [points[i]]) == size]
                    slack = sum(c[i] for i in inside) - size
                    worst = slack if worst is None else max(worst, slack)
            if worst is None or worst < 0:
                return Stability.STABLE
            return Stability.STRICTLY_SEMISTABLE if worst == 0 else Stability.UNSTABLE

        rng = random.Random(8)
        for _ in range(120):
            d = rng.randint(1, 3)
            n = rng.randint(d + 2, d + 4)
            c = Linearization(tuple(Fraction(d + 1, n) for _ in range(n)), d)
            points = []
            while len(points) < n:
                if len(points) >= 2 and rng.random() < 0.4:
                    a, b = rng.sample(points, 2)
                    s, t = Fraction(rng.randint(-3, 3), rng.randint(1, 4)), rng.randint(-2, 2)
                    p = [s * x + t * y for x, y in zip(a, b)]
                else:
                    p = [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(d + 1)]
                if any(p):
                    points.append(p)
            assert is_semistable(PointConfiguration(d, points), c) is reference(points, c)

    def test_dimension_mismatch(self):
        cfg = PointConfiguration(1, ((1, 0), (0, 1), (1, 1), (2, 1)))
        with pytest.raises(ValueError):
            is_semistable(cfg, Linearization((Fraction(3, 4),) * 4, 2))


class TestAttachConfiguration:
    def test_shape_and_blocks(self):
        a1 = PointConfiguration(1, ((1, 0), (0, 1), (1, 1), (0, 1)))
        a2 = PointConfiguration(1, ((1, 1), (1, 0), (0, 1), (1, 0)))
        glued = attach_configuration(a1, a2)
        assert glued.d == 2
        assert glued.n == 6
        unit = Fraction(1)
        zero = Fraction(0)
        assert glued.points[0] == (unit, zero, zero)
        assert glued.points[2] == (unit, unit, zero)
        # second-block points occupy the bottom rows
        assert glued.points[3] == (zero, unit, unit)
        assert all(p[0] == 0 for p in glued.points[3:])

    def test_rejects_wrong_normal_form(self):
        a1 = PointConfiguration(1, ((1, 0), (0, 1), (1, 1), (1, 1)))
        a2 = PointConfiguration(1, ((1, 1), (1, 0), (0, 1), (1, 0)))
        with pytest.raises(ValueError):
            attach_configuration(a1, a2)
        with pytest.raises(ValueError):
            attach_configuration(a2, a1)

    def test_semistable_inputs_give_semistable_output(self):
        # randomized transport check at (d1, d2) = (1, 1), five points a side
        rng = random.Random(5)
        c = Linearization((Fraction(3, 8),) * 8, 2)
        c1, c2 = split_linearization(c, 4, 1)
        fixed1 = (0, 1)
        fixed2 = (1, 0)
        for _ in range(25):
            pts1 = tuple(
                (Fraction(rng.randint(-6, 6)), Fraction(rng.randint(1, 6)))
                for _ in range(4)
            ) + (fixed1,)
            pts2 = tuple(
                (Fraction(rng.randint(1, 6)), Fraction(rng.randint(-6, 6)))
                for _ in range(4)
            ) + (fixed2,)
            a1 = PointConfiguration(1, pts1)
            a2 = PointConfiguration(1, pts2)
            if is_semistable(a1, c1) is Stability.UNSTABLE:
                continue
            if is_semistable(a2, c2) is Stability.UNSTABLE:
                continue
            glued = attach_configuration(a1, a2)
            assert is_semistable(glued, c) is not Stability.UNSTABLE


class TestMuDecompose:
    def test_display_column(self):
        # the (1, ..., d1+1, n1+1, ..., n1+d2) column for d1 = 2, d2 = 1
        t = Tableau(3, 1, ((1, 2, 3, 5),))
        sign, left, right = _mu_columns(t, 4, 3, 2, 1)
        assert left == [(1, 2, 3)]
        assert right == [(1, 4)]

    def test_too_many_first_block_entries(self):
        t = Tableau(2, 1, ((1, 2, 3),))
        assert _mu_columns(t, 3, 2, 1, 1) is None

    def test_minimal_split_with_sign(self):
        t = Tableau(2, 1, ((1, 2, 3),))
        sign, left, right = _mu_columns(t, 2, 2, 1, 1)
        assert left == [(1, 2)]
        assert right == [(1, 3)]
        # verified against the symbolic identity below
        assert sign == -1

    def test_sign_makes_identity_exact(self):
        for t, (n1, n2, d1, d2) in [
            (Tableau(2, 1, ((1, 2, 3),)), (2, 2, 1, 1)),
            (Tableau(2, 2, ((1, 3, 5), (2, 4, 6))), (3, 3, 1, 1)),
            (Tableau(3, 1, ((1, 2, 3, 5),)), (4, 2, 2, 1)),
            # d2 = 2: a wide column's sign is (-1)^d2 = +1, a narrow one's +1
            (Tableau(3, 2, ((1, 2, 3, 4), (1, 3, 4, 5))), (2, 3, 1, 2)),
            (Tableau(4, 2, ((1, 2, 3, 4, 5), (1, 2, 4, 5, 6))), (3, 3, 2, 2)),
        ]:
            sign, left, right = _mu_columns(t, n1, n2, d1, d2)
            b = attach_block_matrix(d1, d2, n1, n2)
            a1, a2 = side_matrices(d1, n1, d2, n2)
            lhs = tableau_polynomial(t.columns, b)
            rhs = sign * tableau_polynomial(left, a1) * tableau_polynomial(right, a2)
            assert lhs == rhs
            assert not lhs.is_zero()

    def test_nonbasis_restriction_raises(self):
        # the right factor of this tableau straightens into two basis pairs
        t = Tableau(2, 2, ((1, 2, 4), (3, 5, 6)))
        sign, left, right = _mu_columns(t, 3, 3, 1, 1)
        Tableau(1, 2, left)
        with pytest.raises(ValueError):
            Tableau(1, 2, right)


def negated_sign(t, n1, n2, d1, d2):
    raw = _mu_columns(t, n1, n2, d1, d2)
    return raw if raw is None else (-raw[0], *raw[1:])


def moved_weight(side, source, target):
    """split_linearization with 1/2 of one side's weight moved from point
    `source` to point `target` of that side (0-based, -1 the attaching point)."""
    def split(c, n1, d1):
        sides = list(split_linearization(c, n1, d1))
        entries = list(sides[side].entries)
        entries[source] -= Fraction(1, 2)
        entries[target] += Fraction(1, 2)
        sides[side] = Linearization(entries, sides[side].d)
        return tuple(sides)

    return split


class TestVerifyRestriction:
    def test_small_case_full_checks(self):
        c = Linearization((Fraction(1, 2), Fraction(1, 2), Fraction(1), Fraction(1)), 2)
        report = verify_restriction_theorem(1, 1, 2, 2, c, 2)
        assert report.ok
        assert report.surjective
        assert report.nonbasis_images == 0
        assert report.alpha + report.beta == 2

    def test_richer_case_with_multiple_pairs(self):
        c = Linearization((Fraction(1, 2),) * 6, 2)
        report = verify_restriction_theorem(1, 1, 4, 2, c, 2)
        assert report.ok
        assert report.surjective
        assert (report.dim_ambient, report.dim_left, report.dim_right) == (5, 2, 1)
        assert report.decomposable == 2
        assert report.nonbasis_images == 0

    def test_straightening_case_documented(self):
        # symmetric six-point case: identities hold for every tableau, and
        # two restrictions land outside the product basis; they straighten
        # into basis pairs, and the images still span the product
        c = Linearization((Fraction(1, 2),) * 6, 2)
        report = verify_restriction_theorem(1, 1, 3, 3, c, 2)
        assert report.ok
        assert report.nonbasis_images == 2
        assert report.surjective
        assert report.zero_restrictions == 1
        assert (report.alpha, report.beta) == (1, 1)

    @pytest.mark.parametrize(
        "d1, d2, n1, n2, content, k, dims",
        [
            (1, 1, 3, 3, (2,) * 6, 4, (16, 3, 3)),
            (1, 2, 3, 4, (4,) * 7, 7, (225, 3, 9)),
        ],
    )
    def test_nonbasis_images_span_the_product(self, d1, d2, n1, n2, content, k, dims):
        # most images are not basis pairs, so the basis pairs hit do not
        # cover the product basis; the images span it all the same
        c = Linearization(tuple(Fraction(x, k) for x in content), d1 + d2)
        report = verify_restriction_theorem(d1, d2, n1, n2, c, k)
        assert report.ok
        assert (report.dim_ambient, report.dim_left, report.dim_right) == dims
        assert report.nonbasis_images > 0
        assert report.surjective

    def test_dropped_ambient_tableau_is_not_surjective(self, monkeypatch):
        # planted fault: the ambient basis loses its last tableau, whose
        # image the other three cannot replace
        def ambient_short(d, k, content):
            basis = enumerate_tableaux(d, k, content)
            return basis[:-1] if d == 2 else basis

        monkeypatch.setattr(invariants, "enumerate_tableaux", ambient_short)
        c = Linearization((Fraction(1, 2),) * 6, 2)
        report = verify_restriction_theorem(1, 1, 3, 3, c, 2)
        assert report.ok
        assert report.dim_ambient == 4
        assert not report.surjective

    def test_factor_outside_its_side_span_is_a_failure(self, monkeypatch):
        # planted fault: each side basis loses its last tableau, so every
        # image has a factor outside the span of what is left
        def sides_short(d, k, content):
            basis = enumerate_tableaux(d, k, content)
            return basis[:-1] if d == 1 else basis

        monkeypatch.setattr(invariants, "enumerate_tableaux", sides_short)
        c = Linearization((Fraction(1, 2),) * 6, 2)
        report = verify_restriction_theorem(1, 1, 3, 3, c, 2)
        assert (report.dim_left, report.dim_right) == (1, 1)
        assert len(report.failures) == report.decomposable == 4
        assert all("outside the span" in f for f in report.failures)
        assert not report.surjective

    @pytest.mark.parametrize(
        "name, fault, failure",
        [
            ("_mu_columns", negated_sign, "differs from signed product"),
            ("_mu_columns", lambda *args: None, "should restrict to zero"),
            ("split_linearization", moved_weight(1, -1, -2), "alpha + beta = 1 differs from k = 2"),
            ("split_linearization", moved_weight(0, 0, 1), "differ from split weights"),
        ],
        ids=["negated_sign", "no_factors", "attaching_weight_moved", "point_weight_moved"],
    )
    def test_planted_fault_is_a_failure(self, monkeypatch, name, fault, failure):
        # each fault reaches one of the symbolic checks; the clean report is ok
        c = Linearization((Fraction(1, 2),) * 6, 2)
        assert verify_restriction_theorem(1, 1, 3, 3, c, 2).ok
        monkeypatch.setattr(invariants, name, fault)
        report = verify_restriction_theorem(1, 1, 3, 3, c, 2)
        assert not report.ok
        assert any(failure in f for f in report.failures)

    def test_range_violation_is_precondition_error(self):
        c = Linearization(
            (Fraction(1), Fraction(1), Fraction(1), Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
            3,
        )
        with pytest.raises(ValueError):
            verify_restriction_theorem(1, 2, 3, 3, c, 3)

    def test_k_must_clear_denominators(self):
        c = Linearization((Fraction(3, 4),) * 4, 2)
        with pytest.raises(ValueError):
            verify_restriction_theorem(1, 1, 2, 2, c, 2)

    def test_uncleared_denominators_are_written_as_rationals(self):
        c = Linearization((Fraction(1, 2),) * 6, 2)
        with pytest.raises(ValueError) as caught:
            verify_restriction_theorem(1, 1, 3, 3, c, 1)
        assert str(caught.value) == "k = 1 does not clear the denominators of 1/2,1/2,1/2,1/2,1/2,1/2"
