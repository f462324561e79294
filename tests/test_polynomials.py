import random
import time
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from divfact.polynomials import Poly, determinant


VARS = [(0, 1), (0, 2), (1, 1), (1, 2)]


@st.composite
def polys(draw, max_terms=4, max_exp=2, max_coeff=5):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        mono = []
        for v in draw(st.sets(st.sampled_from(VARS), max_size=3)):
            mono.append((v, draw(st.integers(1, max_exp))))
        coeff = draw(st.integers(-max_coeff, max_coeff))
        terms[tuple(sorted(mono))] = coeff
    return Poly(terms)


@given(polys(), polys())
def test_addition_commutes(p, q):
    assert p + q == q + p


@given(polys(), polys())
def test_multiplication_commutes(p, q):
    assert p * q == q * p


@given(polys(), polys(), polys())
def test_distributivity(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(polys(), polys(), polys())
def test_associativity(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(polys())
def test_additive_inverse(p):
    assert (p - p).is_zero()
    assert p + Poly.zero() == p
    assert p * Poly.const(1) == p
    assert (p * Poly.zero()).is_zero()


def test_no_zero_coefficients_stored():
    p = Poly.variable((0, 1)) - Poly.variable((0, 1))
    assert p.terms == {}
    q = Poly({((((0, 1), 1)),): 0})
    assert q.terms == {}


def test_repr_graded_lex():
    x, y = Poly.variable((0, 1)), Poly.variable((0, 2))
    assert repr(x * y + x * x + 3 - y * y * y) == "-x(0, 2)^3 + x(0, 1)^2 + x(0, 1)*x(0, 2) + 3"


def leibniz(rows):
    """Sum over permutations with sign: an expansion independent of determinant."""
    size = len(rows)
    total = Poly.zero()
    for perm in permutations(range(size)):
        inversions = sum(perm[i] > perm[j] for i in range(size) for j in range(i + 1, size))
        term = Poly.const(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term
    return total


class TestDeterminant:
    def test_two_by_two(self):
        m = [[Poly.variable((0, 1)), Poly.variable((0, 2))],
             [Poly.variable((1, 1)), Poly.variable((1, 2))]]
        det = determinant(m)
        expected = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        assert det == expected

    def test_repeated_column_vanishes(self):
        col = [Poly.variable((i, 1)) for i in range(3)]
        other = [Poly.variable((i, 2)) for i in range(3)]
        m = [[col[i], col[i], other[i]] for i in range(3)]
        assert determinant(m).is_zero()

    def test_column_swap_flips_sign(self):
        m = [[Poly.variable((i, j)) for j in range(3)] for i in range(3)]
        swapped = [[row[1], row[0], row[2]] for row in m]
        assert determinant(swapped) == -determinant(m)

    # The two names below date from a cofactor path and a Bareiss path
    # that were compared with each other; both now check the one
    # determinant against the test-local Leibniz expansion.
    def test_cofactor_and_bareiss_agree_random(self):
        rng = random.Random(11)
        for size in range(1, 7):
            for _ in range(5):
                integer = [
                    [Poly.const(rng.randint(-6, 6)) for _ in range(size)]
                    for _ in range(size)
                ]
                assert determinant(integer) == leibniz(integer)
                sparse = [
                    [
                        Poly.zero() if rng.random() < 0.4
                        else Poly.variable((i, j)) + rng.randint(-2, 2)
                        for j in range(size)
                    ]
                    for i in range(size)
                ]
                assert determinant(sparse) == leibniz(sparse)

    def test_cofactor_and_bareiss_agree_generic(self):
        for size in range(1, 7):
            generic = [[Poly.variable((i, j)) for j in range(size)] for i in range(size)]
            assert determinant(generic) == leibniz(generic)

    def test_vandermonde_five_by_five(self):
        points = [1, 2, 3, 4, 5]
        m = [[Poly.const(p**i) for p in points] for i in range(5)]
        expected = 1
        for i in range(5):
            for j in range(i + 1, 5):
                expected *= points[j] - points[i]
        assert determinant(m) == Poly.const(expected)

    def test_generic_six_by_six_is_fast(self):
        m = [[Poly.variable((i, j)) for j in range(6)] for i in range(6)]
        start = time.perf_counter()
        det = determinant(m)
        assert time.perf_counter() - start < 2.0
        assert len(det.terms) == 720

    def test_singular_matrix(self):
        m = [[Poly.const((i + 1) * (j + 1)) for j in range(5)] for i in range(5)]
        assert determinant(m).is_zero()

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            determinant([[Poly.const(1), Poly.const(2)]])
