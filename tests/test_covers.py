import warnings
from itertools import permutations, product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from divfact.covers import (
    CoverSpec,
    DisconnectedCoverWarning,
    degenerate,
    genus,
)
from divfact.weights import WeightVector, phi_rule, psi_rule


class TestCoverSpec:
    def test_requires_divisible_sum(self):
        with pytest.raises(ValueError):
            CoverSpec(2, (1, 1, 1))

    def test_requires_nonnegative(self):
        with pytest.raises(ValueError):
            CoverSpec(2, (-1, 1))

    def test_requires_degree_two(self):
        with pytest.raises(ValueError):
            CoverSpec(1, (1, 1))


class TestGenus:
    def test_double_cover_four_points(self):
        assert genus(CoverSpec(2, (1, 1, 1, 1))) == 1

    def test_double_cover_six_points(self):
        assert genus(CoverSpec(2, (1, 1, 1, 1, 1, 1))) == 2

    def test_degree_four_cover(self):
        assert genus(CoverSpec(4, (2, 1, 3, 3, 1, 2))) == 5

    def test_weight_divisible_by_r_is_unramified(self):
        # a weight-0 point contributes nothing
        assert genus(CoverSpec(2, (1, 1, 1, 1, 0))) == 1

    def test_connected_cover_warns_nothing(self):
        # gcd of the weights and r is 1: no DisconnectedCoverWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert genus(CoverSpec(3, (1, 1, 1, 0))) == 1
            assert genus(CoverSpec(5, (1, 2, 3, 4))) == 4

    def test_disconnected_data_warns(self):
        with pytest.warns(DisconnectedCoverWarning):
            assert genus(CoverSpec(2, (0, 0, 0, 0))) == -1
        with pytest.warns(DisconnectedCoverWarning):
            assert genus(CoverSpec(4, (2, 2, 2, 2))) == 1

    def test_riemann_hurwitz_premises(self):
        # on every valid CoverSpec with r <= 12, n <= 5 and weights below r:
        # twice the genus is even, and connected data has a genus >= 0 and
        # warns nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for r in range(2, 13):
                for n in range(1, 6):
                    for head in product(range(r), repeat=n - 1):
                        c = head + (-sum(head) % r,)
                        ramification = sum(r - gcd(e, r) for e in c)
                        assert (2 - 2 * r + ramification) % 2 == 0, (r, c)
                        if gcd(r, *c) == 1:
                            assert genus(CoverSpec(r, c)) >= 0, (r, c)

    @given(st.integers(2, 8), st.data())
    def test_permutation_invariance(self, r, data):
        n = data.draw(st.integers(2, 6))
        entries = list(data.draw(st.tuples(*[st.integers(0, r - 1)] * n)))
        total = sum(entries)
        entries.append((-total) % r)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DisconnectedCoverWarning)
            base = genus(CoverSpec(r, tuple(entries)))
            for perm in permutations(entries):
                assert genus(CoverSpec(r, perm)) == base
                break  # one nontrivial permutation per draw keeps this fast


class TestDegenerate:
    def test_figure_instance(self):
        data = degenerate(CoverSpec(4, (2, 1, 3, 3, 1, 2)), 3)
        assert data.c_prime == (2, 1, 3, 2)
        assert data.c_double_prime == (3, 1, 2, 2)
        assert data.s == 2
        assert (data.g, data.g1, data.g2) == (5, 2, 2)

    def test_genus_two_split(self):
        data = degenerate(CoverSpec(2, (1, 1, 1, 1, 1, 1)), 3)
        assert data.c_prime == (1, 1, 1, 1)
        assert data.c_double_prime == (1, 1, 1, 1)
        assert data.s == 1
        assert (data.g, data.g1, data.g2) == (2, 1, 1)

    def test_elliptic_split_at_two_points(self):
        data = degenerate(CoverSpec(2, (1, 1, 1, 1)), 2)
        assert data.c_prime == (1, 1, 0)
        assert data.c_double_prime == (1, 1, 0)
        assert data.s == 2
        assert (data.g, data.g1, data.g2) == (1, 0, 0)

    def test_split_bounds(self):
        spec = CoverSpec(2, (1, 1, 1, 1))
        with pytest.raises(ValueError):
            degenerate(spec, 1)
        with pytest.raises(ValueError):
            degenerate(spec, 3)

    def test_gcd_symmetry_and_additivity_sample(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DisconnectedCoverWarning)
            for r in range(2, 7):
                for n in (4, 5):
                    for c in product(range(r), repeat=n):
                        if sum(c) % r != 0:
                            continue
                        for n1 in range(2, n - 1):
                            data = degenerate(CoverSpec(r, c), n1)
                            left, right = sum(c[:n1]), sum(c[n1:])
                            assert data.s == gcd(left, r) == gcd(right, r)
                            assert data.g == data.g1 + data.g2 + data.s - 1

    def test_labels_match_restriction_rules(self):
        # attaching weights agree with the two weight-restriction maps mod r
        for r, entries in [(4, (2, 1, 3, 3, 1, 2)), (3, (1, 2, 0, 2, 1, 0, 0)), (2, (1, 1, 1, 1))]:
            w = WeightVector(r, entries)
            n = len(entries)
            for n1 in range(2, n - 1):
                members = list(range(1, n1 + 1))
                data = degenerate(CoverSpec(r, entries), n1)
                phi = phi_rule(w, members)
                psi = psi_rule(w, members)
                assert data.c_prime[:-1] == phi.entries[:-1]
                assert (data.c_prime[-1] - phi[-1]) % r == 0
                assert data.c_double_prime == psi.entries


@settings(deadline=None)
@given(st.integers(2, 6), st.data())
def test_degeneration_identity_random(r, data):
    n = data.draw(st.integers(4, 8))
    head = list(data.draw(st.tuples(*[st.integers(0, r - 1)] * (n - 1))))
    head.append((-sum(head)) % r)
    n1 = data.draw(st.integers(2, n - 2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DisconnectedCoverWarning)
        result = degenerate(CoverSpec(r, tuple(head)), n1)
    assert result.g == result.g1 + result.g2 + result.s - 1
