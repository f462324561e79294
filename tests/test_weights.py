import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from divfact.strata import BoundaryCut
from divfact.weights import (
    Linearization,
    RangeConditionError,
    WeightVector,
    in_hypersimplex,
    phi_rule,
    psi_rule,
    split_linearization,
)


class TestHypersimplex:
    def test_symmetric_halves(self):
        assert in_hypersimplex([Fraction(1, 2)] * 4, 1)

    def test_nine_point_mixed(self):
        entries = [Fraction(1, 2)] * 4 + [Fraction(2, 5)] * 5
        assert sum(entries) == 4  # sanity of the hand computation
        assert in_hypersimplex(entries, 3)

    def test_entry_above_one(self):
        assert not in_hypersimplex([Fraction(3, 2), Fraction(1, 4), Fraction(1, 4)], 1)

    def test_wrong_sum(self):
        assert not in_hypersimplex([Fraction(1, 2)] * 3, 1)

    def test_negative_entry(self):
        assert not in_hypersimplex([Fraction(-1, 2), 1, 1, Fraction(1, 2)], 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            in_hypersimplex([], 1)

    def test_linearization_enforces_membership(self):
        with pytest.raises(ValueError):
            Linearization((Fraction(1, 2),) * 3, 1)


class TestSplitLinearization:
    def test_nine_point_split(self):
        c = Linearization(tuple([Fraction(1, 2)] * 4 + [Fraction(2, 5)] * 5), 3)
        c_prime, c_double = split_linearization(c, 4, 1)
        assert c_prime.entries == tuple([Fraction(1, 2)] * 4 + [Fraction(0)])
        assert c_prime.d == 1
        assert c_double.entries == tuple([Fraction(2, 5)] * 5 + [Fraction(1)])
        assert c_double.d == 2

    def test_output_sums(self):
        c = Linearization(
            (Fraction(3, 4), Fraction(3, 4), Fraction(5, 6), Fraction(5, 6), Fraction(5, 6)),
            3,
        )
        c_prime, c_double = split_linearization(c, 2, 1)
        assert sum(c_prime.entries) == c_prime.d + 1
        assert sum(c_double.entries) == c_double.d + 1

    def test_boundary_sum_gives_forgotten_point(self):
        # first side sum exactly d1 forces a zero attaching weight
        c = Linearization((Fraction(1, 2), Fraction(1, 2), Fraction(1), Fraction(1)), 2)
        _, c_double = split_linearization(c, 2, 1)
        assert c_double.entries[-1] == 0

    def test_no_room_to_split_d(self):
        c = Linearization((Fraction(1), Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)), 1)
        with pytest.raises(ValueError):
            split_linearization(c, 2, 1)

    def test_range_violation_names_side_and_bound(self):
        # first three weights sum to 3 > d1 + 1 = 2
        c = Linearization(
            (Fraction(1), Fraction(1), Fraction(1), Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
            3,
        )
        with pytest.raises(RangeConditionError, match="first 3 .*> d1 \\+ 1 = 2"):
            split_linearization(c, 3, 1)

    @pytest.mark.parametrize(
        "n1, d1, message",
        [
            (5, 1, "need 2 <= n1 <= 4, got 5"),
            (3, 2, "need 1 <= d1 <= 1, got 2"),
        ],
    )
    def test_split_point_bounds(self, n1, d1, message):
        # RangeConditionError is a ValueError too, so the message tells them apart
        c = Linearization((Fraction(1, 2),) * 6, 2)
        with pytest.raises(ValueError, match=re.escape(message)):
            split_linearization(c, n1, d1)

    def test_integral_rescaling_clears_denominators(self):
        # k clearing the denominators of c also clears those of both outputs
        c = Linearization(
            (Fraction(3, 4), Fraction(3, 4), Fraction(5, 6), Fraction(5, 6), Fraction(5, 6)),
            3,
        )
        k = 12
        assert all((k * x).denominator == 1 for x in c.entries)
        c_prime, c_double = split_linearization(c, 2, 1)
        assert all((k * x).denominator == 1 for x in c_prime.entries)
        assert all((k * x).denominator == 1 for x in c_double.entries)


class TestWeightVector:
    def test_entry_bounds(self):
        with pytest.raises(ValueError):
            WeightVector(3, (0, 4))
        with pytest.raises(ValueError):
            WeightVector(3, (-1, 0))

    def test_transient_r_allowed_and_canonicalized(self):
        w = WeightVector(3, (0, 3, 2))
        assert w.entries == (0, 3, 2)


class TestPhiPsi:
    def test_phi_figure_weights(self):
        w = WeightVector(4, (2, 1, 3, 3, 1, 2))
        assert tuple(phi_rule(w, {1, 2, 3})) == (2, 1, 3, 2)

    def test_phi_representative_is_r_not_zero(self):
        assert tuple(phi_rule(WeightVector(2, (1, 1, 1, 1)), {1, 2})) == (1, 1, 2)
        assert tuple(phi_rule(WeightVector(3, (0, 0, 0, 0)), {1, 2})) == (0, 0, 3)

    def test_psi_formula_ordering(self):
        w = WeightVector(4, (2, 1, 3, 3, 1, 2))
        assert tuple(psi_rule(w, {1, 2, 3})) == (3, 1, 2, 2)

    def test_psi_representative_is_zero_not_r(self):
        assert tuple(psi_rule(WeightVector(2, (1, 1, 1, 1)), {1, 2})) == (1, 1, 0)

    def test_general_index_set_relabeled(self):
        assert tuple(psi_rule(WeightVector(5, (1, 2, 3, 4)), {3, 4})) == (1, 2, 2)

    def test_size_bounds(self):
        w = WeightVector(2, (1, 1, 1, 1))
        with pytest.raises(ValueError):
            phi_rule(w, {1})
        with pytest.raises(ValueError):
            phi_rule(w, {1, 2, 3})

    @pytest.mark.parametrize(
        "members, message",
        [
            ({1, 7}, "cut [1, 7] not within {1, ..., 6}"),
            ({0, 2}, "cut [0, 2] not within {1, ..., 6}"),
            ({1}, "need 2 <= cut size <= 4, got 1"),
            ({1, 2, 3, 4, 5}, "need 2 <= cut size <= 4, got 5"),
        ],
    )
    @pytest.mark.parametrize("rule", [phi_rule, psi_rule])
    def test_bad_cut_gives_boundary_cut_message(self, rule, members, message):
        w = WeightVector(4, (2, 1, 3, 3, 1, 2))
        with pytest.raises(ValueError) as cut_error:
            BoundaryCut(len(w), members)
        assert str(cut_error.value) == message
        with pytest.raises(ValueError) as rule_error:
            rule(w, members)
        assert str(rule_error.value) == message


@st.composite
def linearization_and_split(draw):
    n = draw(st.integers(min_value=4, max_value=9))
    d = draw(st.integers(min_value=2, max_value=n - 1))
    q = draw(st.integers(min_value=1, max_value=6))
    numerators = draw(st.lists(st.integers(0, q), min_size=n, max_size=n))
    # move numerators, each kept in {0, ..., q}, until they sum to q(d + 1)
    excess = sum(numerators) - q * (d + 1)
    for i, a in enumerate(numerators):
        step = max(min(excess, a), a - q)
        numerators[i] -= step
        excess -= step
    c = Linearization((Fraction(a, q) for a in numerators), d)
    n1 = draw(st.integers(min_value=2, max_value=n - 2))
    d1 = draw(st.integers(min_value=1, max_value=d - 1))
    return c, n1, d1


@given(linearization_and_split())
def test_range_errors_name_the_first_weights(data):
    # the two side sums add up to d + 1, so only the left window can fail
    c, n1, d1 = data
    try:
        split_linearization(c, n1, d1)
    except RangeConditionError as error:
        assert f"first {n1} weights" in str(error)


@st.composite
def weight_and_cut(draw):
    r = draw(st.integers(min_value=2, max_value=8))
    n = draw(st.integers(min_value=4, max_value=9))
    entries = tuple(draw(st.lists(st.integers(0, r - 1), min_size=n, max_size=n)))
    size = draw(st.integers(min_value=2, max_value=n - 2))
    members = frozenset(draw(st.permutations(range(1, n + 1)))[:size])
    return WeightVector(r, entries), members


@given(weight_and_cut())
def test_attach_weights_are_complementary_sums(data):
    w, members = data
    phi = phi_rule(w, members)
    psi = psi_rule(w, members)
    inside = sum(w[i - 1] for i in members)
    outside = w.total() - inside
    assert len(phi) == len(members) + 1
    assert len(psi) == len(w) - len(members) + 1
    assert phi[-1] % w.r == outside % w.r
    assert 1 <= phi[-1] <= w.r
    assert psi[-1] % w.r == inside % w.r
    assert 0 <= psi[-1] <= w.r - 1
    # shared marked points keep their weights, in order
    assert phi.entries[:-1] == tuple(w[i - 1] for i in sorted(members))
    rest = [i for i in range(1, len(w) + 1) if i not in members]
    assert psi.entries[:-1] == tuple(w[i - 1] for i in rest)


@given(weight_and_cut())
def test_divisible_sum_is_preserved(data):
    w, members = data
    if w.total() % w.r != 0:
        return
    assert phi_rule(w, members).total() % w.r == 0
    assert psi_rule(w, members).total() % w.r == 0
