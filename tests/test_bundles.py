import random
import sys
import tracemalloc
from itertools import combinations_with_replacement, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from divfact import bundles, strata, weights
from divfact.bundles import (
    BundleFamily,
    check_git_factorization,
    deg4_cb,
    deg4_cyc,
    deg4_git,
    degree_blocks,
    degree_vector,
    fcurve_degree,
    verify_main_theorem,
)
from divfact.invariants import enumerate_tableaux
from divfact.strata import SetPartition4, enumerate_boundary_cuts, enumerate_fcurves, split_walk
from divfact.weights import WeightVector
from test_strata import stirling4


class TestBaseFormulas:
    def test_cb_examples(self):
        assert deg4_cb(2, (1, 1, 1, 1)) == 1
        assert deg4_cb(3, (1, 1, 1, 3)) == 0
        assert deg4_cb(3, (0, 0, 1, 2)) == 0

    def test_git_examples(self):
        assert deg4_git(2, (1, 1, 1, 1)) == 1
        assert deg4_git(4, (1, 2, 2, 3)) == 1
        assert deg4_git(4, (0, 1, 3, 4)) == 0

    def test_cyc_examples(self):
        assert deg4_cyc(2, (1, 1, 1, 1)) == 1
        assert deg4_cyc(5, (2, 2, 3, 3)) == 2
        assert deg4_cyc(2, (0, 0, 0, 0)) == 0

    def test_input_sorted_internally(self):
        assert deg4_cb(4, (3, 1, 2, 2)) == deg4_cb(4, (1, 2, 2, 3))

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            deg4_cb(3, (0, 0, 4, 2))
        with pytest.raises(ValueError):
            deg4_cb(3, (1, 1, 1))
        # only the smallest weight is bad, so the check must look at it
        for deg4 in (deg4_cb, deg4_git, deg4_cyc):
            with pytest.raises(ValueError, match="need 0 <= weight <= 3, got -1"):
                deg4(3, (-1, 1, 1, 1))

    @given(st.integers(2, 8), st.data())
    def test_three_formulas_coincide(self, r, data):
        c = data.draw(st.tuples(*[st.integers(0, r)] * 4))
        assert deg4_cb(r, c) == deg4_git(r, c) == deg4_cyc(r, c)

    @given(st.integers(2, 8), st.data())
    def test_permutation_invariance(self, r, data):
        c = data.draw(st.tuples(*[st.integers(0, r)] * 4))
        base = deg4_cb(r, c)
        for perm in permutations(c):
            assert deg4_cb(r, perm) == base

    def test_degree_bounds(self):
        for r in range(2, 7):
            for c in product(range(r + 1), repeat=4):
                assert 0 <= deg4_cb(r, c) <= r // 2


def conformal_weight_degree(r, u):
    """The level-one degree on a four-point class u from Fakhruddin's
    conformal weights D(a) = a(r - a)/(2r): the four points' weights less
    those of the three pairings {1, j}, kept in integers by scaling by 2r."""
    twice = sum(a * (r - a) for a in u)
    for b in u[1:]:
        s = (u[0] + b) % r
        twice -= s * (r - s)
    degree, rest = divmod(twice, 2 * r)
    assert rest == 0, (r, u)
    return degree


def test_derivations_match_conformal_weights():
    # every class u (sorted residues, sum 0 mod r) with r <= 24, per family
    # read through its derivation, which the n-point paths read, through
    # fcurve_degree on the F-curve 1/2/3/4 and through its checked deg4_*:
    # a fault common to all three families cannot agree with this oracle
    classes = [
        (r, u)
        for r in range(1, 25)
        for u in combinations_with_replacement(range(r), 4)
        if sum(u) % r == 0
    ]
    assert len(classes) == 5144
    line = enumerate_fcurves(4)[0]
    checked = {BundleFamily.CB: deg4_cb, BundleFamily.GIT: deg4_git, BundleFamily.CYC: deg4_cyc}
    for r, u in classes:
        expected = conformal_weight_degree(r, u)
        for family, formula in checked.items():
            assert bundles._DERIVATIONS[family](r, u) == expected, (family, r, u)
            assert fcurve_degree(family, r, u, line) == expected, (family, r, u)
            assert formula(r, u) == expected, (formula.__name__, r, u)


def test_git_counts_tableaux():
    # the GIT degree is h(1) - h(0): the 2 x r tableaux with content c, less
    # the one of content 0, on every c in {0, ..., r}^4 with |c| = 2r, r <= 8
    classes = [
        (r, c) for r in range(1, 9) for c in product(range(r + 1), repeat=4) if sum(c) == 2 * r
    ]
    assert len(classes) == 1364
    for r, c in classes:
        expected = len(enumerate_tableaux(1, r, c)) - 1
        assert deg4_git(r, c) == expected, (r, c)
        assert bundles._DERIVATIONS[BundleFamily.GIT](r, sorted(c)) == expected, (r, c)


def test_git_hilbert_function():
    # h(m) = 1 + m * deg for the 2 x mr tableaux of content mc, so each step
    # h(m + 1) - h(m) is the degree, for m = 1, 2, 3, on every c in
    # {0, ..., r}^4 with |c| = 2r, r <= 6
    cases = [
        (r, c, m)
        for r in range(1, 7)
        for c in product(range(r + 1), repeat=4)
        if sum(c) == 2 * r
        for m in (1, 2, 3)
    ]
    assert len(cases) == 1593
    for r, c, m in cases:
        count = len(enumerate_tableaux(1, m * r, tuple(m * x for x in c)))
        assert count == 1 + m * deg4_git(r, c), (r, c, m)


class TestFCurveDegree:
    def test_examples(self):
        p1 = SetPartition4(5, (frozenset({1}), frozenset({2}), frozenset({3}), frozenset({4, 5})))
        assert fcurve_degree(BundleFamily.CB, 2, (1, 1, 1, 1, 0), p1) == 1
        p2 = SetPartition4(5, (frozenset({1, 2}), frozenset({3}), frozenset({4}), frozenset({5})))
        assert fcurve_degree(BundleFamily.GIT, 2, (1, 1, 1, 1, 0), p2) == 0

    def test_indivisible_sum_is_trivial(self):
        p = enumerate_fcurves(4)[0]
        for fam in BundleFamily:
            assert fcurve_degree(fam, 3, (1, 1, 1, 1), p) == 0

    @pytest.mark.parametrize("r", [0, -1, -3])
    def test_nonpositive_r_rejected(self, r):
        p = enumerate_fcurves(4)[0]
        with pytest.raises(ValueError):
            fcurve_degree(BundleFamily.CB, r, (1, 1, 1, 1), p)
        with pytest.raises(ValueError):
            degree_vector(BundleFamily.GIT, r, (1, 1, 1, 1))
        with pytest.raises(ValueError):
            check_git_factorization(r, (1, 1, 1, 1), [1, 2])


class TestDegreeVector:
    def test_single_fcurve(self):
        vec = degree_vector(BundleFamily.CB, 2, (1, 1, 1, 1))
        assert list(vec.degrees.values()) == [1]

    def test_zero_weights(self):
        vec = degree_vector(BundleFamily.GIT, 3, (0, 0, 0, 0, 0))
        assert all(d == 0 for d in vec.degrees.values())

    def test_cyc_six_points(self):
        # r=2, all weights 1: degree 1 exactly on partitions with all odd
        # block sums, which are those of block sizes (3,1,1,1)
        vec = degree_vector(BundleFamily.CYC, 2, (1, 1, 1, 1, 1, 1))
        for p, deg in vec.items():
            sizes = sorted(len(b) for b in p.blocks)
            assert deg == (1 if sizes == [1, 1, 1, 3] else 0)

    def test_point_relabeling_symmetry(self):
        # permuting marked points permutes the degree vector accordingly
        c = (1, 2, 0, 3, 2)
        r = 4
        relabel = {1: 3, 2: 5, 3: 1, 4: 2, 5: 4}
        c_moved = [0] * 5
        for old, new in relabel.items():
            c_moved[new - 1] = c[old - 1]
        vec = degree_vector(BundleFamily.CB, r, c)
        moved = degree_vector(BundleFamily.CB, r, c_moved)
        for p, deg in vec.items():
            image = SetPartition4(
                5, tuple(frozenset(relabel[i] for i in b) for b in p.blocks)
            )
            assert moved.degrees[image] == deg

    def test_equality_semantics(self):
        a = degree_vector(BundleFamily.CB, 2, (1, 1, 1, 1, 0, 0))
        b = degree_vector(BundleFamily.GIT, 2, (1, 1, 1, 1, 0, 0))
        assert a == b


class TestDegreeBlocks:
    def test_one_lookup_per_row_and_gain(self, monkeypatch):
        # a prefix's degrees depend only on (blocks opened, prefix sums): each
        # distinct row is derived once, one derivation call per distinct gain in it
        r, c = 5, (0, 0, 2, 3, 4, 0, 2, 3, 2, 4)
        plan, prefixes = split_walk(r, c)
        rows = {(used, sums, gain) for used, _, sums in prefixes for _, gain in plan[used]}
        lookups = []
        derive = bundles._DERIVATIONS[BundleFamily.CYC]

        def counted(modulus, u):
            lookups.append(u)
            return derive(modulus, u)

        monkeypatch.setitem(bundles._DERIVATIONS, BundleFamily.CYC, counted)
        _, blocks = degree_blocks(BundleFamily.CYC, r, c)
        assert sum(len(degrees) for _, _, degrees in blocks) == stirling4(10)
        assert len(lookups) == len(rows) == 3084

    def test_row_memo_stays_bounded(self):
        # at r = 1000 nearly every one of the 715 prefixes of n = 11 has its
        # own sums; the memo keeps at most 256 rows, so draining must stay
        # well below keeping every row
        c = (137, 582, 867, 821, 782, 64, 261, 120, 507, 779, 80)

        def peak(keep):
            tracemalloc.start()
            try:
                kept = []
                for _, _, degrees in degree_blocks(BundleFamily.GIT, 1000, c)[1]:
                    if keep:
                        kept.append(degrees)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        _, blocks = degree_blocks(BundleFamily.GIT, 1000, c)
        rows = [sys.getsizeof(degrees) for _, _, degrees in blocks]
        drained, kept = peak(False), peak(True)
        assert len(rows) == 715
        assert kept - drained > sum(rows) / 3, f"peak {drained} bytes drained, {kept} kept"


class TestVerifyMainTheorem:
    def test_counts_small(self):
        report = verify_main_theorem(2, 4)
        assert report.vectors_checked == 8
        assert report.fcurves_per_vector == 1
        assert report.ok

        report = verify_main_theorem(2, 5)
        assert report.vectors_checked == 16
        assert report.fcurves_per_vector == 10
        assert report.ok

        report = verify_main_theorem(5, 4)
        assert report.vectors_checked == 125
        assert report.ok

    @pytest.mark.parametrize("family", list(BundleFamily))
    def test_planted_fault_matches_exhaustive_reference(self, family, monkeypatch):
        # shift one four-point class of one family; the class check must
        # report exactly the classes of the (c, F-curve) pairs an exhaustive
        # sweep finds, once each, in sorted order, on witnesses that disagree
        base = bundles._DERIVATIONS[family]

        def shifted(r, c):
            return base(r, c) + (1 if sorted(c) == [1, 1, 2, 2] else 0)

        monkeypatch.setitem(bundles._DERIVATIONS, family, shifted)
        report = verify_main_theorem(3, 5)
        reference = set()
        for c in product(range(3), repeat=5):
            if sum(c) % 3:
                continue
            for p in enumerate_fcurves(5):
                cb, git, cyc = (fcurve_degree(f, 3, c, p) for f in BundleFamily)
                if not cb == git == cyc:
                    reference.add(tuple(sorted(strata.block_sums(3, c, p.blocks))))
        witnessed = [
            tuple(fcurve_degree(f, 3, m.c, m.partition) for f in BundleFamily)
            for m in report.mismatches
        ]
        assert reference == {(1, 1, 2, 2)}
        classes = [
            tuple(sorted(strata.block_sums(3, m.c, m.partition.blocks))) for m in report.mismatches
        ]
        assert classes == sorted(reference)
        for m, degrees in zip(report.mismatches, witnessed):
            assert degrees == (m.cb, m.git, m.cyc)
            assert len(set(degrees)) > 1

    def test_planted_fault_lists_no_fcurves(self, monkeypatch):
        # one record per disagreeing class, found without any F-curve list
        def listed(n):
            raise AssertionError(f"the sweep listed the F-curves of n = {n}")

        base = bundles._DERIVATIONS[BundleFamily.CYC]

        def shifted(r, c):
            return base(r, c) + (1 if sorted(c)[0] == 1 else 0)

        monkeypatch.setitem(bundles._DERIVATIONS, BundleFamily.CYC, shifted)
        monkeypatch.setattr(bundles, "enumerate_fcurves", listed)
        report = verify_main_theorem(4, 12)
        # the classes mod 4 with least residue 1: (1,1,1,1), (1,1,3,3), (1,2,2,3)
        assert [m.c[:4] for m in report.mismatches] == [(1, 1, 1, 1), (1, 1, 3, 3), (1, 2, 2, 3)]
        for m in report.mismatches:
            assert m.c[4:] == (0,) * 8
            assert m.partition.label() == "1/2/3/4,5,6,7,8,9,10,11,12"
            assert m.cyc == m.git + 1 == m.cb + 1

    def test_sweep_memory_is_flat_in_r(self):
        tracemalloc.start()
        try:
            assert verify_main_theorem(90, 4).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 30,000 classes, each compared and dropped
        assert peak < 3_000_000

    def test_memory_is_flat_in_n(self):
        # only a disagreeing class needs the n-point witness and its padding
        tracemalloc.start()
        try:
            assert verify_main_theorem(2, 10**6).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the counts 2**(n-1) and S(n, 4) themselves take about 0.4 MB
        assert peak < 2_000_000

    def test_clean_sweep_counts_fcurves_without_listing_them(self, monkeypatch):
        def listed(n):
            raise AssertionError(f"a clean sweep listed the F-curves of n = {n}")

        monkeypatch.setattr(bundles, "enumerate_fcurves", listed)
        for n in range(4, 13):
            report = verify_main_theorem(2, n)
            assert report.ok
            assert report.fcurves_per_vector == stirling4(n)
        assert verify_main_theorem(4, 7).fcurves_per_vector == 350

    def test_reports_are_deterministic(self):
        # no timing or other run-dependent field in the report
        assert verify_main_theorem(3, 5) == verify_main_theorem(3, 5)

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            verify_main_theorem(1, 5)
        with pytest.raises(ValueError):
            verify_main_theorem(2, 3)


class TestGitFactorization:
    def test_examples(self):
        assert check_git_factorization(2, (1, 1, 1, 1), [1, 2])
        assert check_git_factorization(4, (2, 1, 3, 3, 1, 2), [1, 2, 3])
        # the same cut named from the other side, whose outside holds point 1
        assert check_git_factorization(4, (2, 1, 3, 3, 1, 2), (4, 5, 6))

    def test_indivisible_sum_trivial_on_both_sides(self):
        assert check_git_factorization(3, (1, 1, 1, 1), [1, 2])

    def test_general_cut(self):
        assert check_git_factorization(4, (2, 1, 3, 3, 1, 2), [2, 5, 6])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 4), st.data())
    def test_random_cuts_consistent(self, r, data):
        n = data.draw(st.integers(5, 7))
        c = data.draw(st.tuples(*[st.integers(0, r - 1)] * n))
        size = data.draw(st.integers(2, n - 2))
        members = data.draw(st.permutations(range(1, n + 1)))[:size]
        assert check_git_factorization(r, c, members)

    def test_clean_check_lists_no_fcurves(self, monkeypatch):
        # right attaching residues are decided from the points alone
        def listed(*args):
            raise AssertionError(f"a clean check walked the F-curves of {args}")

        monkeypatch.setattr(bundles, "enumerate_fcurves", listed)
        monkeypatch.setattr(bundles, "degree_blocks", listed)
        cuts = enumerate_boundary_cuts(7)
        # the last two sums are not divisible by 4
        for c in [(1, 2, 3, 0, 1, 2, 3), (3, 3, 3, 3, 0, 0, 0),
                  (1, 1, 1, 1, 1, 1, 1), (2, 0, 3, 1, 2, 2, 1)]:
            assert all(check_git_factorization(4, c, cut.members) for cut in cuts), c

    @pytest.mark.parametrize("fault", ["phi_attaching", "psi_first", "relabel_shifted"])
    def test_planted_fault_matches_merged_reference(self, fault, monkeypatch):
        # a restriction rule gone wrong must fail exactly where the ambient
        # F-curves, built by merging the other side, disagree with a side
        if fault == "phi_attaching":
            right = bundles.phi_rule
            monkeypatch.setattr(bundles, "phi_rule", lambda c, m: _shifted(right(c, m), -1))
        elif fault == "psi_first":
            right = bundles.psi_rule
            monkeypatch.setattr(bundles, "psi_rule", lambda c, m: _shifted(right(c, m), 0))
        else:
            right = weights._relabel

            def next_indices(c, m):
                return right(c, [i % len(c) + 1 for i in m])

            monkeypatch.setattr(weights, "_relabel", next_indices)
        r = 3
        # every vector of n = 6, whose sides plan k <= 1 points, and a fixed
        # sample of n = 8, whose sides of six and seven points plan k = 2 and 3
        rng = random.Random(8)
        heads = {
            6: list(product(range(r), repeat=5)),
            8: [tuple(rng.choices(range(r), k=7)) for _ in range(6)],
        }
        for n, vectors in heads.items():
            cuts = [sorted(cut.members) for cut in enumerate_boundary_cuts(n)]
            failed = 0
            for head in vectors:
                c = head + (-sum(head) % r,)
                for cut in cuts:
                    expected = _merged_reference(r, c, cut)
                    assert check_git_factorization(r, c, cut) == expected, (fault, c, cut)
                    failed += not expected
            assert failed > 0, (fault, n)


def _shifted(w: WeightVector, i: int) -> WeightVector:
    """w with entry i moved up by one mod r."""
    entries = list(w.entries)
    entries[i] = (entries[i] + 1) % w.r
    return WeightVector(w.r, entries)


def _merged_reference(r, c, members) -> bool:
    """The GIT factorization check with each ambient F-curve built explicitly.

    Each side's F-curve becomes a SetPartition4 of all n points by merging
    the other side into the block of the attaching point, and the degrees
    are compared through fcurve_degree.  Reads the restriction rules
    from bundles at call time, so a planted fault reaches both checks.
    """
    n = len(c)
    wv = WeightVector(r, [x % r for x in c])
    inside = sorted(set(members))
    outside = [i for i in range(1, n + 1) if i not in inside]
    sides = (
        (bundles.phi_rule(wv, inside), inside, outside),
        (bundles.psi_rule(wv, inside), outside, inside),
    )
    git = BundleFamily.GIT
    for side, own, other in sides:
        attach = len(own) + 1
        if attach < 4:
            continue
        for q in enumerate_fcurves(attach):
            blocks = [{own[i - 1] for i in block if i != attach} for block in q.blocks]
            for block, q_block in zip(blocks, q.blocks):
                if attach in q_block:
                    block.update(other)
            ambient = SetPartition4(n, blocks)
            if fcurve_degree(git, r, side, q) != fcurve_degree(git, r, c, ambient):
                return False
    return True


def test_caches_are_bounded():
    # a cache keyed by n or by class must not keep every size a process has
    # seen: every module-level cache of the two modules, the F-curve list's among them
    cached = [f for m in (strata, bundles) for f in vars(m).values() if hasattr(f, "cache_info")]
    assert strata._fcurves_cached in cached
    for f in cached:
        assert f.cache_info().maxsize is not None


def test_cut_sweep_memory_is_small():
    # checking every cut keeps nothing per cut, and a clean cut walks no F-curves
    n = 9
    c = (1, 2, 0, 1, 2, 0, 1, 2, 0)
    cuts = enumerate_boundary_cuts(n)
    strata._fcurves_cached.cache_clear()
    tracemalloc.start()
    try:
        assert all(check_git_factorization(3, c, cut.members) for cut in cuts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cuts) == 246
    assert peak < 5 * 2**20, f"peak {peak / 2**20:.1f} MB over the {len(cuts)} cuts of n = {n}"
