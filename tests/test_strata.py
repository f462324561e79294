import random
from itertools import combinations, product
from operator import add

import pytest

from divfact import strata
from divfact.strata import (
    BoundaryCut,
    SetPartition4,
    block_sums,
    count_fcurves,
    enumerate_boundary_cuts,
    enumerate_fcurves,
    split_walk,
)
from divfact.weights import WeightVector, psi_rule


def growth_reference(r, c, first, opened):
    """Every placement of points first+1, ..., len(c) after `opened` open blocks,
    as (blocks open, block texts, block sums mod r), filtered out of
    itertools.product in its lexicographic order: a point may open at most the
    next block, and a block opened before point first+1 gains its text after a
    comma."""
    found = []
    for labels in product(range(4), repeat=len(c) - first):
        used, texts, sums = opened, ["", "", "", ""], [0, 0, 0, 0]
        for i, b in enumerate(labels, first):
            if b > used:
                break
            used = max(used, b + 1)
            texts[b] += f",{i + 1}" if b < opened or texts[b] else str(i + 1)
            sums[b] += c[i]
        else:
            found.append((used, tuple(texts), tuple(s % r for s in sums)))
    return found


def brute_force_cut_count(n):
    """Count subset/complement pairs by enumerating all subsets directly."""
    seen = set()
    points = range(1, n + 1)
    for size in range(2, n - 1):
        for sub in combinations(points, size):
            key = frozenset(sub)
            seen.add(min(key, frozenset(points) - key, key=sorted))
    return len(seen)


def brute_force_partition_count(n):
    """Count 4-block partitions by filtering all block assignments."""
    count = 0
    for labels in product(range(4), repeat=n):
        if len(set(labels)) != 4:
            continue
        # count each partition once: labels must appear in first-use order
        seen = []
        for lab in labels:
            if lab not in seen:
                seen.append(lab)
        if seen == sorted(seen):
            count += 1
    return count


def stirling4(n):
    """S(n, 4) via the standard recurrence, independent of any enumeration."""
    table = {(0, 0): 1}
    for m in range(1, n + 1):
        for k in range(0, 5):
            table[(m, k)] = k * table.get((m - 1, k), 0) + table.get((m - 1, k - 1), 0)
    return table[(n, 4)]


class TestBoundaryCuts:
    def test_counts_match_formula(self):
        for n in range(4, 11):
            assert len(enumerate_boundary_cuts(n)) == 2 ** (n - 1) - n - 1

    def test_counts_match_brute_force(self):
        for n in range(4, 9):
            assert len(enumerate_boundary_cuts(n)) == brute_force_cut_count(n)

    def test_n4(self):
        cuts = enumerate_boundary_cuts(4)
        assert sorted(sorted(c.members) for c in cuts) == [[1, 2], [1, 3], [1, 4]]

    def test_each_pair_once(self):
        cuts = enumerate_boundary_cuts(6)
        keys = {frozenset((c.members, c.complement)) for c in cuts}
        assert len(keys) == len(cuts)

    def test_canonical_side_contains_one(self):
        cut = BoundaryCut(5, frozenset({3, 4}))
        assert cut.members == frozenset({1, 2, 5})
        assert cut.complement == frozenset({3, 4})

    def test_size_bounds(self):
        with pytest.raises(ValueError):
            BoundaryCut(4, frozenset({2}))
        with pytest.raises(ValueError):
            BoundaryCut(4, frozenset({2, 3, 4}))


class TestFCurves:
    def test_n4_single_partition(self):
        parts = enumerate_fcurves(4)
        assert len(parts) == 1
        assert parts[0].blocks == tuple(frozenset({i}) for i in range(1, 5))

    def test_counts(self):
        assert len(enumerate_fcurves(5)) == 10
        assert len(enumerate_fcurves(6)) == 65

    def test_counts_match_brute_force(self):
        for n in range(4, 9):
            assert len(enumerate_fcurves(n)) == brute_force_partition_count(n)

    def test_counts_match_stirling(self):
        for n in range(4, 11):
            assert len(enumerate_fcurves(n)) == stirling4(n)

    def test_closed_form_count_matches_stirling(self):
        for n in range(4, 40):
            assert count_fcurves(n) == stirling4(n)

    def test_order_is_lexicographic_growth_strings(self):
        # a block assignment in which each point opens at most the next
        # block; product() yields them in lexicographic order
        for n in range(4, 9):
            want = []
            for labels in product(range(4), repeat=n):
                if all(b <= max(labels[:i], default=-1) + 1 for i, b in enumerate(labels)) and len(set(labels)) == 4:
                    blocks = [frozenset(i + 1 for i in range(n) if labels[i] == b) for b in range(4)]
                    want.append(blocks)
            assert [list(p.blocks) for p in enumerate_fcurves(n)] == want

    def test_walk_labels_and_sums(self):
        rng = random.Random(3)
        # n = 9 and 10 walk prefixes of five and six points
        for n, r in [(n, r) for n in range(4, 9) for r in (1, 2, 5, 7)] + [(9, 3), (10, 1000)]:
            c = [rng.randrange(-3 * r, 3 * r) for _ in range(n)]
            # each prefix meets each completion in its plan
            plan, prefixes = split_walk(r, c)
            walked = [
                ("/".join(map(add, texts, tails)), tuple((p + g) % r for p, g in zip(sums, gains)))
                for used, texts, sums in prefixes
                for tails, gains in plan[used]
            ]
            parts = enumerate_fcurves(n)
            assert [label for label, _ in walked] == [p.label() for p in parts]
            assert [sums for _, sums in walked] == [block_sums(r, c, p.blocks) for p in parts]

    def test_suffix_plan_matches_growth_reference(self):
        rng = random.Random(5)
        for n in range(4, 10):
            k = min(n - 4, 4)
            for r in (1, 2, 5, 1000):
                c = [rng.randrange(-3 * r, 3 * r) for _ in range(n)]
                want = {
                    opened: [(texts, sums) for used, texts, sums in growth_reference(r, c, n - k, opened) if used == 4]
                    for opened in range(1, 5)
                }
                plan, _ = strata.split_walk(r, c)
                assert plan == want and list(plan) == [1, 2, 3, 4]

    def test_prefixes_match_growth_reference(self):
        rng = random.Random(6)
        for n in range(4, 11):
            k = min(n - 4, 4)
            for r in (1, 2, 5, 1000):
                c = [rng.randrange(-3 * r, 3 * r) for _ in range(n)]
                want = [prefix for prefix in growth_reference(r, c[: n - k], 0, 0) if prefix[0] + k >= 4]
                _, prefixes = strata.split_walk(r, c)
                assert list(prefixes) == want

    def test_walk_rejects_fewer_than_four_points(self):
        with pytest.raises(ValueError):
            split_walk(2, (1, 1, 0))

    def test_walked_partitions_equal_validated(self):
        # the walk builds its partitions without SetPartition4's checks
        for n in range(4, 9):
            for p in enumerate_fcurves(n):
                q = SetPartition4(n, p.blocks)
                assert p == q and hash(p) == hash(q) and repr(p) == repr(q)

    def test_blocks_sorted_by_minimum(self):
        for p in enumerate_fcurves(6):
            mins = [min(b) for b in p.blocks]
            assert mins == sorted(mins)
            assert mins[0] == 1

    def test_block_order_is_normalized(self):
        a = SetPartition4(5, (frozenset({4, 5}), frozenset({2}), frozenset({1}), frozenset({3})))
        b = SetPartition4(5, (frozenset({1}), frozenset({2}), frozenset({3}), frozenset({4, 5})))
        assert a == b

    def test_label(self):
        p = SetPartition4(6, (frozenset({5, 6}), frozenset({1, 2}), frozenset({3}), frozenset({4})))
        assert p.label() == "1,2/3/4/5,6"

    def test_invalid_partitions_rejected(self):
        with pytest.raises(ValueError):
            SetPartition4(5, (frozenset({1, 2}), frozenset({2, 3}), frozenset({4}), frozenset({5})))
        with pytest.raises(ValueError):
            SetPartition4(5, (frozenset({1}), frozenset({2}), frozenset({3}), frozenset({4})))


class TestInduceFourWeights:
    """The four-point weights an F-curve induces: block_sums over its blocks."""

    def test_examples(self):
        w = WeightVector(2, (1, 1, 1, 1, 0))
        p1 = SetPartition4(5, (frozenset({1}), frozenset({2}), frozenset({3}), frozenset({4, 5})))
        assert block_sums(w.r, w, p1.blocks) == (1, 1, 1, 1)
        p2 = SetPartition4(5, (frozenset({1, 2}), frozenset({3}), frozenset({4}), frozenset({5})))
        assert block_sums(w.r, w, p2.blocks) == (0, 1, 1, 0)
        w4 = WeightVector(4, (2, 1, 3, 3, 1, 2))
        p3 = SetPartition4(6, (frozenset({1, 2}), frozenset({3, 4}), frozenset({5}), frozenset({6})))
        assert block_sums(w4.r, w4, p3.blocks) == (3, 2, 1, 2)

    def test_output_sum_divisible(self):
        w = WeightVector(3, (1, 2, 0, 1, 2, 0))
        for p in enumerate_fcurves(6):
            assert sum(block_sums(w.r, w, p.blocks)) % 3 == 0

    def test_block_permutation_gives_same_multiset(self):
        w = WeightVector(5, (1, 2, 3, 4, 2, 3))
        for p in enumerate_fcurves(6):
            induced = sorted(block_sums(w.r, w, p.blocks))
            # reversed as given: SetPartition4 would sort them back
            assert sorted(block_sums(w.r, w, tuple(reversed(p.blocks)))) == induced


def collapse_chain(w, partition, order):
    """Collapse the partition's blocks one at a time via the complement rule.

    Returns the final weight per block; any collapse order must agree with
    the direct block sums mod r.
    """
    entries = list(w.entries)
    owners = []
    for point in range(1, partition.n + 1):
        owners.append(next(j for j, b in enumerate(partition.blocks) if point in b))
    for target in order:
        positions = [i + 1 for i, owner in enumerate(owners) if owner == target]
        if len(positions) < 2:
            continue
        current = WeightVector(w.r, tuple(entries))
        collapsed = psi_rule(current, positions)
        keep = [i for i in range(len(entries)) if (i + 1) not in positions]
        entries = [entries[i] for i in keep] + [collapsed[-1]]
        owners = [owners[i] for i in keep] + [target]
    result = {}
    for value, owner in zip(entries, owners):
        result[owner] = (result.get(owner, 0) + value) % w.r
    return tuple(result[j] for j in range(4))


class TestRestrictionChains:
    def test_chains_agree_with_block_sums(self):
        # two distinct collapse orders against the direct block sums, n <= 7
        for r, entries in [
            (2, (1, 1, 1, 1, 0, 1, 1)),
            (3, (1, 2, 0, 2, 1, 0, 0)),
            (4, (2, 1, 3, 3, 1, 2)),
            (5, (1, 2, 3, 4, 0, 1, 4)),
        ]:
            w = WeightVector(r, entries)
            if w.total() % r != 0:
                continue
            for p in enumerate_fcurves(len(entries)):
                direct = block_sums(w.r, w, p.blocks)
                assert collapse_chain(w, p, (0, 1, 2, 3)) == direct
                assert collapse_chain(w, p, (3, 2, 1, 0)) == direct
