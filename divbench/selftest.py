"""Tests of the benchmark's own oracles and checks.

    python3 divbench/selftest.py

Each oracle is compared with a hand-worked value or a brute-force count,
and each check is shown to reject a planted wrong output.  Needs only the
standard library; the program itself is not imported.
"""

import os
import sys
import unittest
from fractions import Fraction
from itertools import product

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles as O  # noqa: E402
import worker as W  # noqa: E402


def degree_records(r, c):
    n = len(c)
    records = []
    for blocks in O.partitions4(tuple(range(1, n + 1))):
        sums = [sum(c[i - 1] for i in b) % r for b in blocks]
        records.append({"fcurve": W.label(blocks), "degree": O.fakhruddin_degree(r, sums)})
    return records


def brute_force_ssyt(height, k, content):
    """Count fillings of a height x k rectangle, cell by cell, that are semistandard."""
    n = len(content)
    count = 0
    for cells in product(range(1, n + 1), repeat=height * k):
        grid = [cells[i * k:(i + 1) * k] for i in range(height)]
        if any(grid[i][j] > grid[i][j + 1] for i in range(height) for j in range(k - 1)):
            continue
        if any(grid[i][j] >= grid[i + 1][j] for i in range(height - 1) for j in range(k)):
            continue
        if all(cells.count(v + 1) == content[v] for v in range(n)):
            count += 1
    return count


class FourPointDegrees(unittest.TestCase):
    def test_hand_values(self):
        self.assertEqual(O.fakhruddin_degree(2, (1, 1, 1, 1)), 1)
        self.assertEqual(O.fakhruddin_degree(3, (1, 1, 2, 2)), 1)
        self.assertEqual(O.fakhruddin_degree(4, (2, 2, 2, 2)), 2)
        self.assertEqual(O.fakhruddin_degree(3, (1, 1, 1, 0)), 0)
        self.assertEqual(O.fakhruddin_degree(4, (1, 1, 1, 0)), 0)  # r does not divide |c|
        self.assertEqual(O.fakhruddin_degree(4, (0, 1, 3, 4)), O.fakhruddin_degree(4, (0, 1, 3, 0)))

    def test_integral_when_r_divides_the_sum(self):
        for r in range(2, 8):
            for c in product(range(r), repeat=4):
                if sum(c) % r == 0:
                    self.assertEqual(O.fakhruddin_degree(r, c).denominator, 1, (r, c))

    def test_degree_records_reject_a_wrong_degree(self):
        records = degree_records(4, (2, 1, 3, 3, 1, 2))
        self.assertEqual(O.check_degree_records(4, (2, 1, 3, 3, 1, 2), records), [])
        records[7] = dict(records[7], degree=records[7]["degree"] + 1)
        self.assertTrue(O.check_degree_records(4, (2, 1, 3, 3, 1, 2), records))

    def test_degree_records_reject_a_missing_or_repeated_fcurve(self):
        records = degree_records(3, (1, 2, 0, 1, 2))
        self.assertTrue(O.check_degree_records(3, (1, 2, 0, 1, 2), records[:-1]))
        self.assertTrue(O.check_degree_records(3, (1, 2, 0, 1, 2), records[:-1] + records[:1]))
        bad = dict(records[0], fcurve="1/2/3/4,4")
        self.assertTrue(O.check_degree_records(3, (1, 2, 0, 1, 2), [bad] + records[1:]))

    def test_factorization_holds_and_a_wrong_verdict_is_caught(self):
        for c in ((2, 1, 3, 3, 1, 2), (0, 0, 1, 3, 2, 2), (1, 1, 1, 1, 1, 1)):
            for cut in ((1, 2), (1, 2, 3), (2, 5), (1, 4, 6)):
                self.assertIs(O.factorization_holds(4, c, cut), True)


class Counts(unittest.TestCase):
    def test_stirling_against_brute_force(self):
        for n in range(4, 9):
            brute = sum(
                1 for labels in product(range(4), repeat=n)
                if len(set(labels)) == 4 and list(dict.fromkeys(labels)) == [0, 1, 2, 3]
            )
            self.assertEqual(O.count_fcurves(n), brute)
            self.assertEqual(len(O.partitions4(tuple(range(n)))), brute)

    def test_closed_forms(self):
        self.assertEqual(O.count_cuts(6), 25)
        self.assertEqual(O.count_vectors(4, 7), 4096)

    def test_verify_main_check_rejects_wrong_counts_and_mismatches(self):
        self.assertEqual(O.check_verify_main(3, 5, 81, 10, []), [])
        self.assertTrue(O.check_verify_main(3, 5, 80, 10, []))
        self.assertTrue(O.check_verify_main(3, 5, 81, 11, []))
        self.assertTrue(O.check_verify_main(3, 5, 81, 10, [("c", "p", 1, 0, 0)]))


class Covers(unittest.TestCase):
    def test_hand_worked_instance(self):
        c1, c2, s, g, g1, g2 = O.expected_degeneration(4, (2, 1, 3, 3, 1, 2), 3)
        self.assertEqual((s, g, g1, g2), (2, 5, 2, 2))
        self.assertEqual((c1, c2), ((2, 1, 3, 2), (3, 1, 2, 2)))

    def test_degeneration_check_rejects_a_wrong_genus(self):
        good = O.expected_degeneration(4, (2, 1, 3, 3, 1, 2), 3)
        self.assertEqual(O.check_degeneration(4, (2, 1, 3, 3, 1, 2), 3, good), [])
        wrong = good[:3] + (good[3] + 1,) + good[4:]
        self.assertTrue(O.check_degeneration(4, (2, 1, 3, 3, 1, 2), 3, wrong))

    def test_phi_psi_of_the_figure_weights(self):
        phi, psi = O.expected_phi_psi(4, (2, 1, 3, 3, 1, 2), (1, 2, 3))
        self.assertEqual(phi, (2, 1, 3, 2))
        self.assertEqual(psi, (3, 1, 2, 2))
        phi, _ = O.expected_phi_psi(4, (1, 3, 2, 2), (1, 2))
        self.assertEqual(phi, (1, 3, 4))  # the residue 0 is written r on this side


class Determinants(unittest.TestCase):
    def test_leibniz_two_by_two(self):
        terms = O.leibniz_terms([["a", "b"], ["c", "d"]])
        self.assertEqual(terms, {(("a", 1), ("d", 1)): 1, (("b", 1), ("c", 1)): -1})

    def test_leibniz_counts_and_planted_error(self):
        names = [[(i, j) for j in range(4)] for i in range(4)]
        terms = O.leibniz_terms(names)
        self.assertEqual(len(terms), 24)
        wrong = dict(terms)
        wrong[next(iter(wrong))] *= -1
        self.assertNotEqual(terms, wrong)

    def test_fraction_det(self):
        self.assertEqual(O.fraction_det([[2, 1], [1, 3]]), 5)
        self.assertEqual(O.fraction_det([[1, 2], [2, 4]]), 0)
        self.assertEqual(O.fraction_det([[0, 1, 2], [1, 0, 3], [4, -3, 8]]), -2)

    def test_tableau_function_check(self):
        # the 2x2 minor of columns 1, 2 on two points of P^1
        terms = {(((0, 1), 1), ((1, 2), 1)): 1, (((0, 2), 1), ((1, 1), 1)): -1}
        points = [[[Fraction(1), Fraction(3)], [Fraction(2), Fraction(-5, 2)]]]
        self.assertEqual(O.check_tableau_function([(1, 2)], 1, 2, terms, points), [])
        flipped = {m: -v for m, v in terms.items()}
        self.assertTrue(O.check_tableau_function([(1, 2)], 1, 2, flipped, points))


class Tableaux(unittest.TestCase):
    def test_strip_count_against_brute_force(self):
        for height, k, content in ((2, 2, (1, 1, 1, 1)), (2, 3, (1, 1, 1, 1, 1, 1)),
                                   (3, 2, (1, 1, 1, 1, 1, 1)), (2, 3, (2, 1, 1, 2)),
                                   (2, 2, (2, 2))):
            self.assertEqual(O.kostka_rectangle(height, k, content), brute_force_ssyt(height, k, content))
            self.assertEqual(len(O.ssyt_rectangle(height, k, content)), brute_force_ssyt(height, k, content))

    def test_basis_check_rejects_missing_and_foreign_tableaux(self):
        basis = O.ssyt_rectangle(2, 2, (1, 1, 1, 1))
        self.assertEqual(O.check_tableau_basis(1, 2, (1, 1, 1, 1), basis), [])
        self.assertTrue(O.check_tableau_basis(1, 2, (1, 1, 1, 1), basis[:1]))
        self.assertTrue(O.check_tableau_basis(1, 2, (1, 1, 1, 1), [basis[0], ((1, 4), (2, 3))]))


class Restriction(unittest.TestCase):
    def test_exact_rank(self):
        self.assertEqual(O.exact_rank([{1: 1, 2: 2}, {1: 2, 2: 4}, {3: 1}]), 2)
        pivots = {}
        self.assertEqual(O.exact_rank([{1: 3, 2: 1}], pivots), 1)
        self.assertEqual(O.exact_rank([{1: 6, 2: 2}, {2: 1}], pivots), 1)

    def test_straightening_case_is_onto(self):
        ranks = O.restriction_ranks(1, 1, 3, 3, (2, 2, 2, 2, 2, 2), 4)
        self.assertEqual((ranks["rank_images"], ranks["rank_products"], ranks["rank_union"]), (9, 9, 9))
        self.assertEqual((ranks["dim_ambient"], ranks["dim_left"], ranks["dim_right"]), (16, 3, 3))

    def test_restriction_check(self):
        ranks = O.restriction_ranks(1, 1, 2, 2, (3, 3, 3, 3), 4)
        report = {"alpha": 2, "beta": 2, "dim_ambient": 1, "dim_left": 1, "dim_right": 1,
                  "decomposable": 1, "zero_restrictions": 0, "surjective": True, "failures": []}
        self.assertEqual(O.check_restriction(report, ranks, 4), [])
        self.assertEqual(O.check_restriction(dict(report, surjective=False), ranks, 4), [W.SURJECTIVE_FAULT])
        self.assertTrue(O.check_restriction(dict(report, dim_left=2), ranks, 4))
        self.assertTrue(O.check_restriction(dict(report, failures=["x"]), ranks, 4))


class Stability(unittest.TestCase):
    def verdict(self, points):
        return O.stability_verdict([tuple(map(Fraction, p)) for p in points], [Fraction(1, 2)] * len(points))

    def test_line(self):
        self.assertEqual(self.verdict([(1, 0), (0, 1), (1, 1), (2, 1)]), "stable")
        self.assertEqual(self.verdict([(1, 0), (1, 0), (0, 1), (1, 1)]), "strictly-semistable")
        self.assertEqual(self.verdict([(1, 0), (1, 0), (1, 0), (2, 1)]), "unstable")

    def test_plane(self):
        general = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (1, 3, 5)]
        self.assertEqual(self.verdict(general[:5] + [(1, 4, 7)]), "stable")
        collinear = [(1, 0, 0), (1, 1, 0), (1, 2, 0), (1, 3, 0), (0, 0, 1), (1, 1, 1)]
        self.assertEqual(self.verdict(collinear), "strictly-semistable")
        self.assertEqual(self.verdict(collinear[:4] + [(1, 4, 0), (0, 0, 1)]), "unstable")


class CliChecks(unittest.TestCase):
    def test_report_shape_exit_code_and_stderr(self):
        out = b'{"command": "cover", "parameters": {"r": 2}, "results": [{"genus": 1}], "status": "ok"}'
        check = W._expect("genus", 1)
        self.assertEqual(W.report_problems("cover", {"r": 2}, 0, out, b"", check), [])
        self.assertTrue(W.report_problems("cover", {"r": 2}, 1, out, b"", check))
        self.assertTrue(W.report_problems("cover", {"r": 2}, 0, out, b"warning\n", check))
        self.assertTrue(W.report_problems("cover", {"r": 3}, 0, out, b"", check))
        self.assertTrue(W.report_problems("cover", {"r": 2}, 0, out, b"", W._expect("genus", 2)))
        self.assertTrue(W.report_problems("cover", {"r": 2}, 0, out[:-1], b"", check))
        self.assertTrue(W.report_problems("degree", {"r": 2}, 0, out, b"", check))
        bad = b'{"command": "cover", "parameters": {"r": 2}, "results": [7], "status": "ok"}'
        self.assertTrue(W.report_problems("cover", {"r": 2}, 0, bad, b"", check))
        timing = b"verify-main: 8 vectors x 1 F-curves in 0.01s\n"
        vm = b'{"command": "verify-main", "parameters": {}, "results": [{}], "status": "ok"}'
        self.assertEqual(W.report_problems("verify-main", {}, 0, vm, timing, lambda res: []), [])

    def test_usage_error(self):
        self.assertEqual(W.usage_error_problems("degree", 2, b"", b"error: --r: need r >= 1\n"), [])
        traceback = b"Traceback (most recent call last):\nZeroDivisionError: integer modulo by zero\n"
        self.assertTrue(W.usage_error_problems("degree", 1, b"", traceback))
        self.assertTrue(W.usage_error_problems("degvec", 0, b'{"status": "ok"}', b""))

    def test_tail_percentile(self):
        self.assertEqual(W.tail_of(list(range(42)))[0], 75.0)
        self.assertEqual(W.tail_of(list(range(139)))[0], 90.0)
        self.assertEqual(W.tail_of(list(range(291087)))[0], 99.9)
        self.assertEqual(W.tail_of([1, 2, 3, 4]), (100.0, 4))


if __name__ == "__main__":
    unittest.main()
