import argparse
import contextlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import divfact.cli as cli
from divfact import bundles, covers, invariants, strata
from divfact.bundles import (
    BundleFamily,
    MainTheoremReport,
    Mismatch,
    check_git_factorization,
    deg4_cb,
    degree_vector,
    fcurve_degree,
)
from divfact.strata import SetPartition4, enumerate_fcurves
from divfact.weights import WeightVector


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestDegree:
    def test_basic(self, capsys):
        code, report = run_json(
            capsys,
            "degree", "--family", "cb", "--r", "2",
            "--weights", "1,1,1,1,0", "--partition", "1/2/3/4,5",
        )
        assert code == 0
        assert report["status"] == "ok"
        assert report["results"][0]["degree"] == 1
        assert report["results"][0]["induced_weights"] == [1, 1, 1, 1]

    def test_zero_weights(self, capsys):
        code, report = run_json(
            capsys,
            "degree", "--family", "git", "--r", "3",
            "--weights", "0,0,0,0", "--partition", "1/2/3/4",
        )
        assert code == 0
        assert report["results"][0]["degree"] == 0

    def test_empty_block_is_usage_error(self, capsys):
        code = cli.main(
            ["degree", "--family", "cb", "--r", "2",
             "--weights", "1,1,1,1", "--partition", "1//2/3,4"]
        )
        assert code == 2
        assert "--partition" in capsys.readouterr().err

    def test_unknown_family(self, capsys):
        code = cli.main(
            ["degree", "--family", "nope", "--r", "2",
             "--weights", "1,1,1,1", "--partition", "1/2/3/4"]
        )
        assert code == 2
        assert "--family" in capsys.readouterr().err

    def test_too_few_weights_blames_weights(self, capsys):
        code = cli.main(
            ["degree", "--family", "cb", "--r", "3", "--weights", "1,2,0", "--partition", "1/2/3/4"]
        )
        assert code == 2
        assert capsys.readouterr() == ("", "error: --weights: need n >= 4, got 3\n")


def degvec_reference(family, r, weights):
    """degvec stdout, JSON and --table, rendered from the whole report at once."""
    fam = BundleFamily(family)
    partitions = enumerate_fcurves(len(weights))
    vec = degree_vector(fam, r, weights)
    assert list(vec.degrees) == partitions
    for p, deg in vec.items():
        assert deg == fcurve_degree(fam, r, weights, p)
    params = {"family": family, "r": r, "weights": list(weights)}
    results = [{"fcurve": p.label(), "degree": deg} for p, deg in vec.items()]
    report = {"command": "degvec", "parameters": params, "results": results, "status": "ok"}
    table = (
        [f"command: {report['command']}"]
        + [f"  {key} = {params[key]}" for key in sorted(params)]
        + ["  ".join(f"{k}={rec[k]}" for k in sorted(rec)) for rec in results]
        + [f"status: {report['status']}"]
    )
    return json.dumps(report, sort_keys=True, indent=2) + "\n", "\n".join(table) + "\n"


class Discard:
    def write(self, text):
        return len(text)

    def flush(self):
        pass


class TestDegvec:
    def test_stdout_matches_reference(self, capsys):
        rng = random.Random(5)
        for family in ("cb", "git", "cyc"):
            for r in (1, 2, 3, 5, 7):
                for n in range(4, 9):
                    # one weight sum r divides, one it does not (r > 1)
                    for shift in range(min(r, 2)):
                        weights = [rng.randrange(-2 * r, 2 * r + 1) for _ in range(n)]
                        weights[-1] += shift - sum(weights) % r
                        want_json, want_table = degvec_reference(family, r, weights)
                        argv = ["degvec", "--family", family, "--r", str(r),
                                "--weights=" + ",".join(map(str, weights))]
                        assert run(capsys, *argv) == (0, want_json)
                        assert run(capsys, "--table", *argv) == (0, want_table)

    @pytest.mark.parametrize(
        "family, r, weights",
        [
            ("git", 4, "3,1,2,0,3,3,1,2,1"),  # n = 9: prefixes of five points
            ("cb", 3, "1,2,0,1,2,0,1,2,0,1"),  # n = 10: of six
            ("cyc", 1000, "-999999,250,-123456,77,500,-1,999,3,123128"),  # sum divisible
            ("cb", 1000, "-999999,250,-123456,77,500,-1,999,3,123128,-4"),  # sum not divisible
            ("git", 1000, "999,1,500,250,250,-3,3,700,300,0"),  # n = 10, degrees of up to three digits
        ],
    )
    def test_stdout_matches_reference_wide(self, capsys, family, r, weights):
        want_json, want_table = degvec_reference(family, r, [int(w) for w in weights.split(",")])
        argv = ["degvec", "--family", family, "--r", str(r), "--weights=" + weights]
        assert run(capsys, *argv) == (0, want_json)
        assert run(capsys, "--table", *argv) == (0, want_table)

    def test_writes_stay_small(self):
        # a prefix renders up to 256 records at once; stdout must still be
        # written in bounded chunks, not gathered into one document
        class Sizes(Discard):
            def __init__(self):
                self.sizes = []

            def write(self, text):
                self.sizes.append(len(text))
                return len(text)

        weights = "1,2,0,1,2,0,1,2,0,1"  # n = 10: 34,105 F-curves
        for table in ([], ["--table"]):
            sink = Sizes()
            with contextlib.redirect_stdout(sink):
                assert cli.main(table + ["degvec", "--family", "cb", "--r", "3", "--weights", weights]) == 0
            assert sum(sink.sizes) > 1_000_000
            assert max(sink.sizes) <= 128 * 1024, f"{table}: a write of {max(sink.sizes)} characters"

    def test_memory_stays_flat(self):
        weights = "1,2,0,1,2,0,1,2,0"  # n = 9: 7,770 F-curves
        for table in ([], ["--table"]):
            argv = table + ["degvec", "--family", "cb", "--r", "3", "--weights", weights]
            with contextlib.redirect_stdout(Discard()):
                cli.main(argv[:-1] + ["1,2,0,1,2"])  # warm up imports and caches
                tracemalloc.start()
                try:
                    assert cli.main(argv) == 0
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert peak < 2 * 2**20, f"{table}: peak {peak} bytes"

    def test_handler_pulls_one_record_at_n12(self):
        # the handler walks the first prefix only: the 611,501 F-curves of
        # n = 12 still stream, and each record is of one prefix's size
        weights = "1,2,0,1,2,0,1,2,0,1,2,0"
        for table in ([], ["--table"]):
            args = cli._parse(table + ["degvec", "--family", "cb", "--r", "3", "--weights", weights])
            tracemalloc.start()
            try:
                _, results, ok = args.handler(args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert ok and peak < 2**20, f"{table}: peak {peak} bytes"
            assert len(next(results)) < 2**20

    def test_builds_no_partition_objects(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("degvec built partition objects")

        monkeypatch.setattr(cli, "SetPartition4", fail)
        monkeypatch.setattr(strata, "SetPartition4", fail)
        monkeypatch.setattr(strata, "_fcurves_cached", fail)
        monkeypatch.setattr(bundles, "degree_vector", fail)
        monkeypatch.setattr(bundles, "enumerate_fcurves", fail)
        code, report = run_json(
            capsys, "degvec", "--family", "git", "--r", "4", "--weights", "2,1,3,3,1,2"
        )
        assert code == 0
        assert len(report["results"]) == 65
        code, out = run(
            capsys, "--table", "degvec", "--family", "git", "--r", "4", "--weights", "2,1,3,3,1,2"
        )
        assert code == 0
        assert out.count("fcurve=") == 65


class TestVerifyMain:
    def test_small_sweep(self, capsys):
        code, report = run_json(capsys, "verify-main", "--r", "2", "--n", "5")
        assert code == 0
        assert report["status"] == "ok"
        rec = report["results"][0]
        assert rec["vectors_checked"] == 16
        assert rec["fcurves_per_vector"] == 10
        assert rec["mismatches"] == []

    def test_r_guard(self, capsys):
        assert cli.main(["verify-main", "--r", "1", "--n", "5"]) == 2
        assert "--r" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [7200, 10**9])
    def test_counts_too_long_to_print_are_refused(self, n):
        # S(7200, 4) has more than 4,300 digits, the default limit of int to str;
        # the refusal comes before anything of size n is built
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "divfact.cli", "verify-main", "--r", "2", "--n", str(n)],
            capture_output=True, env=process_env(), timeout=60,
        )
        assert time.perf_counter() - start < 1.0
        assert (done.returncode, done.stdout) == (2, b"")
        assert done.stderr.startswith(b"error: --n: ")
        assert b"Traceback" not in done.stderr

    def test_counts_that_print_are_reported(self, capsys):
        code, report = run_json(capsys, "verify-main", "--r", "2", "--n", "7000")
        assert code == 0
        rec = report["results"][0]
        assert rec["vectors_checked"] == 2**6999
        assert rec["fcurves_per_vector"] == strata.count_fcurves(7000)

    def test_mismatch_exit_code(self, capsys, monkeypatch):
        p = SetPartition4(4, (frozenset({1}), frozenset({2}), frozenset({3}), frozenset({4})))
        fake = MainTheoremReport(
            r=2, n=4, vectors_checked=1, fcurves_per_vector=1,
            mismatches=[Mismatch((1, 1, 1, 1), p, 1, 0, 0)],
        )
        monkeypatch.setattr(cli, "verify_main_theorem", lambda *a, **k: fake)
        code, report = run_json(capsys, "verify-main", "--r", "2", "--n", "4")
        assert code == 1
        assert report["status"] == "mismatch"
        assert report["results"][0]["mismatches"][0]["fcurve"] == "1/2/3/4"


def assert_mismatch(capsys, *argv):
    """A failed verification: exit 1 and status mismatch, in JSON and --table."""
    code, report = run_json(capsys, *argv)
    assert (code, report["status"]) == (1, "mismatch")
    code, out = run(capsys, "--table", *argv)
    assert code == 1 and out.endswith("\nstatus: mismatch\n")
    return report


class TestFactorCheck:
    def test_planted_fault_is_a_mismatch(self, capsys, monkeypatch):
        # an attaching weight one too high: (2,1,3,3) against the merged (2,1,3,6)
        phi_rule = bundles.phi_rule

        def shifted(c, members):
            *kept, rho = phi_rule(c, members)
            return (*kept, rho + 1)

        monkeypatch.setattr(bundles, "phi_rule", shifted)
        argv = ("factor-check", "--r", "4", "--weights", "2,1,3,3,1,2", "--cut", "1,2,3")
        report = assert_mismatch(capsys, *argv)
        assert report["results"] == [{"consistent": False}]

    def test_consistent(self, capsys):
        code, report = run_json(
            capsys, "factor-check", "--r", "4", "--weights", "2,1,3,3,1,2", "--cut", "1,2,3"
        )
        assert code == 0
        assert report["results"][0]["consistent"] is True

    def test_cut_bounds(self, capsys):
        code = cli.main(["factor-check", "--r", "2", "--weights", "1,1,1,1", "--cut", "1,2,3"])
        assert code == 2
        assert "--cut" in capsys.readouterr().err

    def test_too_few_weights_blames_weights(self, capsys):
        code = cli.main(["factor-check", "--r", "2", "--weights", "1,1,1", "--cut", "1,2"])
        assert code == 2
        assert capsys.readouterr() == ("", "error: --weights: need n >= 4, got 3\n")


class TestCover:
    def test_genus(self, capsys):
        code, report = run_json(capsys, "cover", "--r", "4", "--weights", "2,1,3,3,1,2")
        assert code == 0
        assert report["results"][0]["genus"] == 5

    def test_connected_cover_writes_no_warning(self, capsys):
        code = cli.main(["cover", "--r", "3", "--weights", "1,1,1,0"])
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_split(self, capsys):
        code, report = run_json(
            capsys, "cover", "--r", "4", "--weights", "2,1,3,3,1,2", "--split", "3"
        )
        assert code == 0
        rec = report["results"][0]
        assert rec["s"] == 2
        assert (rec["g"], rec["g1"], rec["g2"]) == (5, 2, 2)
        assert rec["c_prime"] == [2, 1, 3, 2]
        assert rec["c_double_prime"] == [3, 1, 2, 2]

    @pytest.mark.parametrize("split", [[], ["--split", "10"]])
    def test_genus_too_long_to_print_is_refused(self, split):
        # r and its weights have 4,300 digits, the default limit of int to str,
        # but the genus 9r - 9 and, split, 4r - 4 on each side have one more;
        # the refusal comes before any of the report is written
        r = 5 * 10**4299
        weights = ",".join([f"1,{r - 1}"] * 10)
        done = subprocess.run(
            [sys.executable, "-m", "divfact.cli", "cover", "--r", str(r), "--weights", weights, *split],
            capture_output=True, env=process_env(), timeout=60,
        )
        assert (done.returncode, done.stdout) == (2, b"")
        assert done.stderr.startswith(b"error: --r: ") and done.stderr.count(b"\n") == 1
        assert b"Traceback" not in done.stderr

    def test_genus_that_prints_is_reported(self, capsys):
        r = 10**4298
        weights = ",".join([f"1,{r - 1}"] * 10)
        code, report = run_json(capsys, "cover", "--r", str(r), "--weights", weights)
        assert (code, report["results"]) == (0, [{"genus": 9 * r - 9}])
        code, report = run_json(capsys, "cover", "--r", str(r), "--weights", weights, "--split", "10")
        rec = report["results"][0]
        assert code == 0
        assert (rec["g"], rec["g1"], rec["g2"], rec["s"]) == (9 * r - 9, 4 * r - 4, 4 * r - 4, r)

    def test_odd_sum_rejected(self, capsys):
        code = cli.main(["cover", "--r", "2", "--weights", "1,1,1"])
        assert code == 2
        assert "--weights" in capsys.readouterr().err

    @pytest.mark.parametrize("split", ["1", "3", "-2"])
    def test_split_out_of_range_is_usage_error(self, capsys, split):
        code = cli.main(["cover", "--r", "5", "--weights", "1,2,3,4", "--split", split])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --split: need 2 <= split <= 2, got {split}\n"

    def test_split_of_too_few_weights_blames_weights(self, capsys):
        code = cli.main(["cover", "--r", "3", "--weights", "1,2", "--split", "1"])
        assert code == 2
        assert capsys.readouterr() == ("", "error: --weights: need n >= 4, got 2\n")
        # without --split, a cover of fewer points still has a genus
        code, report = run_json(capsys, "cover", "--r", "3", "--weights", "1,2")
        assert (code, report["results"]) == (0, [{"genus": 0}])

    def test_failed_invariant_is_internal_error(self, capsys, monkeypatch):
        # a genus that grows with the point count breaks g = g1 + g2 + s - 1
        monkeypatch.setattr(covers, "_genus_value", lambda r, entries: len(entries))
        code = cli.main(["cover", "--r", "4", "--weights", "2,1,3,3,1,2", "--split", "3"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: genus additivity failed: g=6, g1=4, g2=4, s=2\n"
        assert "--split" not in captured.err
        assert "Traceback" not in captured.err


class TestTableaux:
    def test_enumeration(self, capsys):
        code, report = run_json(capsys, "tableaux", "--d", "1", "--k", "2", "--content", "1,1,1,1")
        assert code == 0
        rec = report["results"][0]
        assert rec["count"] == 2
        assert [[1, 2], [3, 4]] in rec["tableaux"]

    def test_single(self, capsys):
        code, report = run_json(capsys, "tableaux", "--d", "2", "--k", "1", "--content", "1,1,1")
        assert code == 0
        assert report["results"][0]["count"] == 1

    def test_restrict(self, capsys):
        code, report = run_json(
            capsys,
            "tableaux", "--d", "2", "--k", "2", "--content", "1,1,1,1,1,1",
            "--restrict", "--n1", "3", "--d1", "1",
        )
        assert code == 0
        assert report["status"] == "ok"
        rec = report["results"][0]
        assert rec["alpha"] == 1
        assert rec["beta"] == 1
        assert rec["failures"] == []
        # two images are not basis pairs, yet the images span the product
        assert rec["nonbasis_images"] == 2
        assert rec["surjective"] is True

    def test_restriction_failure_is_a_mismatch(self, capsys, monkeypatch):
        verify_restriction_theorem = invariants.verify_restriction_theorem

        def failing(*args):
            outcome = verify_restriction_theorem(*args)
            outcome.failures.append("planted failure")
            return outcome

        monkeypatch.setattr(invariants, "verify_restriction_theorem", failing)
        report = assert_mismatch(
            capsys,
            "tableaux", "--d", "2", "--k", "2", "--content", "1,1,1,1,1,1",
            "--restrict", "--n1", "3", "--d1", "1",
        )
        assert report["results"][0]["failures"] == ["planted failure"]

    def test_many_cells(self, capsys):
        # 5000 cells, more than Python's recursion limit allows frames
        code, report = run_json(capsys, "tableaux", "--d", "0", "--k", "5000", "--content", "5000")
        assert code == 0
        assert report["results"][0]["count"] == 1

    def test_bad_content_sum(self, capsys):
        code = cli.main(["tableaux", "--d", "1", "--k", "2", "--content", "1,1,1"])
        assert code == 2
        assert "--content" in capsys.readouterr().err


class TestSemistable:
    def test_stable(self, capsys):
        code, report = run_json(
            capsys,
            "semistable", "--d", "1", "--weights", "1/2,1/2,1/2,1/2",
            "--points", "1,0;0,1;1,1;2,1",
        )
        assert code == 0
        assert report["results"][0]["stability"] == "stable"

    def test_unstable(self, capsys):
        code, report = run_json(
            capsys,
            "semistable", "--d", "1", "--weights", "1/2,1/2,1/2,1/2",
            "--points", "1,0;1,0;1,0;2,1",
        )
        assert code == 0
        assert report["results"][0]["stability"] == "unstable"

    def test_point_count_mismatch(self, capsys):
        code = cli.main(
            ["semistable", "--d", "1", "--weights", "1/2,1/2,1/2,1/2",
             "--points", "1,0;0,1;1,1"]
        )
        assert code == 2
        assert "--points" in capsys.readouterr().err

    def test_wrong_coordinate_count_shows_the_point_as_written(self, capsys):
        code = cli.main(
            ["semistable", "--d", "1", "--weights", "1/2,1/2,1/2,1/2",
             "--points", "1,0,3;0,1;1,1;1,2"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: --points: point 1,0,3 has 3 coordinates, need d + 1 = 2\n"
        assert "Fraction(" not in err


class TestOutputShape:
    def test_json_is_deterministic(self, capsys):
        _, first = run(capsys, "degvec", "--family", "cb", "--r", "2", "--weights", "1,1,1,1,1,1")
        _, second = run(capsys, "degvec", "--family", "cb", "--r", "2", "--weights", "1,1,1,1,1,1")
        assert first == second

    def test_report_schema(self, capsys):
        _, report = run_json(capsys, "cover", "--r", "2", "--weights", "1,1,1,1")
        assert set(report) == {"command", "parameters", "results", "status"}

    def test_table_mode(self, capsys):
        code, out = run(
            capsys, "--table", "cover", "--r", "2", "--weights", "1,1,1,1"
        )
        assert code == 0
        assert "status: ok" in out
        assert "genus=1" in out


def readme_examples():
    """The argv of each `divfact ...` line in README's command-line usage block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command-line usage", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("divfact ")]


class TestReadmeExamples:
    def test_examples_are_read(self):
        assert len(readme_examples()) == 9

    @pytest.mark.parametrize("argv", readme_examples(), ids=lambda argv: argv[0])
    def test_example_runs(self, capsys, argv):
        code = cli.main(["--table", *argv])
        captured = capsys.readouterr()
        assert code == 0
        assert "Traceback" not in captured.err
        assert captured.out.endswith("status: ok\n")


class TestBadR:
    @pytest.mark.parametrize(
        "argv",
        [
            ["degree", "--family", "cb", "--r", "0", "--weights", "1,1,1,1", "--partition", "1/2/3/4"],
            ["factor-check", "--r", "0", "--weights", "1,1,1,1", "--cut", "1,2"],
            ["degvec", "--family", "cb", "--r", "-3", "--weights", "1,1,1,1"],
            ["degree", "--family", "git", "--r", "-1", "--weights", "1,1,1,1", "--partition", "1/2/3/4"],
        ],
    )
    def test_usage_error(self, capsys, argv):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --r: ")


class TestBadTableauxInput:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["tableaux", "--d", "1", "--k", "0", "--content", "0,0,0,0", "--restrict", "--n1", "2", "--d1", "5"], "--k"),
            (["tableaux", "--d", "-1", "--k", "0", "--content", "0"], "--d"),
            (["tableaux", "--d", "1", "--k", "2", "--content=-1,3,1,1"], "--content"),
            (["tableaux", "--d=-2", "--k=-1", "--content", "1"], "--d"),
        ],
    )
    def test_usage_error(self, capsys, argv, flag):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag}: ")


class TestBlamedFlag:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["tableaux", "--d", "1", "--k", "1", "--content", "1,1,0,0", "--restrict", "--n1", "2", "--d1", "5"], "--d1"),
            (["cover", "--r", "0", "--weights", "1,1,1,1"], "--r"),
            (["semistable", "--d", "0", "--weights", "1", "--points", "1"], "--d"),
            # argparse hands "--flag=--" over as an empty list, not a string
            (["semistable", "--d=1", "--weights=--", "--points=1,0;1,0"], "--weights"),
            (["degvec", "--family=cb", "--r=--", "--weights=1,1,1,1"], "--r"),
            (["degvec", "--family=--", "--r=2", "--weights=1,1,1,1"], "--family"),
            # a library ValueError, reported against the flag that fed it
            (["degree", "--family", "cb", "--r", "3", "--weights", "1,1,1,0,0", "--partition", "1/2/3/4,6"],
             "--partition"),
            (["semistable", "--d", "1", "--weights", "1/2,1/2,1/2,1/2", "--points", "1,0;0,0;1,1;1,2"], "--points"),
            (["factor-check", "--r", "3", "--weights", "1,1,1,0,0", "--cut", "1,6"], "--cut"),
            (["cover", "--r", "4", "--weights", "1,1,1,2"], "--weights"),
            (["tableaux", "--d", "2", "--k", "1", "--content", "2,1,0,0", "--restrict", "--n1", "2", "--d1", "1"],
             "--content"),
            (["semistable", "--d", "1", "--weights", "1/2,1/2,1/2,1", "--points", "1,0;0,1;1,1;1,2"], "--weights"),
            (["tableaux", "--d", "2", "--k", "2", "--content", "2,2,2,0,0,0", "--restrict", "--n1", "3", "--d1", "1"],
             "--n1"),
        ],
    )
    def test_usage_error(self, capsys, argv, flag):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag}: ")


class TestOneTextPerRule:
    """A rule the library states is reported in its own text, against the flag at fault."""

    @pytest.mark.parametrize(
        "argv, flag, rule",
        [
            (["tableaux", "--d", "1", "--k", "2", "--content=-1,3,1,1"], "--content",
             lambda: invariants.enumerate_tableaux(1, 2, (-1, 3, 1, 1))),
            (["tableaux", "--d", "1", "--k", "2", "--content", "1,1,1"], "--content",
             lambda: invariants.enumerate_tableaux(1, 2, (1, 1, 1))),
            (["degree", "--family", "cb", "--r", "3", "--weights", "1,2,0", "--partition", "1/2/3/4"],
             "--weights", lambda: SetPartition4(3, ({1}, {2}, {3}, {4}))),
            (["factor-check", "--r", "2", "--weights", "1,1,1", "--cut", "1,2"], "--weights",
             lambda: check_git_factorization(2, (1, 1, 1), (1, 2))),
            (["degree", "--family", "cb", "--r", "3", "--weights", "1,1,1,0", "--partition", "1/2/3"],
             "--partition", lambda: SetPartition4(4, ({1}, {2}, {3}))),
        ],
        ids=["negative content", "content sum", "degree of 3 weights", "factor-check of 3 weights",
             "3 blocks"],
    )
    def test_cli_prints_the_library_text(self, capsys, argv, flag, rule):
        with pytest.raises(ValueError) as caught:
            rule()
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {flag}: {caught.value}\n")

    def test_weight_window_has_one_text(self):
        with pytest.raises(ValueError) as vector:
            WeightVector(3, (4,))
        with pytest.raises(ValueError) as four_point:
            deg4_cb(3, (0, 1, 1, 4))
        assert str(vector.value) == str(four_point.value)


class TestLargeR:
    def test_single_queries_skip_the_class_table(self, capsys, monkeypatch):
        # r = 1000 has ~1.7e8 candidate classes; single queries must look
        # up only the classes they meet, never walk them all
        def no_walk(*args):
            raise AssertionError("single query walked the candidate classes")

        monkeypatch.setattr(bundles, "combinations_with_replacement", no_walk)
        start = time.perf_counter()
        code, report = run_json(
            capsys,
            "degree", "--family", "cb", "--r", "1000",
            "--weights", "500,500,500,500", "--partition", "1/2/3/4",
        )
        assert code == 0
        assert report["results"][0]["degree"] == 500
        code, report = run_json(
            capsys, "degvec", "--family", "git", "--r", "1000", "--weights", "500,500,500,500,0"
        )
        assert code == 0
        # 500 on the four F-curves that pair point 5 with another point
        assert sorted(rec["degree"] for rec in report["results"]) == [0] * 6 + [500] * 4
        code, report = run_json(
            capsys, "factor-check", "--r", "1000", "--weights", "500,500,500,500", "--cut", "1,2"
        )
        assert code == 0
        assert report["results"][0]["consistent"]
        assert time.perf_counter() - start < 5.0


_INTS = st.integers(-10**6, 10**6) | st.sampled_from([0, 1, -1, 2, 10**30, -(10**30)])


def _csv(values):
    return ",".join(map(str, values))


def _junk(alphabet):
    return st.text(alphabet=alphabet, max_size=14)


@st.composite
def _argv(draw):
    """An argv for degvec, degree or factor-check; each flag is valid three times in four."""

    def pick(valid, invalid):
        return draw(valid if draw(st.integers(0, 3)) else invalid)

    command = draw(st.sampled_from(["degvec", "degree", "factor-check"]))
    argv = ["--table"] if draw(st.booleans()) else []
    r = pick(st.integers(1, 12) | st.just(10**30), _INTS | _junk("0123456789-x."))
    argv += [command, f"--r={r}"]
    if command != "factor-check":
        family = pick(st.sampled_from(["cb", "git", "cyc", "GIT"]), st.sampled_from(["nope", ""]))
        argv.append("--family=" + family)
    weights = pick(st.lists(_INTS, min_size=4, max_size=7), st.lists(_INTS, max_size=3))
    n = len(weights)
    argv.append("--weights=" + pick(st.just(_csv(weights)), _junk("0123456789,- x")))
    if command == "degree":
        # the points in four blocks, or junk
        valid = st.just("1/2/3/4")
        if n >= 4:
            order = draw(st.permutations(range(1, n + 1)))
            ends = sorted(draw(st.sets(st.integers(1, n - 1), min_size=3, max_size=3)))
            blocks = [order[a:b] for a, b in zip([0] + ends, ends + [n])]
            valid = st.just("/".join(_csv(sorted(block)) for block in blocks))
        argv.append("--partition=" + pick(valid, _junk("0123456789,/-")))
    if command == "factor-check":
        valid = st.sets(st.integers(1, max(n, 2)), min_size=2, max_size=max(n - 2, 2)).map(_csv)
        invalid = st.lists(st.integers(-1, n + 1), max_size=n).map(_csv) | _junk("0123456789,- ")
        argv.append("--cut=" + pick(valid, invalid))
    return argv


@st.composite
def _invariant_argv(draw):
    """An argv for tableaux (with or without --restrict) or semistable.

    Valid values stay small (d <= 3, k <= 3, at most 7 points); each flag
    is valid three times in four.
    """

    def pick(valid, invalid):
        return draw(valid if draw(st.sampled_from([True, True, True, False])) else invalid)

    def spread(total, parts, cap):
        # a random composition of total into parts entries, each <= cap
        values = [0] * parts
        for _ in range(total):
            values[draw(st.sampled_from([i for i in range(parts) if values[i] < cap]))] += 1
        return values

    argv = ["--table"] if draw(st.booleans()) else []
    if draw(st.booleans()):
        restrict = draw(st.booleans())
        d = draw(st.integers(2 if restrict else 0, 3))
        k = draw(st.integers(1 if restrict else 0, 3))
        n = draw(st.integers(max(d + 1, 4 if restrict else 1), 7))
        content = _csv(spread(k * (d + 1), n, k))
        argv += [
            "tableaux",
            f"--d={pick(st.just(d), _INTS | _junk('0123456789-x'))}",
            f"--k={pick(st.just(k), _INTS | _junk('0123456789-x'))}",
            "--content=" + pick(st.just(content), _junk("0123456789,- x")),
        ]
        if restrict:
            argv.append("--restrict")
            # each of --n1 and --d1 is left out one time in eight
            if draw(st.sampled_from([True] * 7 + [False])):
                argv.append(f"--n1={pick(st.integers(2, n - 2), _INTS)}")
            if draw(st.sampled_from([True] * 7 + [False])):
                argv.append(f"--d1={pick(st.integers(1, d - 1), _INTS)}")
        return argv
    d = draw(st.integers(1, 3))
    n = draw(st.integers(d + 1, 7))
    den = draw(st.sampled_from([1, 2, 3, 6]))
    weights = ",".join(f"{w}/{den}" for w in spread((d + 1) * den, n, den))
    coordinate = st.integers(-3, 3).map(str) | st.tuples(
        st.integers(-9, 9), st.integers(1, 4)).map(lambda q: f"{q[0]}/{q[1]}")
    points = []
    for _ in range(n):
        if points and draw(st.integers(0, 3)) == 0:
            points.append(draw(st.sampled_from(points)))  # a repeated point
        else:
            coords = draw(st.lists(coordinate, min_size=d + 1, max_size=d + 1))
            if not any(Fraction(x) for x in coords):
                coords[0] = "1"  # the zero column is no point
            points.append(_csv(coords))
    argv += [
        "semistable",
        f"--d={pick(st.just(d), _INTS | _junk('0123456789-x'))}",
        "--weights=" + pick(st.just(weights), _junk("0123456789,/- x")),
        "--points=" + pick(st.just(";".join(points)), _junk("0123456789,;/- ") | st.sampled_from([
            ";".join(points[:-1] + [_csv([0] * (d + 1))]),  # the zero column
            ";".join(points[:-1] + [_csv([1] * d)]),  # one coordinate short
        ])),
    ]
    return argv


# never a valid integer at least 1: junk without digits, '--', zero or negative
_NOT_POSITIVE = _junk("x-., ") | st.just("--") | st.integers(-10**6, 0).map(str)


@st.composite
def _cover_verify_argv(draw):
    """An argv for cover (with or without --split) or verify-main.

    Valid values stay small (verify-main: r <= 4, n <= 6, as an unbounded
    --n runs unbounded; cover: at most 7 points); each flag is valid three
    times in four.  Invalid values are junk, zero, negative or '--', and
    below each flag's least value.
    """

    def pick(valid, invalid):
        return draw(valid if draw(st.sampled_from([True, True, True, False])) else invalid)

    def below(lowest):
        return _NOT_POSITIVE | st.integers(1, lowest - 1).map(str)

    argv = ["--table"] if draw(st.booleans()) else []
    if draw(st.booleans()):
        r = pick(st.integers(2, 4).map(str), below(2))
        n = pick(st.integers(4, 6).map(str), below(4))
        return argv + ["verify-main", f"--r={r}", f"--n={n}"]
    r = draw(st.integers(2, 12))
    weights = draw(st.lists(st.integers(0, 3 * r) | _INTS.map(abs), min_size=1, max_size=7))
    weights[-1] += -sum(weights) % r
    n = len(weights)
    argv += [
        "cover",
        f"--r={pick(st.just(str(r)), below(2))}",
        "--weights=" + pick(st.just(_csv(weights)), _junk("0123456789,- x") | st.just("--")),
    ]
    if draw(st.booleans()):
        outside = _NOT_POSITIVE | st.sampled_from(["1", str(max(n - 1, 2)), "10" * 20])
        split = pick(st.integers(2, n - 2).map(str), outside) if n >= 4 else draw(outside)
        argv.append(f"--split={split}")
    return argv


def _run_without_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: --")


class TestNoTraceback:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_argv())
    def test_exit_code_and_stderr(self, argv):
        _run_without_traceback(argv)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_invariant_argv())
    def test_tableaux_and_semistable(self, argv):
        _run_without_traceback(argv)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_cover_verify_argv())
    def test_cover_and_verify_main(self, argv):
        _run_without_traceback(argv)


def process_env():
    """The environment of a `python -m divfact.cli` child: this package on the
    path, and stdout block-buffered as by default, so lost text would show."""
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": str(Path(cli.__file__).parents[1])}


class TestBrokenPipe:
    def test_closed_stdout_exits_141_without_traceback(self):
        # the n = 10 report is 2.4 MB, far more than a pipe holds, so the
        # writer blocks until the reader closes its end after 10 bytes
        src = Path(cli.__file__).parents[1]
        argv = ["degvec", "--family", "cb", "--r", "3", "--weights", "1,2,0,1,2,0,1,2,0,1"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "divfact.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert head == b'{\n  "comma'
        assert err == b""

    @pytest.mark.parametrize("argv", [["--help"], ["degree", "--help"]])
    def test_help_into_closed_stdout_exits_141_without_traceback(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "divfact.cli", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=process_env(),
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (141, b"")


# one argv per command (those of tests/test_imports.py), then --table, a
# usage error, help, the cover warning and a 2.4 MB degvec at n = 10
DEGVEC_N10 = ["degvec", "--family", "cb", "--r", "3", "--weights", "1,2,0,1,2,0,1,2,0,1"]
PROCESS_ARGVS = [
    ["degree", "--family", "cb", "--r", "2", "--weights", "1,1,1,1,0", "--partition", "1/2/3/4,5"],
    ["degvec", "--family", "git", "--r", "4", "--weights", "2,1,3,3,1,2"],
    ["verify-main", "--r", "3", "--n", "5"],
    ["factor-check", "--r", "4", "--weights", "2,1,3,3,1,2", "--cut", "1,2,3"],
    ["--table", "cover", "--r", "4", "--weights", "2,1,3,3,1,2", "--split", "3"],
    ["tableaux", "--d", "2", "--k", "2", "--content", "1,1,1,1,1,1", "--restrict", "--n1", "3", "--d1", "1"],
    ["semistable", "--d", "1", "--weights", "1/2,1/2,1/2,1/2", "--points", "1,0;0,1;1,1;2,1"],
    ["--table", "degvec", "--family", "git", "--r", "4", "--weights", "2,1,3,3,1,2"],
    ["degvec", "--family", "cb", "--r", "0", "--weights", "1,1,1,1"],
    ["--help"],
    ["cover", "--r", "4", "--weights", "2,2,2,2"],
    DEGVEC_N10,
]


def _masked(err: bytes) -> bytes:
    """stderr with verify-main's elapsed time replaced by its shape."""
    return re.sub(rb"in \d+\.\d\ds\n", b"in N.NNs\n", err)


class TestWholeProcess:
    """`python -m divfact.cli` ends with os._exit: it must lose no output."""

    @staticmethod
    def in_process(capsys, argv):
        code = cli.main(argv)
        captured = capsys.readouterr()
        return captured.out.encode(), _masked(captured.err.encode()), code

    @staticmethod
    def spawn(argv, **streams):
        return subprocess.run(
            [sys.executable, "-m", "divfact.cli", *argv],
            env=process_env(),
            timeout=120,
            **streams,
        )

    @pytest.mark.parametrize("argv", PROCESS_ARGVS, ids=lambda argv: " ".join(argv)[:40])
    def test_same_bytes_and_code_as_main(self, capsys, argv):
        want = self.in_process(capsys, argv)
        done = self.spawn(argv, capture_output=True)
        assert (done.stdout, _masked(done.stderr), done.returncode) == want
        assert want[2] in (0, 2) and (want[0] or want[1])

    def test_large_report_into_a_file(self, capsys, tmp_path):
        want = self.in_process(capsys, DEGVEC_N10)
        assert len(want[0]) > 2_000_000
        path = tmp_path / "out.json"
        with open(path, "wb") as out:
            done = self.spawn(DEGVEC_N10, stdout=out, stderr=subprocess.PIPE)
        assert (path.read_bytes(), done.stderr, done.returncode) == want

    @pytest.mark.parametrize("count", [1200, 5000])
    def test_walk_deeper_than_the_recursion_limit_is_refused(self, count):
        # one frame per point: refused before the report's head is written
        argv = ["degvec", "--family", "cb", "--r", "3", "--weights", ",".join(["1"] * count)]
        done = self.spawn(argv, capture_output=True)
        assert (done.returncode, done.stdout) == (2, b"")
        assert done.stderr.startswith(f"error: --weights: {count} marked points ".encode())
        assert done.stderr.count(b"\n") == 1 and b"Traceback" not in done.stderr

    def test_installed_command_is_run(self):
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        assert 'divfact = "divfact.cli:run"' in text


class TestHelp:
    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--table", "--he"], ["--nope", "--help"]])
    def test_top_level(self, capsys, argv):
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: divfact [--table] COMMAND FLAGS\n")
        for command in cli._COMMANDS:
            assert f"  {command} " in out

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_each_command(self, capsys, command):
        # --help wins over a missing required flag, as it did with argparse
        assert cli.main([command, "-h"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: divfact [--table] {command} --")
        assert cli.main([command, "--bogus", "--h"]) == 0

    def test_tableaux_usage_lists_its_flags(self, capsys):
        assert cli.main(["tableaux", "--help"]) == 0
        assert capsys.readouterr().out.startswith(
            "usage: divfact [--table] tableaux --d N --k N --content TEXT [--restrict] [--n1 N] [--d1 N]\n"
        )


class TestFlagSpelling:
    def test_prefixes_equals_and_last_wins(self, capsys):
        code, report = run_json(
            capsys, "degree", "--fam", "cb", "--r=7", "--r", "2", "--w=1,1,1,1,0", "--p", "1/2/3/4,5"
        )
        assert code == 0
        assert report["parameters"] == {"family": "cb", "partition": "1/2/3/4,5", "r": 2, "weights": [1, 1, 1, 1, 0]}

    def test_prefix_of_one_flag_only(self, capsys):
        # tableaux: --n means --n1, --r means --restrict, and --d is --d itself
        code, report = run_json(
            capsys, "tableaux", "--d", "2", "--k", "2", "--c", "1,1,1,1,1,1", "--r", "--n", "3", "--d1", "1"
        )
        assert code == 0
        assert report["parameters"]["n1"] == 3
        assert report["parameters"]["restrict"] is True

    def test_negative_value(self, capsys):
        assert cli.main(["degvec", "--family", "cb", "--r", "-3", "--weights", "1,1,1,1"]) == 2
        assert capsys.readouterr().err == "error: --r: need r >= 1, got -3\n"

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["cover", "--r", "2", "--weights", "1,1,1,1", "--table"], "error: --table: unknown flag; cover takes --r, --weights, --split\n"),
            (["cover", "--r", "x", "--weights", "1,1,1,1"], "error: --r: expected an integer, got 'x'\n"),
            (["cover", "--r", "2", "--weights"], "error: --weights: expected a value\n"),
            (["cover", "--r", "2"], "error: --weights: required\n"),
            (["cover", "--r", "2", "3", "--weights", "1,1,1,1"], "error: --r: unexpected argument '3'\n"),
            (["tableaux", "--d", "1", "--k", "2", "--content", "1,1,1,1", "--restrict=yes"], "error: --restrict: takes no value, got 'yes'\n"),
            (["cover", "--r", "2", "--weights=1,1,1,1", "--=2"], "error: --: ambiguous: could be --help, --table\n"),
            (["--table=1", "cover"], "error: --table: takes no value, got '1'\n"),
            (["--bogus", "cover", "--r", "2", "--weights", "1,1,1,1"], "error: --bogus: unknown flag; only --table comes before the command\n"),
            # a bare "--" names no flag, so it is neither a flag's value nor a flag
            (["cover", "--r", "2", "--", "--weights", "1,1,1,1"], "error: --: unknown flag; cover takes --r, --weights, --split\n"),
            (["cover", "--r", "--", "--weights", "1,1,1,1"], "error: --r: expected a value\n"),
        ],
    )
    def test_usage_errors_name_the_flag(self, capsys, argv, line):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == line

    @pytest.mark.parametrize("argv", [[], ["--table"], ["nope"], ["Degree", "--r", "2"]])
    def test_missing_or_unknown_command(self, capsys, argv):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: command: ")
        assert "degree, degvec, verify-main, factor-check, cover, tableaux, semistable" in captured.err

    def test_main_never_raises_system_exit(self, capsys):
        for argv in (["--help"], ["nope"], ["cover", "--bogus"], ["cover", "--r", "2", "--weights", "1,1,1,1"]):
            assert cli.main(argv) in (0, 2)
        capsys.readouterr()


def argparse_parser():
    """The argparse parser the CLI had before its table-driven reader, as it was."""
    parser = argparse.ArgumentParser(prog="divfact")
    parser.add_argument("--table", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("degree")
    p.add_argument("--family", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--partition", required=True)

    p = sub.add_parser("degvec")
    p.add_argument("--family", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--weights", required=True)

    p = sub.add_parser("verify-main")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("factor-check")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--cut", required=True)

    p = sub.add_parser("cover")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--split", type=int, default=None)

    p = sub.add_parser("tableaux")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--content", required=True)
    p.add_argument("--restrict", action="store_true")
    p.add_argument("--n1", type=int, default=None)
    p.add_argument("--d1", type=int, default=None)

    p = sub.add_parser("semistable")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--points", required=True)
    return parser


_ARGPARSE = argparse_parser()

# each command's flags and whether each takes an integer (True), text (False) or nothing (None)
_FLAG_TYPES = {
    "degree": {"family": False, "r": True, "weights": False, "partition": False},
    "degvec": {"family": False, "r": True, "weights": False},
    "verify-main": {"r": True, "n": True},
    "factor-check": {"r": True, "weights": False, "cut": False},
    "cover": {"r": True, "weights": False, "split": True},
    "tableaux": {"d": True, "k": True, "content": False, "restrict": None, "n1": True, "d1": True},
    "semistable": {"d": True, "weights": False, "points": False},
}


def argparse_reading(argv):
    """("ok", values), ("help", None) or ("error", None) as argparse and the old
    main read argv.  The old main refused a "--flag=--", which argparse reads
    as an empty list."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            values = vars(_ARGPARSE.parse_args(argv))
        except SystemExit as exc:
            return ("help", None) if exc.code == 0 else ("error", None)
    if any(isinstance(value, list) for value in values.values()):
        return "error", None
    return "ok", values


def table_reading(argv):
    try:
        values = vars(cli._parse(list(argv)))
    except cli._Help:
        return "help", None
    except cli.UsageError:
        return "error", None
    del values["handler"]
    return "ok", values


# values that argparse reads in its own ways: negative numbers (in any
# decimal digits, with one final newline), text with a space, a lone dash,
# Unicode digits and underscores that int() takes, flags as values
_ODD_VALUES = [
    "-3", "-0", "-1.5", "-.5", "-3\n", "-x", "-1,2", "-1 2", "-x y", "-", "", " 7 ", "+4", "1_0",
    "\u0663", "-\u0663", "x", "1,1,1,1", "1/2/3/4", "cb", "--r", "--weights=1", "--=2", "-h", "-hx",
]


@st.composite
def _spelled_argv(draw):
    """Mostly valid argvs, respelled and salted with argparse's corner cases.

    Each flag may be shortened, take its value after '=' or as the next
    argument, repeat or be left out; noise adds odd values, unknown flags,
    flags of other commands, --table after the command, stray values after a
    flag and, rarely, --help.  A bare "--" is not drawn (see CHANGES.md)."""
    command = draw(st.sampled_from(sorted(_FLAG_TYPES)))
    flags = _FLAG_TYPES[command]
    other = sorted({name for fl in _FLAG_TYPES.values() for name in fl} - set(flags))
    top = draw(st.lists(st.sampled_from(["--table"] * 6 + ["--tab", "--t", "--table=", "--bogus", "--help"]), max_size=2))

    def value(is_int):
        if draw(st.integers(0, 3)):
            return str(draw(st.integers(-3, 12))) if is_int else draw(st.sampled_from(["1,1,1,1", "2", "cb", "1/2/3/4"]))
        return draw(st.sampled_from(_ODD_VALUES + ["--"]))  # "--" only after "="

    def spell(name, is_int):
        full = "--" + name
        token = full[: draw(st.integers(3, len(full)))] if draw(st.integers(0, 2)) == 0 else full
        if is_int is None:
            return [token + "=" + value(False)] if draw(st.integers(0, 7)) == 0 else [token]
        text = value(is_int)
        if text == "--" or draw(st.booleans()):
            return [token + "=" + text]
        return [token, text]

    items = [spell(name, kind) for name, kind in flags.items() if draw(st.integers(0, 9))]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.integers(0, 9))
        if kind < 4:
            name = draw(st.sampled_from(sorted(flags)))
            noise = spell(name, flags[name])  # a repeat
        elif kind < 6:
            noise = spell(draw(st.sampled_from(other)), True)
        elif kind == 6:
            noise = [draw(st.sampled_from(["--table", "--bogus", "--bogus=1", "-x"]))]
        elif kind == 7:
            noise = [draw(st.sampled_from(["--help", "-h", "--he"]))]
        else:  # a stray value, after a flag: right after the command nothing is blamed on a flag
            noise = [draw(st.sampled_from([v for v in _ODD_VALUES if v != "--"]))]
        items.insert(draw(st.integers(int(kind > 7), max(len(items), 1))), noise)
    return top + [command] + [token for item in items for token in item]


class TestArgparseEquivalence:
    # argparse's own bugfix releases for 3.12 and 3.13 read "--flag=--" as the
    # text "--" and act on text glued to -h; the reference is argparse as the
    # CLI used it on 3.10 and 3.11, whose readings the table-driven reader keeps
    @pytest.mark.skipif(sys.version_info >= (3, 12), reason="argparse reads some argvs differently from 3.12 on")
    @settings(max_examples=1500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_spelled_argv())
    def test_reads_argv_as_argparse_did(self, argv):
        old = argparse_reading(argv)
        assert table_reading(argv) == old
        if old[0] == "ok":
            return
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if old[0] == "help":
            assert code == 0
            assert out.getvalue().startswith("usage: divfact [--table] ")
        else:
            assert code == 2
            assert out.getvalue() == ""
            assert err.getvalue().count("\n") == 1
            # one line that names the flag at fault: as typed, or a missing one
            flag = err.getvalue().removeprefix("error: ").split(": ")[0]
            command = next(token for token in argv if token in _FLAG_TYPES)
            named = {token.partition("=")[0] for token in argv}
            assert flag in named | {"-h", "--help", "--table"} | {"--" + name for name in _FLAG_TYPES[command]}
            if flag == command:
                # a value right after the command (such as "--other= 7 ", which
                # argparse reads as a value for its space): no flag is at fault
                stray = argv[argv.index(command) + 1]
                assert err.getvalue() == f"error: {command}: unexpected argument {stray!r}\n"
            else:
                assert flag.startswith("-")


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**40), 10**40)
    | st.text(st.characters(exclude_categories=())),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(st.characters(exclude_categories=()), max_size=6), inner, max_size=4),
    max_leaves=25,
)


class TestJsonWriter:
    @settings(max_examples=1000, deadline=None)
    @given(_JSON_VALUES)
    def test_matches_json_dumps(self, value):
        want = json.dumps(value, sort_keys=True, indent=2)
        assert cli._json(value) == want
        # nested as a record of the results list
        assert cli._json(value, "\n    ") == want.replace("\n", "\n    ")

    @given(st.text(st.characters(exclude_categories=())))
    def test_strings_escape_as_ensure_ascii(self, text):
        assert cli._json_string(text) == json.dumps(text)

    def test_astral_character_is_a_surrogate_pair(self):
        assert cli._json("\U0001d11e") == '"\\ud834\\udd1e"'

    @pytest.mark.parametrize("value", [1.5, Fraction(1, 2), {"a": [0.0]}, [Fraction(3)], {1: 2}, {"a": {None: 1}}, {1, 2}])
    def test_other_types_raise_type_error(self, value):
        with pytest.raises(TypeError):
            cli._json(value)
