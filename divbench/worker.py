"""Run one benchmark workload in a fresh interpreter.

run.py starts this once per set-up sample and once for the measured run:

    python3 divbench/worker.py --workload sweep --seed 1 --seconds 20 [--trace] [--setup-only]

The worker imports the program, makes its inputs from the seed, warms up
and prints "ready"; that is the set-up that run.py times.  With
--setup-only it stops there.  Otherwise it runs whole rounds of the
workload's operations, one at a time, while their timed total fits in
--seconds, checks every output against oracles.py, and prints one JSON
line with the figures of the run.  With --trace it runs one round and
adds the per-layer figures.

Only the operations are timed: each one between two clock readings, or,
for a CLI process, by the launcher from spawn to reaped.  Checks run
between operations.  The program is imported from src/ of the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import re
import resource
import statistics
import subprocess
import sys
from array import array
from fractions import Fraction
from itertools import product
from time import perf_counter_ns, process_time_ns

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
# in tenths of a percent
TAIL_PERMILLES = (999, 990, 950, 900, 750)


class OpError:
    """An operation raised instead of returning."""

    def __init__(self, exc: BaseException):
        self.exc = exc


def checked(out, check) -> list[str]:
    if isinstance(out, OpError):
        return [f"raised {out.exc!r}"]
    return check(out)


def digest(terms: dict) -> int:
    """A 64-bit fingerprint of a polynomial's terms (PYTHONHASHSEED is fixed)."""
    return hash(frozenset(terms.items()))


class Verified:
    """Outputs that already passed their check, by operation.

    Rounds repeat the same inputs; an output equal to one that passed the
    oracle before needs no second oracle run.  Large outputs are kept as
    digests, so that the memo adds little to the worker's peak RSS.
    """

    def __init__(self):
        self.passed: dict = {}

    def problems(self, key, out, value, check) -> list[str]:
        """`value` is a comparable form of `out`; `check(out)` runs the oracle."""
        if isinstance(out, OpError):
            return [f"raised {out.exc!r}"]
        if key in self.passed and self.passed[key] == value:
            return []
        problems = check(out)
        if not problems:
            self.passed[key] = value
        return problems


def tail_of(ordered) -> tuple[float, float]:
    """(percentile, value): the highest listed percentile with at least ten
    operations beyond it, or the slowest operation when there is none."""
    n = len(ordered)
    for permille in TAIL_PERMILLES:
        rank = -(-n * permille // 1000)  # nearest rank, 1-based
        if n - rank >= 10:
            return permille / 10, ordered[rank - 1]
    return 100.0, ordered[-1]


class Meter:
    """Latency and CPU time of each operation, and the layer spans.

    Every round runs the same operations in the same order.  The end-to-end
    figures are taken per round and averaged over the rounds: the host's
    speed varies by up to 1.7x in phases of seconds, and a mean over all the
    timed seconds of a run varies less than any single round or a median of
    a few.
    """

    def __init__(self, trace: bool):
        self.trace = trace
        self.spans: dict[str, array] = {}
        self.counts: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.rounds: list[dict] = []
        self.child_rss_kb = 0
        self._start_round()

    def _start_round(self) -> None:
        self.lat = array("q")
        self.cpu = array("q")

    def call(self, layer: str, fn, *args):
        c0 = process_time_ns()
        t0 = perf_counter_ns()
        try:
            out = fn(*args)
        except Exception as exc:  # the operation failed; its check reports it
            out = OpError(exc)
        t1 = perf_counter_ns()
        c1 = process_time_ns()
        self.lat.append(t1 - t0)
        self.cpu.append(c1 - c0)
        if self.trace:
            self.span(layer, t1 - t0)
        return out

    def child(self, layer: str, reply: dict) -> None:
        """Record a CLI process timed by the launcher."""
        self.lat.append(reply["ns"])
        self.cpu.append(round(reply["cpu_s"] * 1e9))
        self.child_rss_kb = max(self.child_rss_kb, reply["maxrss_kb"])
        if self.trace:
            self.span(layer, reply["ns"])
            key = layer + ".peak_rss_kb"
            self.counts[key] = max(self.counts.get(key, 0), reply["maxrss_kb"])
            self.count(layer + ".cpu_us", round(reply["cpu_s"] * 1e6))

    def span(self, layer: str, ns: int) -> None:
        self.spans.setdefault(layer, array("q")).append(ns)

    def count(self, name: str, n: int) -> None:
        if self.trace:
            self.counts[name] = self.counts.get(name, 0) + n

    def outcome(self, problems: list[str], known_fault: bool = False) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if not known_fault:
                self.unexpected.append(problems[0])

    def end_round(self, in_process: bool) -> float:
        """Record the round's figures; return its timed seconds."""
        ordered = sorted(self.lat)
        pct, tail = tail_of(ordered)
        if in_process:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            rss_kb = self.child_rss_kb
        self.rounds.append(
            {
                "run_s": sum(self.lat) / 1e9,
                "cpu_s": sum(self.cpu) / 1e9,
                "op_p50_ms": statistics.median(ordered) / 1e6,
                "op_tail_ms": tail / 1e6,
                "peak_rss_mb": rss_kb / 1024,
                "tail_percentile": pct,
                "ops": len(ordered),
            }
        )
        self._start_round()
        return self.rounds[-1]["run_s"]

    def figures(self) -> dict:
        """Means over the rounds; the largest peak RSS."""
        fig = {
            key: statistics.fmean(r[key] for r in self.rounds)
            for key in ("run_s", "cpu_s", "op_p50_ms", "op_tail_ms")
        }
        fig["peak_rss_mb"] = max(r["peak_rss_mb"] for r in self.rounds)
        fig["tail_percentile"] = self.rounds[0]["tail_percentile"]
        fig["ops"] = self.rounds[0]["ops"]
        fig["rounds"] = len(self.rounds)
        return fig

    def busy_s(self, layer: str) -> float:
        return sum(self.spans.get(layer, ())) / 1e9

    def calls(self, layer: str) -> int:
        return len(self.spans.get(layer, ()))

    def p50(self, layer: str, scale: float) -> float:
        return statistics.median(self.spans[layer]) / scale


def admissible(r: int, n: int) -> list[tuple[int, ...]]:
    """Every weight vector in {0..r-1}^n with r dividing the sum."""
    return [head + ((-sum(head)) % r,) for head in product(range(r), repeat=n - 1)]


# ---------------------------------------------------------------------------
# sweep: exhaustive n-point checks in process


class Sweep:
    """verify_main_theorem over an (r, n) grid, GIT factorization on every
    cut, degeneration at every split, and the phi/psi label agreement.

    Sized so that one round takes a few seconds: the host's speed drifts
    over seconds, and a run needs several rounds to average it out.
    """

    in_process = True

    def __init__(self, seed: int, meter: Meter):
        from divfact.bundles import check_git_factorization, verify_main_theorem
        from divfact.covers import CoverSpec, degenerate
        from divfact.strata import enumerate_boundary_cuts
        from divfact.weights import WeightVector, phi_rule, psi_rule

        self.verify_main_theorem = verify_main_theorem
        self.check_git_factorization = check_git_factorization
        self.CoverSpec = CoverSpec
        self.degenerate = degenerate
        self.WeightVector = WeightVector
        self.phi_rule = phi_rule
        self.psi_rule = psi_rule
        rng = random.Random(seed)

        self.grid = [(r, n) for r in (2, 3, 4, 5) for n in (4, 5, 6)] + [(3, 7)]
        rng.shuffle(self.grid)

        t0 = perf_counter_ns()
        cuts = enumerate_boundary_cuts(6)
        meter.span("strata.enumerate_boundary_cuts", perf_counter_ns() - t0)
        meter.count("strata.cuts", len(cuts))
        self.cuts = [tuple(sorted(cut.members)) for cut in cuts]
        self.setup_problems = []
        if len(set(self.cuts)) != oracles.count_cuts(6) or any(1 not in c for c in self.cuts):
            self.setup_problems.append(f"{len(cuts)} boundary cuts of 6 points, expected 25")

        self.factor_vectors = admissible(3, 6)
        rng.shuffle(self.factor_vectors)
        self.degen_vectors = admissible(6, 6)
        rng.shuffle(self.degen_vectors)
        self.label_vectors = [(r, c) for r in (2, 3, 4) for n in (4, 5, 6) for c in admissible(r, n)]
        rng.shuffle(self.label_vectors)
        self.verified = Verified()

        verify_main_theorem(2, 4)
        check_git_factorization(2, (1, 1, 0, 0), (1, 2))
        degenerate(CoverSpec(2, (1, 1, 1, 1)), 2)
        phi_rule(WeightVector(2, (1, 1, 0, 0)), (1, 2))
        psi_rule(WeightVector(2, (1, 1, 0, 0)), (1, 2))

    def round(self, m: Meter) -> None:
        for r, n in self.grid:
            rep = m.call("bundles.verify_main", self.verify_main_theorem, r, n)
            m.outcome(
                checked(
                    rep,
                    lambda o: oracles.check_verify_main(
                        r, n, o.vectors_checked, o.fcurves_per_vector, o.mismatches
                    ),
                )
            )
            if not isinstance(rep, OpError):
                m.count("bundles.verify_main.pairs", rep.vectors_checked * rep.fcurves_per_vector)

        for c in self.factor_vectors:
            for cut in self.cuts:
                got = m.call("bundles.factor_check", self.check_git_factorization, 3, c, cut)
                m.outcome(self.verified.problems(
                    ("cut", c, cut), got, got,
                    lambda o: [] if o is oracles.factorization_holds(3, c, cut) else [f"factor-check r=3 c={c} cut={cut}: {o}"],
                ))

        for c in self.degen_vectors:
            spec = self.CoverSpec(6, c)
            for n1 in range(2, 5):
                self._degenerate(m, spec, 6, c, n1)

        for r, c in self.label_vectors:
            n = len(c)
            w = self.WeightVector(r, c)
            spec = self.CoverSpec(r, c)
            for n1 in range(2, n - 1):
                seg = tuple(range(1, n1 + 1))
                phi = m.call("weights.phi_psi", self.phi_rule, w, seg)
                psi = m.call("weights.phi_psi", self.psi_rule, w, seg)
                for side, out in enumerate((phi, psi)):
                    m.outcome(self.verified.problems(
                        (side, r, c, seg), out, getattr(out, "entries", None),
                        lambda o: [] if o.entries == oracles.expected_phi_psi(r, c, seg)[side]
                        else [f"{('phi', 'psi')[side]}_rule r={r} c={c} {seg}: {o.entries}"],
                    ))
                data = self._degenerate(m, spec, r, c, n1)
                if data is not None and not isinstance(phi, OpError) and not isinstance(psi, OpError):
                    agree = (
                        data.c_prime[:-1] == phi.entries[:-1]
                        and (data.c_prime[-1] - phi[-1]) % r == 0
                        and data.c_double_prime == psi.entries
                    )
                    if not agree:
                        m.unexpected.append(f"labels disagree for r={r} c={c} n1={n1}")

    def _degenerate(self, m: Meter, spec, r: int, c, n1: int):
        data = m.call("covers.degenerate", self.degenerate, spec, n1)
        if isinstance(data, OpError):
            m.outcome([f"raised {data.exc!r}"])
            return None
        got = (data.c_prime, data.c_double_prime, data.s, data.g, data.g1, data.g2)
        m.outcome(self.verified.problems(
            ("split", r, c, n1), data, got, lambda o: oracles.check_degeneration(r, c, n1, got)
        ))
        return data

    def finish(self, m: Meter) -> None:
        m.unexpected.extend(self.setup_problems)

    @staticmethod
    def layers(m: Meter) -> dict:
        vm = m.busy_s("bundles.verify_main")
        pairs = m.counts.get("bundles.verify_main.pairs", 0)
        return {
            "weights.phi_psi.busy_s": (m.busy_s("weights.phi_psi"), "s"),
            "weights.phi_psi.calls": (m.calls("weights.phi_psi"), "count"),
            "strata.enumerate_boundary_cuts.busy_s": (m.busy_s("strata.enumerate_boundary_cuts"), "s"),
            "strata.cuts": (m.counts.get("strata.cuts", 0), "count"),
            "bundles.verify_main.busy_s": (vm, "s"),
            "bundles.verify_main.pairs": (pairs, "count"),
            "bundles.verify_main.pairs_per_s": (pairs / vm, "1/s"),
            "bundles.factor_check.busy_s": (m.busy_s("bundles.factor_check"), "s"),
            "bundles.factor_check.p50_us": (m.p50("bundles.factor_check", 1e3), "us"),
            "bundles.factor_check.calls": (m.calls("bundles.factor_check"), "count"),
            "covers.degenerate.busy_s": (m.busy_s("covers.degenerate"), "s"),
            "covers.degenerate.p50_us": (m.p50("covers.degenerate", 1e3), "us"),
            "covers.degenerate.calls": (m.calls("covers.degenerate"), "count"),
        }


# ---------------------------------------------------------------------------
# symbolic: determinants, tableaux, the restriction check, semistability


# (d1, d2, n1, n2, content, k): the three shapes of acceptance criterion 4,
# then two larger ones
RESTRICTION_CASES = (
    (1, 1, 2, 2, (3, 3, 3, 3), 4),
    (1, 2, 2, 3, (2, 1, 1, 2, 2), 2),
    (2, 1, 3, 2, (2, 2, 1, 1, 2), 2),
    (1, 1, 3, 3, (2, 2, 2, 2, 2, 2), 4),
    (1, 2, 3, 4, (4, 4, 4, 4, 4, 4, 4), 7),
)
# surjective is reported false here although the images span the product basis
SURJECTIVE_FAULTS = {RESTRICTION_CASES[3], RESTRICTION_CASES[4]}
SURJECTIVE_FAULT = "surjective = False, expected True"

# (d, k, content) of the tableau bases; contents are permuted by the seed,
# which keeps the basis sizes
TABLEAU_CONTENTS = (
    (1, 3, (1, 1, 1, 1, 1, 1)),
    (2, 2, (1, 1, 1, 1, 1, 1)),
    (1, 4, (2, 2, 2, 2)),
    (2, 3, (1, 1, 1, 2, 2, 2)),
    (2, 4, (2, 2, 2, 2, 2, 2)),
    (3, 2, (1, 1, 1, 1, 1, 1, 1, 1)),
    # 79 tableaux of nearly equal cost, so that the median operation of a
    # round falls inside one cluster of latencies rather than between two
    (2, 4, (1, 1, 1, 1, 1, 1, 2, 2, 2)),
)
DETERMINANT_SIZES = (4, 4, 4, 4, 5, 5)
SEMISTABLE_PAIRS = 24


class Symbolic:
    """Generic determinants, tableau bases and functions, the restriction
    check, and semistability of attached configurations."""

    in_process = True

    def __init__(self, seed: int, meter: Meter):
        from divfact.invariants import (
            PointConfiguration,
            attach_configuration,
            enumerate_tableaux,
            evaluate_tableau,
            is_semistable,
            verify_restriction_theorem,
        )
        from divfact.polynomials import Poly, determinant
        from divfact.weights import Linearization, split_linearization

        self.determinant = determinant
        self.enumerate_tableaux = enumerate_tableaux
        self.evaluate_tableau = evaluate_tableau
        self.verify_restriction_theorem = verify_restriction_theorem
        self.is_semistable = is_semistable
        rng = random.Random(seed)

        # generic matrices: distinct variables placed by the seed
        self.dets = []
        for size in DETERMINANT_SIZES:
            labels = list(range(size * size))
            rng.shuffle(labels)
            names = [[("m", labels[i * size + j]) for j in range(size)] for i in range(size)]
            self.dets.append((names, [[Poly.variable(v) for v in row] for row in names]))
        self.verified = Verified()

        self.contents = []
        for d, k, content in TABLEAU_CONTENTS:
            content = list(content)
            rng.shuffle(content)
            n = len(content)
            points = [[[rng.randint(-9, 9) for _ in range(n)] for _ in range(d + 1)] for _ in range(2)]
            self.contents.append((d, k, tuple(content), points))

        self.cases = []
        for case in RESTRICTION_CASES:
            d1, d2, n1, n2, content, k = case
            lin = Linearization(tuple(Fraction(x, k) for x in content), d1 + d2)
            self.cases.append((case, lin))
        rng.shuffle(self.cases)
        self.reports: list[tuple] = []

        # acceptance criterion 6: random sides, each ending at its attaching
        # point.  The batch is drawn as that test draws it, from its own seed,
        # and --seed only orders it: the cost of is_semistable depends on the
        # rationals drawn, and the round's tail latency falls in this batch.
        c = Linearization(tuple([Fraction(1, 2)] * 4 + [Fraction(2, 5)] * 5), 3)
        c1, c2 = split_linearization(c, 4, 1)
        one, zero = Fraction(1), Fraction(0)
        batch_rng = random.Random(2024)

        def rational():
            return Fraction(batch_rng.randint(-12, 12), batch_rng.randint(1, 6))

        self.configs = []
        for _ in range(SEMISTABLE_PAIRS):
            p1 = [(rational(), one) for _ in range(4)] + [(zero, one)]
            p2 = [(one, rational(), rational()) for _ in range(5)] + [(one, zero, zero)]
            a1 = PointConfiguration(1, tuple(p1))
            a2 = PointConfiguration(2, tuple(p2))
            glued = attach_configuration(a1, a2)
            p12 = [p + (zero, zero) for p in p1[:-1]] + [(zero,) + p for p in p2[:-1]]
            self.configs.append(((a1, c1, p1), (a2, c2, p2), (glued, c, p12)))
        rng.shuffle(self.configs)

        determinant([[Poly.variable(1), Poly.variable(2)], [Poly.variable(3), Poly.variable(4)]])
        for t in enumerate_tableaux(1, 2, (1, 1, 1, 1)):
            evaluate_tableau(t, 4)
        is_semistable(self.configs[0][0][0], c1)

    def round(self, m: Meter) -> None:
        for i, (names, matrix) in enumerate(self.dets):
            det = m.call("polynomials.determinant", self.determinant, matrix)
            m.outcome(self.verified.problems(
                ("det", i), det, getattr(det, "terms", None),
                lambda o: [] if o.terms == oracles.leibniz_terms(names) else [f"{len(names)}x{len(names)} determinant differs from Leibniz"],
            ))
            if not isinstance(det, OpError):
                m.count("polynomials.determinant.terms", len(det.terms))

        for ci, (d, k, content, points) in enumerate(self.contents):
            n = len(content)
            basis = m.call("invariants.enumerate_tableaux", self.enumerate_tableaux, d, k, content)
            if isinstance(basis, OpError):
                m.outcome([f"raised {basis.exc!r}"])
                continue
            columns = [t.columns for t in basis]
            m.outcome(self.verified.problems(
                ("basis", ci), basis, columns, lambda o: oracles.check_tableau_basis(d, k, content, columns)
            ))
            m.count("invariants.tableaux", len(basis))
            for t in basis:
                poly = m.call("invariants.evaluate_tableau", self.evaluate_tableau, t, n)
                m.outcome(self.verified.problems(
                    ("tableau", ci, t.columns), poly, None if isinstance(poly, OpError) else digest(poly.terms),
                    lambda o: oracles.check_tableau_function(t.columns, d, n, o.terms, points),
                ))

        for case, lin in self.cases:
            d1, d2, n1, n2, content, k = case
            rep = m.call(
                "invariants.verify_restriction", self.verify_restriction_theorem, d1, d2, n1, n2, lin, k
            )
            if not isinstance(rep, OpError):
                m.count("invariants.verify_restriction.ambient_tableaux", rep.dim_ambient)
                rep = {key: getattr(rep, key) for key in (
                    "alpha", "beta", "dim_ambient", "dim_left", "dim_right", "decomposable",
                    "zero_restrictions", "surjective", "failures",
                )}
            self.reports.append((case, rep))

        for i, triple in enumerate(self.configs):
            got = []
            for j, (cfg, lin, raw) in enumerate(triple):
                verdict = m.call("invariants.is_semistable", self.is_semistable, cfg, lin)
                value = getattr(verdict, "value", None)

                def check(o):
                    want = oracles.stability_verdict(raw, lin.entries)
                    return [] if o.value == want else [f"pair {i} part {j}: {o.value}, expected {want}"]

                problems = self.verified.problems(("stability", i, j), verdict, value, check)
                got.append(value)
                if j == 2 and "unstable" not in got[:2] and got[2] == "unstable":
                    problems.append(f"pair {i}: semistable sides glue to an unstable configuration")
                m.outcome(problems)

    def finish(self, m: Meter) -> None:
        """Check the restriction reports; the exact ranks are computed after
        the rounds so that their memory does not count as the program's."""
        ranks = {}
        for case, rep in self.reports:
            if case not in ranks:
                ranks[case] = oracles.restriction_ranks(*case)
            problems = checked(rep, lambda o: oracles.check_restriction(o, ranks[case], case[5]))
            m.outcome(problems, known_fault=case in SURJECTIVE_FAULTS and problems == [SURJECTIVE_FAULT])

    @staticmethod
    def layers(m: Meter) -> dict:
        return {
            "polynomials.determinant.busy_s": (m.busy_s("polynomials.determinant"), "s"),
            "polynomials.determinant.calls": (m.calls("polynomials.determinant"), "count"),
            "polynomials.determinant.terms": (m.counts.get("polynomials.determinant.terms", 0), "count"),
            "invariants.enumerate_tableaux.busy_s": (m.busy_s("invariants.enumerate_tableaux"), "s"),
            "invariants.tableaux": (m.counts.get("invariants.tableaux", 0), "count"),
            "invariants.evaluate_tableau.busy_s": (m.busy_s("invariants.evaluate_tableau"), "s"),
            "invariants.verify_restriction.busy_s": (m.busy_s("invariants.verify_restriction"), "s"),
            "invariants.verify_restriction.ambient_tableaux": (
                m.counts.get("invariants.verify_restriction.ambient_tableaux", 0), "count"),
            "invariants.is_semistable.busy_s": (m.busy_s("invariants.is_semistable"), "s"),
            "invariants.is_semistable.calls": (m.calls("invariants.is_semistable"), "count"),
        }


# ---------------------------------------------------------------------------
# CLI processes


class Launcher:
    """The small process that spawns and reaps CLI processes (launcher.py)."""

    def __init__(self, name: str):
        os.makedirs(OUT, exist_ok=True)
        self.out = os.path.join(OUT, name + ".stdout")
        self.err = os.path.join(OUT, name + ".stderr")
        self.proc = subprocess.Popen(
            [sys.executable, "-S", os.path.join(HERE, "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, argv: list[str]) -> tuple[dict, bytes, bytes]:
        request = {"argv": [sys.executable] + argv, "out": self.out, "err": self.err}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        with open(self.out, "rb") as f:
            out = f.read()
        with open(self.err, "rb") as f:
            err = f.read()
        return reply, out, err

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


VERIFY_MAIN_STDERR = re.compile(rb"verify-main: \d+ vectors x \d+ F-curves in \d+\.\d\ds\n")
REPORT_KEYS = {"command", "parameters", "results", "status"}


def report_problems(command: str, params: dict, code: int, out: bytes, err: bytes, check) -> list[str]:
    """Exit 0, the documented JSON shape, the echoed parameters, and the results."""
    problems = []
    if code != 0:
        problems.append(f"{command}: exit {code}")
    if err and not (command == "verify-main" and VERIFY_MAIN_STDERR.fullmatch(err)):
        problems.append(f"{command}: stderr {err[-120:]!r}")
    try:
        doc = json.loads(out)
    except ValueError:
        return problems + [f"{command}: stdout is not JSON"]
    if not isinstance(doc, dict) or set(doc) != REPORT_KEYS:
        return problems + [f"{command}: report keys {sorted(doc) if isinstance(doc, dict) else doc}"]
    if doc["command"] != command or doc["status"] != "ok":
        problems.append(f"{command}: command {doc['command']!r}, status {doc['status']!r}")
    if doc["parameters"] != params:
        problems.append(f"{command}: parameters {doc['parameters']}, expected {params}")
    if not isinstance(doc["results"], list) or not doc["results"]:
        return problems + [f"{command}: no results"]
    try:
        return problems + check(doc["results"])
    except (KeyError, TypeError, AttributeError) as exc:
        return problems + [f"{command}: malformed results, {exc!r}"]


def usage_error_problems(command: str, code: int, out: bytes, err: bytes) -> list[str]:
    """Bad input: exit 2, nothing on stdout, one error line and no traceback."""
    problems = []
    if code != 2:
        problems.append(f"{command}: exit {code}, expected 2")
    if out:
        problems.append(f"{command}: stdout on a usage error")
    if not err.startswith(b"error: ") or b"Traceback" in err:
        problems.append(f"{command}: stderr {err[-120:]!r}")
    return problems


def random_weights(rng: random.Random, r: int, n: int, nonzero: bool = False) -> list[int]:
    """Admissible weights in {0..r-1}, or in {1..r-1} when nonzero."""
    while True:
        head = [rng.randrange(1 if nonzero else 0, r) for _ in range(n - 1)]
        w = head + [(-sum(head)) % r]
        if not nonzero or w[-1]:
            return w


def label(blocks) -> str:
    return "/".join(",".join(map(str, sorted(b))) for b in sorted(blocks, key=min))


def csv(values) -> str:
    return ",".join(map(str, values))


class CliOp:
    def __init__(self, command: str, args: list[str], check, known_fault: bool = False):
        self.command = command
        self.argv = ["-m", "divfact.cli", command] + args
        self.check = check
        self.known_fault = known_fault


def _expect(key, want):
    return lambda results: [] if results[0].get(key) == want else [f"{key} = {results[0].get(key)!r}, expected {want!r}"]


def cli_ops(rng: random.Random) -> list[CliOp]:
    """Small seeded inputs for all seven commands, plus three bad --r calls.

    Every number printed has one digit and every slot has a fixed shape, so
    the bytes written to stdout do not depend on the seed.
    """
    ops: list[CliOp] = []

    for family, r, n in (("cb", 2, 5), ("git", 3, 5), ("cyc", 4, 6), ("cb", 5, 6), ("git", 6, 7), ("cyc", 7, 7)):
        w = random_weights(rng, r, n)
        while True:
            marks = [rng.randrange(4) for _ in range(n)]
            if len(set(marks)) == 4:
                break
        blocks = [[i + 1 for i in range(n) if marks[i] == b] for b in range(4)]
        part = label(blocks)
        sums = [sum(w[i - 1] for i in b) % r for b in sorted(blocks, key=min)]
        want = oracles.fakhruddin_degree(r, sums)
        params = {"family": family, "r": r, "weights": w, "partition": part}
        ops.append(CliOp("degree", ["--family", family, "--r", str(r), "--weights", csv(w), "--partition", part],
                         _report("degree", params, lambda res, s=sums, d=want: _expect("degree", d)(res) + _expect("induced_weights", s)(res))))

    for family, r, n in (("cb", 3, 5), ("git", 4, 5), ("cyc", 5, 6), ("cb", 2, 6), ("git", 3, 6)):
        w = random_weights(rng, r, n)
        params = {"family": family, "r": r, "weights": w}
        ops.append(CliOp("degvec", ["--family", family, "--r", str(r), "--weights", csv(w)],
                         _report("degvec", params, lambda res, r=r, w=w: oracles.check_degree_records(r, w, res))))

    for r, n in ((2, 4), (2, 5), (3, 4), (3, 5), (2, 6)):
        ops.append(CliOp("verify-main", ["--r", str(r), "--n", str(n)],
                         _report("verify-main", {"r": r, "n": n}, _verify_main_check(r, n))))

    for r, n, size in ((3, 5, 2), (4, 6, 3), (5, 6, 2), (3, 7, 3), (4, 7, 2), (2, 6, 3)):
        w = random_weights(rng, r, n)
        cut = sorted(rng.sample(range(1, n + 1), size))
        want = oracles.factorization_holds(r, w, cut)
        params = {"r": r, "weights": w, "cut": cut}
        ops.append(CliOp("factor-check", ["--r", str(r), "--weights", csv(w), "--cut", csv(cut)],
                         _report("factor-check", params, _expect("consistent", want))))

    # prime r and nonzero weights fix the genus; a nonzero side sum fixes s = 1
    for r, n, split in ((5, 5, None), (7, 4, None), (5, 6, None), (5, 5, 2), (7, 6, 3), (5, 6, 2)):
        while True:
            w = random_weights(rng, r, n, nonzero=True)
            if split is None or sum(w[:split]) % r:
                break
        params = {"r": r, "weights": w, "split": split}
        args = ["--r", str(r), "--weights", csv(w)]
        if split is None:
            check = _expect("genus", oracles.rh_genus(r, w))
        else:
            args += ["--split", str(split)]
            check = _degeneration_check(r, w, split)
        ops.append(CliOp("cover", args, _report("cover", params, check)))

    for d, k, content in ((1, 2, [1, 1, 1, 1]), (2, 2, [1, 1, 1, 1, 1, 1]), (2, 3, [1, 1, 1, 2, 2, 2])):
        rng.shuffle(content)
        params = {"d": d, "k": k, "content": content, "restrict": False, "n1": None, "d1": None}
        ops.append(CliOp("tableaux", ["--d", str(d), "--k", str(k), "--content", csv(content)],
                         _report("tableaux", params, _basis_check(d, k, content))))
    for d1, d2, n1, n2, content, k in RESTRICTION_CASES[:3]:
        d = d1 + d2
        params = {"d": d, "k": k, "content": list(content), "restrict": True, "n1": n1, "d1": d1}
        ranks = oracles.restriction_ranks(d1, d2, n1, n2, content, k)
        ops.append(CliOp("tableaux", ["--d", str(d), "--k", str(k), "--content", csv(content),
                                      "--restrict", "--n1", str(n1), "--d1", str(d1)],
                         _report("tableaux", params, lambda res, rk=ranks, k=k: oracles.check_restriction(res[0], rk, k))))

    for d, n, want in ((1, 4, "stable"), (1, 4, "strictly-semistable"), (1, 4, "unstable"),
                       (2, 6, "stable"), (2, 6, "strictly-semistable")):
        weights = [Fraction(1, 2)] * n
        points = _points_with_verdict(rng, d, n, weights, want)
        params = {"d": d, "weights": ["1/2"] * n, "points": [[str(x) for x in p] for p in points]}
        ops.append(CliOp("semistable", ["--d", str(d), "--weights", csv(["1/2"] * n),
                                        "--points", ";".join(csv(p) for p in points)],
                         _report("semistable", params, _expect("stability", want))))

    # known faults: exit 1 with a ZeroDivisionError traceback, and exit 0 with
    # all degrees 0, where a usage error (exit 2) is due
    for args in (
        ["degree", "--family", "cb", "--r", "0", "--weights", "1,1,1,1", "--partition", "1/2/3/4"],
        ["factor-check", "--r", "0", "--weights", "1,1,1,1", "--cut", "1,2"],
        ["degvec", "--family", "cb", "--r", "-3", "--weights", "1,1,1,1"],
    ):
        ops.append(CliOp(args[0], args[1:], lambda code, out, err, c=args[0]: usage_error_problems(c, code, out, err),
                         known_fault=True))
    rng.shuffle(ops)
    return ops


def _report(command, params, check):
    return lambda code, out, err: report_problems(command, params, code, out, err, check)


def _verify_main_check(r, n):
    def check(res):
        rec = res[0]
        return oracles.check_verify_main(r, n, rec["vectors_checked"], rec["fcurves_per_vector"], rec["mismatches"])
    return check


def _degeneration_check(r, w, split):
    def check(res):
        rec = res[0]
        got = (tuple(rec["c_prime"]), tuple(rec["c_double_prime"]), rec["s"], rec["g"], rec["g1"], rec["g2"])
        return oracles.check_degeneration(r, w, split, got)
    return check


def _basis_check(d, k, content):
    def check(res):
        rec = res[0]
        columns = [tuple(tuple(col) for col in t) for t in rec["tableaux"]]
        problems = oracles.check_tableau_basis(d, k, content, columns)
        if rec["count"] != len(columns):
            problems.append(f"count {rec['count']} but {len(columns)} tableaux listed")
        return problems
    return check


def _points_with_verdict(rng, d, n, weights, want):
    """Points with one-digit coordinates, first coordinate 1, of the wanted stability."""
    while True:
        pts = [(1,) + tuple(rng.randrange(10) for _ in range(d)) for _ in range(n)]
        if want != "stable":
            # repeat points to reach the wanted verdict more often than by chance
            copies = 3 if want == "unstable" else 2
            for i in range(1, copies):
                pts[i] = pts[0]
            rng.shuffle(pts)
        if oracles.stability_verdict([tuple(map(Fraction, p)) for p in pts], weights) == want:
            return pts


class CliWorkload:
    """Runs a fixed list of CliOps through the launcher, one at a time."""

    in_process = False

    def __init__(self, name: str, ops: list[CliOp]):
        self.ops = ops
        self.launcher = Launcher(name)
        self.verified = Verified()
        self.stdout_bytes = 0
        self.launcher.run(["-m", "divfact.cli", "cover", "--r", "2", "--weights", "1,1,1,1"])

    def round(self, m: Meter) -> None:
        for i, op in enumerate(self.ops):
            reply, out, err = self.launcher.run(op.argv)
            m.child("cli." + op.command, reply)
            seen = (reply["code"], hashlib.sha256(out).digest(), err)
            problems = self.verified.problems(i, out, seen, lambda o: op.check(reply["code"], o, err))
            m.outcome(problems, known_fault=op.known_fault)
            self.stdout_bytes += len(out)

    def finish(self, m: Meter) -> None:
        self.launcher.close()


class Cli(CliWorkload):
    """Sequential `python -m divfact.cli` processes on small inputs."""

    def __init__(self, seed: int, meter: Meter):
        super().__init__("cli", cli_ops(random.Random(seed)))

    def finish(self, m: Meter) -> None:
        if m.trace:
            for name, argv in (("cli.interpreter", ["-c", "pass"]), ("cli.import", ["-c", "import divfact.cli"])):
                for _ in range(7):
                    reply, _, err = self.launcher.run(argv)
                    if reply["code"] != 0:
                        m.unexpected.append(f"{argv}: exit {reply['code']} {err[-120:]!r}")
                    m.span(name, reply["ns"])
            m.count("cli.stdout_bytes", self.stdout_bytes)
        super().finish(m)

    @staticmethod
    def layers(m: Meter) -> dict:
        out = {
            "cli.interpreter_ms": (m.p50("cli.interpreter", 1e6), "ms"),
            "cli.import_ms": (m.p50("cli.import", 1e6), "ms"),
        }
        for cmd in ("degree", "degvec", "verify-main", "factor-check", "cover", "tableaux", "semistable"):
            out[f"cli.{cmd}.p50_ms"] = (m.p50("cli." + cmd, 1e6), "ms")
        out["cli.stdout_bytes"] = (m.counts.get("cli.stdout_bytes", 0), "bytes")
        return out


# ---------------------------------------------------------------------------
# wide: a few large CLI calls


WIDE_N = 10
WIDE_DEGVEC = (("cb", 3), ("git", 4), ("cyc", 5))
WIDE_VERIFY = (4, 7)


class Wide(CliWorkload):
    """degvec of each family at n = 10, and verify-main r4 n7 on the pool."""

    def __init__(self, seed: int, meter: Meter):
        rng = random.Random(seed)
        self.degvec = [(family, r, random_weights(rng, r, WIDE_N)) for family, r in WIDE_DEGVEC]
        ops = []
        for family, r, w in self.degvec:
            params = {"family": family, "r": r, "weights": w}
            check = _report("degvec", params, lambda res, r=r, w=w: oracles.check_degree_records(r, w, res))
            ops.append(CliOp("degvec", ["--family", family, "--r", str(r), "--weights", csv(w)], check))
        r, n = WIDE_VERIFY
        ops.append(CliOp("verify-main", ["--r", str(r), "--n", str(n)],
                         _report("verify-main", {"r": r, "n": n}, _verify_main_check(r, n))))
        super().__init__("wide", ops)

    def finish(self, m: Meter) -> None:
        super().finish(m)
        if not m.trace:
            return
        # the same inputs through the API, in this fresh interpreter
        from divfact import cli
        from divfact.bundles import BundleFamily, degree_vector
        from divfact.strata import enumerate_fcurves

        t0 = perf_counter_ns()
        fcurves = enumerate_fcurves(WIDE_N)
        m.span("strata.enumerate_fcurves", perf_counter_ns() - t0)
        m.counts["strata.fcurves"] = len(fcurves)
        if len(fcurves) != oracles.count_fcurves(WIDE_N):
            m.unexpected.append(f"{len(fcurves)} F-curves at n={WIDE_N}")
        del fcurves
        for family, r, w in self.degvec:
            t0 = perf_counter_ns()
            vec = degree_vector(BundleFamily(family), r, w)
            m.span("bundles.degree_vector", perf_counter_ns() - t0)
            records = [{"fcurve": p.label(), "degree": deg} for p, deg in vec.items()]
            m.unexpected.extend(oracles.check_degree_records(r, w, records)[:1])
            del vec, records
        for family, r, w in self.degvec:
            sink = io.StringIO()
            t0 = perf_counter_ns()
            with contextlib.redirect_stdout(sink):
                code = cli.main(["degvec", "--family", family, "--r", str(r), "--weights", csv(w)])
            m.span("cli.degvec.inproc", perf_counter_ns() - t0)
            if code != 0:
                m.unexpected.append(f"in-process degvec {family}: exit {code}")

    @staticmethod
    def layers(m: Meter) -> dict:
        return {
            "strata.enumerate_fcurves.busy_s": (m.busy_s("strata.enumerate_fcurves"), "s"),
            "strata.fcurves": (m.counts.get("strata.fcurves", 0), "count"),
            "bundles.degree_vector.busy_s": (m.busy_s("bundles.degree_vector"), "s"),
            "cli.degvec.inproc_s": (m.busy_s("cli.degvec.inproc"), "s"),
            "cli.degvec.peak_rss_mb": (m.counts["cli.degvec.peak_rss_kb"] / 1024, "MB"),
            "cli.verify-main.cpu_s": (m.counts["cli.verify-main.cpu_us"] / 1e6, "s"),
        }


WORKLOADS = {"sweep": Sweep, "symbolic": Symbolic, "cli": Cli, "wide": Wide}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    meter = Meter(args.trace)
    kind = WORKLOADS[args.workload]
    workload = kind(args.seed, meter)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    # whole rounds, at least one, while the operations timed so far and those
    # of one more round (expected to take as long as the last) fit in --seconds
    timed = 0.0
    while True:
        workload.round(meter)
        last = meter.end_round(kind.in_process)
        timed += last
        if args.trace or timed + last > args.seconds:
            break
    workload.finish(meter)

    result = {
        "figures": meter.figures(),
        "attempted": meter.attempted,
        "failed": meter.failed,
        "unexpected": meter.unexpected[:5],
        "unexpected_count": len(meter.unexpected),
    }
    if args.trace:
        layers = kind.layers(meter)
        layers[f"trace.{args.workload}.run_s"] = (meter.rounds[0]["run_s"], "s")
        result["layers"] = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
