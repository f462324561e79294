"""Command-line interface.

Every command emits one JSON document on stdout with the shape
{command, parameters, results, status} and deterministic key order,
written in chunks as its results are produced; timing and log lines go
to stderr.  Exit codes: 0 success, 1 a verification found a mismatch or
an internal identity failed, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .bundles import (
    BundleFamily,
    check_git_factorization,
    degree_blocks,
    fcurve_degree,
    verify_main_theorem,
)
from .covers import CoverSpec, InvariantError, degenerate, genus
from .invariants import (
    PointConfiguration,
    enumerate_tableaux,
    is_semistable,
    verify_restriction_theorem,
)
from .strata import SetPartition4, induce_four_weights
from .weights import Linearization, RangeConditionError, WeightVector


class UsageError(Exception):
    def __init__(self, flag: str, message: str):
        super().__init__(f"{flag}: {message}")
        self.flag = flag


def _parse_ints(flag: str, text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(flag, f"expected comma-separated integers, got {text!r}")
    if not values:
        raise UsageError(flag, "empty list")
    return values


def _parse_rationals(flag: str, text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(part) for part in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise UsageError(flag, f"expected comma-separated rationals, got {text!r}")


def _parse_partition(flag: str, text: str, n: int) -> SetPartition4:
    blocks = []
    for part in text.split("/"):
        if not part:
            raise UsageError(flag, "empty block")
        blocks.append(frozenset(_parse_ints(flag, part)))
    if len(blocks) != 4:
        raise UsageError(flag, f"expected 4 blocks, got {len(blocks)}")
    try:
        return SetPartition4(n, tuple(blocks))
    except ValueError as exc:
        raise UsageError(flag, str(exc))


def _parse_points(flag: str, text: str, d: int) -> PointConfiguration:
    columns = []
    for chunk in text.split(";"):
        if not chunk:
            raise UsageError(flag, "empty point")
        columns.append(_parse_rationals(flag, chunk))
    try:
        return PointConfiguration(d, tuple(columns))
    except ValueError as exc:
        raise UsageError(flag, str(exc))


def _at_least(flag: str, value: int, lowest: int) -> None:
    if value < lowest:
        raise UsageError(flag, f"need {flag[2:]} >= {lowest}, got {value}")


def _between(flag: str, value: int, lowest: int, highest: int) -> None:
    if not lowest <= value <= highest:
        raise UsageError(
            flag, f"need {lowest} <= {flag[2:]} <= {highest}, got {value}"
        )


def _family(flag: str, name: str) -> BundleFamily:
    try:
        return BundleFamily(name.lower())
    except ValueError:
        raise UsageError(flag, f"unknown family {name!r}; choose cb, git, or cyc")


_CHUNK = 1 << 16  # characters of output per write to stdout


def _emit(report: dict, table: bool) -> None:
    """Write the report to stdout, its results in chunks as they come.

    The text is json.dumps(report, sort_keys=True, indent=2) or the
    --table rendering, and a final newline.  report["results"] may be any
    iterable; a record is a dict, or a string already rendered for the
    chosen format (degvec renders its own, several records to a string).
    """
    records = report["results"]
    if table:
        params = report["parameters"]
        head = f"command: {report['command']}\n" + "".join(
            f"  {key} = {params[key]}\n" for key in sorted(params)
        )
        body: Iterable[str] = (
            (rec if isinstance(rec, str) else "  ".join(f"{k}={rec[k]}" for k in sorted(rec)))
            + "\n"
            for rec in records
        )
        tail = f"status: {report['status']}\n"
    else:
        text = json.dumps({**report, "results": []}, sort_keys=True, indent=2)
        head, _, tail = text.partition('"results": []')
        head += '"results": '
        body = _json_list(records)
        tail += "\n"
    out = sys.stdout
    chunk, size = [head], 0
    for piece in body:
        chunk.append(piece)
        size += len(piece)
        if size >= _CHUNK:
            out.write("".join(chunk))
            chunk, size = [], 0
    chunk.append(tail)
    out.write("".join(chunk))


def _json_list(records: Iterable) -> Iterator[str]:
    """The results list as json.dumps(report, indent=2) writes it."""
    lead = "["
    for record in records:
        if not isinstance(record, str):
            record = json.dumps(record, sort_keys=True, indent=2).replace("\n", "\n    ")
        yield lead + "\n    " + record
        lead = ","
    yield "]" if lead == "[" else "\n  ]"


# one degvec record {"degree": d, "fcurve": label} as _emit renders it: % puts
# in the degree's field number and the texts a completion adds to the blocks,
# then str.format the prefix's block texts {0}..{3} and the degree.  Labels
# hold only digits, commas and slashes, which JSON keeps as is
_DEGVEC_JSON = '{{\n      "degree": {%d},\n      "fcurve": "{0}%s/{1}%s/{2}%s/{3}%s"\n    }}'
_DEGVEC_TABLE = "degree={%d}  fcurve={0}%s/{1}%s/{2}%s/{3}%s"


def _cmd_degree(args) -> tuple[dict, int]:
    _at_least("--r", args.r, 1)
    family = _family("--family", args.family)
    weights = _parse_ints("--weights", args.weights)
    partition = _parse_partition("--partition", args.partition, len(weights))
    deg = fcurve_degree(family, args.r, weights, partition)
    if sum(weights) % args.r == 0:
        wv = WeightVector(args.r, tuple(w % args.r for w in weights))
        induced = list(induce_four_weights(wv, partition))
    else:
        induced = None
    report = {
        "command": "degree",
        "parameters": {
            "family": family.value,
            "r": args.r,
            "weights": list(weights),
            "partition": partition.label(),
        },
        "results": [{"degree": deg, "induced_weights": induced}],
        "status": "ok",
    }
    return report, 0


def _cmd_degvec(args) -> tuple[dict, int]:
    _at_least("--r", args.r, 1)
    family = _family("--family", args.family)
    weights = _parse_ints("--weights", args.weights)
    if len(weights) < 4:
        raise UsageError("--weights", "need at least 4 marked points")
    plan, blocks = degree_blocks(family, args.r, weights)
    # all records of one prefix come from one template, its degrees {4}, {5}, ...
    record, sep = (_DEGVEC_TABLE, "\n") if args.table else (_DEGVEC_JSON, ",\n    ")
    templates = {
        used: sep.join(record % (4 + j, *tail) for j, (tail, _) in enumerate(rows))
        for used, rows in plan.items()
    }
    results = (templates[used].format(*texts, *degrees) for used, texts, degrees in blocks)
    report = {
        "command": "degvec",
        "parameters": {"family": family.value, "r": args.r, "weights": list(weights)},
        "results": results,
        "status": "ok",
    }
    return report, 0


def _cmd_verify_main(args) -> tuple[dict, int]:
    _at_least("--r", args.r, 2)
    _at_least("--n", args.n, 4)
    start = time.perf_counter()
    outcome = verify_main_theorem(args.r, args.n)
    elapsed = time.perf_counter() - start
    print(
        f"verify-main: {outcome.vectors_checked} vectors x "
        f"{outcome.fcurves_per_vector} F-curves in {elapsed:.2f}s",
        file=sys.stderr,
    )
    mismatches = [
        {
            "weights": list(m.c),
            "fcurve": m.partition.label(),
            "cb": m.cb,
            "git": m.git,
            "cyc": m.cyc,
        }
        for m in outcome.mismatches
    ]
    report = {
        "command": "verify-main",
        "parameters": {"r": args.r, "n": args.n},
        "results": [
            {
                "vectors_checked": outcome.vectors_checked,
                "fcurves_per_vector": outcome.fcurves_per_vector,
                "mismatches": mismatches,
            }
        ],
        "status": "ok" if outcome.ok else "mismatch",
    }
    return report, 0 if outcome.ok else 1


def _cmd_factor_check(args) -> tuple[dict, int]:
    _at_least("--r", args.r, 1)
    weights = _parse_ints("--weights", args.weights)
    cut = _parse_ints("--cut", args.cut)
    n = len(weights)
    if not 2 <= len(set(cut)) <= n - 2:
        raise UsageError("--cut", f"cut size must lie between 2 and n-2 = {n - 2}")
    if any(i < 1 or i > n for i in cut):
        raise UsageError("--cut", f"cut indices must lie in 1..{n}")
    consistent = check_git_factorization(args.r, weights, cut)
    report = {
        "command": "factor-check",
        "parameters": {
            "r": args.r,
            "weights": list(weights),
            "cut": sorted(set(cut)),
        },
        "results": [{"consistent": consistent}],
        "status": "ok" if consistent else "mismatch",
    }
    return report, 0 if consistent else 1


def _cmd_cover(args) -> tuple[dict, int]:
    _at_least("--r", args.r, 2)
    weights = _parse_ints("--weights", args.weights)
    try:
        spec = CoverSpec(args.r, weights)
    except ValueError as exc:
        raise UsageError("--weights", str(exc))
    if args.split is None:
        g = genus(spec)
        results = [{"genus": g}]
    else:
        _between("--split", args.split, 2, spec.n - 2)
        data = degenerate(spec, args.split)
        results = [
            {
                "c_prime": list(data.c_prime),
                "c_double_prime": list(data.c_double_prime),
                "s": data.s,
                "g": data.g,
                "g1": data.g1,
                "g2": data.g2,
            }
        ]
    report = {
        "command": "cover",
        "parameters": {"r": args.r, "weights": list(weights), "split": args.split},
        "results": results,
        "status": "ok",
    }
    return report, 0


def _cmd_tableaux(args) -> tuple[dict, int]:
    _at_least("--d", args.d, 0)
    _at_least("--k", args.k, 1 if args.restrict else 0)
    content = _parse_ints("--content", args.content)
    for x in content:
        _at_least("--content", x, 0)
    if sum(content) != args.k * (args.d + 1):
        raise UsageError(
            "--content",
            f"content sums to {sum(content)}, expected k*(d+1) = {args.k * (args.d + 1)}",
        )
    if args.restrict:
        if args.n1 is None or args.d1 is None:
            raise UsageError("--restrict", "requires --n1 and --d1")
        n = len(content)
        _between("--n1", args.n1, 2, n - 2)
        _between("--d1", args.d1, 1, args.d - 1)
        try:
            c = Linearization(
                tuple(Fraction(x, args.k) for x in content), args.d
            )
        except ValueError as exc:
            raise UsageError("--content", str(exc))
        try:
            outcome = verify_restriction_theorem(
                args.d1, args.d - args.d1, args.n1, n - args.n1, c, args.k
            )
        except RangeConditionError as exc:
            raise UsageError("--n1", str(exc))
        results = [
            {
                "alpha": outcome.alpha,
                "beta": outcome.beta,
                "dim_ambient": outcome.dim_ambient,
                "dim_left": outcome.dim_left,
                "dim_right": outcome.dim_right,
                "decomposable": outcome.decomposable,
                "zero_restrictions": outcome.zero_restrictions,
                "nonbasis_images": outcome.nonbasis_images,
                "surjective": outcome.surjective,
                "failures": outcome.failures,
            }
        ]
        status = "ok" if outcome.ok else "mismatch"
        code = 0 if outcome.ok else 1
    else:
        basis = enumerate_tableaux(args.d, args.k, content)
        results = [
            {
                "count": len(basis),
                "tableaux": [[list(col) for col in t.columns] for t in basis],
            }
        ]
        status = "ok"
        code = 0
    report = {
        "command": "tableaux",
        "parameters": {
            "d": args.d,
            "k": args.k,
            "content": list(content),
            "restrict": bool(args.restrict),
            "n1": args.n1,
            "d1": args.d1,
        },
        "results": results,
        "status": status,
    }
    return report, code


def _cmd_semistable(args) -> tuple[dict, int]:
    _at_least("--d", args.d, 1)
    weights = _parse_rationals("--weights", args.weights)
    try:
        c = Linearization(weights, args.d)
    except ValueError as exc:
        raise UsageError("--weights", str(exc))
    cfg = _parse_points("--points", args.points, args.d)
    if cfg.n != c.n:
        raise UsageError("--points", f"{cfg.n} points but {c.n} weights")
    verdict = is_semistable(cfg, c)
    report = {
        "command": "semistable",
        "parameters": {
            "d": args.d,
            "weights": [str(w) for w in weights],
            "points": [[str(x) for x in p] for p in cfg.points],
        },
        "results": [{"stability": verdict.value}],
        "status": "ok",
    }
    return report, 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divfact",
        description="Exact degree and invariant computations for weighted "
        "bundles on moduli of pointed rational curves.",
    )
    parser.add_argument("--table", action="store_true", help="human-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("degree", help="degree of one family on one F-curve")
    p.add_argument("--family", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--partition", required=True)
    p.set_defaults(handler=_cmd_degree)

    p = sub.add_parser("degvec", help="full degree vector of one family")
    p.add_argument("--family", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--weights", required=True)
    p.set_defaults(handler=_cmd_degvec)

    p = sub.add_parser("verify-main", help="exhaustive three-family comparison")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_verify_main)

    p = sub.add_parser("factor-check", help="GIT factorization along one cut")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--cut", required=True)
    p.set_defaults(handler=_cmd_factor_check)

    p = sub.add_parser("cover", help="cyclic cover genus and degeneration data")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--split", type=int, default=None)
    p.set_defaults(handler=_cmd_cover)

    p = sub.add_parser("tableaux", help="tableau basis and restriction check")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--content", required=True)
    p.add_argument("--restrict", action="store_true")
    p.add_argument("--n1", type=int, default=None)
    p.add_argument("--d1", type=int, default=None)
    p.set_defaults(handler=_cmd_tableaux)

    p = sub.add_parser("semistable", help="classify a weighted configuration")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--points", required=True)
    p.set_defaults(handler=_cmd_semistable)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for key, value in vars(args).items():
            if isinstance(value, list):  # argparse makes "--flag=--" an empty list
                raise UsageError(f"--{key}", "expected a value, got '--'")
        report, code = args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    _emit(report, args.table)
    return code


if __name__ == "__main__":
    sys.exit(main())
