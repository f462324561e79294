"""Command-line interface.

Every command emits one JSON document on stdout with the shape
{command, parameters, results, status} and deterministic key order,
written as its results are produced; timing and log lines go to stderr.
A command's handler returns (parameters, results, ok), and main() alone
turns ok into the status and the exit code.  Exit codes: 0 success, 1 a
verification found a mismatch or an internal identity failed, 2 usage or
parse error, 141 stdout closed before the report or the help text was
written.  run() is the command as a process: main(), a flush, and
os._exit without the interpreter's teardown.

A process imports only what its command runs: the flags are read from one
table (no `argparse`), the report is written by a small JSON writer (no
`json`), `fractions` loads only where a rational is parsed, and
`divfact.invariants` only for `tableaux` and `semistable`.
"""

from __future__ import annotations

import sys
import time
import warnings
from itertools import chain
from types import SimpleNamespace

from .bundles import (
    BundleFamily,
    check_git_factorization,
    degree_blocks,
    fcurve_degree,
    verify_main_theorem,
)
from .covers import CoverSpec, DisconnectedCoverWarning, InvariantError, degenerate, genus
from .records import at_least, between
from .strata import BoundaryCut, SetPartition4, block_sums, count_fcurves
from .weights import Linearization, RangeConditionError

# annotations only: `typing` (with `re`) is not imported when the program runs
TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction
    from typing import Callable, Iterable, Iterator, Sequence, TypeVar

    from .invariants import PointConfiguration
    T = TypeVar("T")


class UsageError(Exception):
    def __init__(self, flag: str, message: str):
        super().__init__(f"{flag}: {message}")
        self.flag = flag


def _blamed(flag: str, make: Callable[..., T], *args) -> T:
    """make(*args), a ValueError it raises reported as the user's error on flag."""
    try:
        return make(*args)
    except ValueError as exc:
        raise UsageError(flag, str(exc))


def _parse_ints(flag: str, text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(flag, f"expected comma-separated integers, got {text!r}")


def _parse_rationals(flag: str, text: str) -> tuple[Fraction, ...]:
    from fractions import Fraction

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
    return _blamed(flag, SetPartition4, n, tuple(blocks))


def _parse_points(flag: str, text: str, d: int) -> PointConfiguration:
    from .invariants import PointConfiguration

    columns = []
    for chunk in text.split(";"):
        if not chunk:
            raise UsageError(flag, "empty point")
        columns.append(_parse_rationals(flag, chunk))
    return _blamed(flag, PointConfiguration, d, tuple(columns))


# the most digits this Python prints an int with (from 3.10.7 and 3.11; 0 is no limit)
_max_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _too_long(value: int, limit: int) -> bool:
    """value has more than limit > 0 digits.  2**(3.32 * limit) < 10**limit <
    2**(3.33 * limit), so 10**limit is built only for a value near it."""
    return value.bit_length() > 3.32 * limit and value >= 10**limit


def _printable_counts(r: int, n: int) -> None:
    """Refuse an n whose counts, r**(n-1) vectors and S(n, 4) F-curves, have
    more digits than this Python prints, before anything of size n is built."""
    limit = _max_digits()
    # the lower bounds r**(n-1) >= 2**((r.bit_length() - 1) * (n-1)) and
    # S(n, 4) >= 4**(n-4) (each of the points 5..n may join any block of 1, 2,
    # 3 and 4) refuse a large n unbuilt
    if limit and (
        max((r.bit_length() - 1) * (n - 1), 2 * (n - 4)) > 3.33 * limit
        or _too_long(r ** (n - 1), limit)
        or _too_long(count_fcurves(n), limit)
    ):
        raise UsageError(
            "--n", f"at r={r} and n={n}, r**(n-1) or S(n, 4) has more than {limit} digits,"
            " the most this Python prints (sys.get_int_max_str_digits())"
        )


def _printable_genera(*genera: int) -> None:
    """Refuse an r at which a genus has more digits than this Python prints.
    r and the weights were read from text, so they print, and so does a
    negative genus, which is at least 1 - r."""
    limit = _max_digits()
    if limit and any(_too_long(g, limit) for g in genera):
        raise UsageError(
            "--r", f"a genus at this r has more than {limit} digits,"
            " the most this Python prints (sys.get_int_max_str_digits())"
        )


def _family(flag: str, name: str) -> BundleFamily:
    try:
        return BundleFamily(name.lower())
    except ValueError:
        raise UsageError(flag, f"unknown family {name!r}; choose cb, git, or cyc")


def _emit(report: dict, table: bool) -> None:
    """Write the report to stdout, its results as they come.

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
        text = _json({**report, "results": []})
        head, _, tail = text.partition('"results": []')
        head += '"results": '
        body = _json_list(records)
        tail += "\n"
    write = sys.stdout.write  # its text layer buffers the small pieces
    write(head)
    for piece in body:
        write(piece)
    write(tail)


def _json_list(records: Iterable) -> Iterator[str]:
    """The results list as json.dumps(report, indent=2) writes it."""
    lead = "["
    for record in records:
        if not isinstance(record, str):
            record = _json(record, "\n    ")
        yield lead + "\n    " + record
        lead = ","
    yield "]" if lead == "[" else "\n  ]"


def _json(value: object, indent: str = "\n") -> str:
    """json.dumps(value, sort_keys=True, indent=2), the value nested at `indent`
    (a newline and its spaces).  Takes dicts with str keys, lists, tuples, str,
    int, bool and None, and raises TypeError on any other type."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, str):
        return _json_string(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        if not all(isinstance(key, str) for key in value):
            raise TypeError("JSON object keys must be str")
        items = (f"{_json_string(key)}: {_json(value[key], inner)}" for key in sorted(value))
        opening, closing = "{", "}"
    elif isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = (_json(item, inner) for item in value)
        opening, closing = "[", "]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return opening + inner + ("," + inner).join(items) + indent + closing


_ESCAPES = {'"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _json_string(text: str) -> str:
    """A JSON string as json.dumps writes it with ensure_ascii: printable ASCII as
    is, other characters as \\uXXXX, above U+FFFF as a surrogate pair."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    out = []
    for ch in text:
        code = ord(ch)
        if ch in _ESCAPES:
            out.append(_ESCAPES[ch])
        elif 0x20 <= code < 0x7F:
            out.append(ch)
        elif code > 0xFFFF:
            code -= 0x10000
            out.append("\\u%04x\\u%04x" % (0xD800 | code >> 10, 0xDC00 | code & 0x3FF))
        else:
            out.append("\\u%04x" % code)
    return '"' + "".join(out) + '"'


# one degvec record {"degree": d, "fcurve": label} as _emit renders it: a first
# % puts in the texts a completion adds to the blocks and leaves a %d for the
# degree; each prefix then fills the %d slots with its degrees and replaces the
# markers \0..\3 with its four block texts.  Labels hold only digits, commas
# and slashes, which JSON keeps as is, so no text can hold a marker or a %
_DEGVEC_JSON = '{\n      "degree": %%d,\n      "fcurve": "\0%s/\1%s/\2%s/\3%s"\n    }'
_DEGVEC_TABLE = "degree=%%d  fcurve=\0%s/\1%s/\2%s/\3%s"


def _cmd_degree(args) -> tuple[dict, list, bool]:
    _blamed("--r", at_least, "r", args.r, 1)
    family = _family("--family", args.family)
    weights = _parse_ints("--weights", args.weights)
    _blamed("--weights", at_least, "n", len(weights), 4)
    partition = _parse_partition("--partition", args.partition, len(weights))
    deg = fcurve_degree(family, args.r, weights, partition)
    divisible = sum(weights) % args.r == 0
    induced = list(block_sums(args.r, weights, partition.blocks)) if divisible else None
    parameters = {
        "family": family.value,
        "r": args.r,
        "weights": list(weights),
        "partition": partition.label(),
    }
    return parameters, [{"degree": deg, "induced_weights": induced}], True


def _first(records: Iterator[str]) -> str:
    """The first record, from as deep a stack as _emit's body pulls the rest:
    a walk nests one frame per point, and its first descent is its deepest."""
    return next(records)


def _cmd_degvec(args) -> tuple[dict, Iterator[str], bool]:
    _blamed("--r", at_least, "r", args.r, 1)
    family = _family("--family", args.family)
    weights = _parse_ints("--weights", args.weights)
    _blamed("--weights", at_least, "n", len(weights), 4)
    plan, blocks = degree_blocks(family, args.r, weights)
    # all records of one prefix come from one template, one %d per degree
    record, sep = (_DEGVEC_TABLE, "\n") if args.table else (_DEGVEC_JSON, ",\n    ")
    templates = {used: sep.join(record % tail for tail, _ in rows) for used, rows in plan.items()}
    results = (
        (templates[used] % degrees)
        .replace("\0", a).replace("\1", b).replace("\2", c).replace("\3", d)
        for used, (a, b, c, d), degrees in blocks
    )
    try:  # decided before any of the report is written
        results = chain((_first(results),), results)
    except RecursionError:
        raise UsageError("--weights", f"{len(weights)} marked points nest the F-curve walk"
                         f" deeper than this Python's recursion limit ({sys.getrecursionlimit()})")
    return {"family": family.value, "r": args.r, "weights": list(weights)}, results, True


def _cmd_verify_main(args) -> tuple[dict, list, bool]:
    _blamed("--r", at_least, "r", args.r, 2)
    _blamed("--n", at_least, "n", args.n, 4)
    _printable_counts(args.r, args.n)
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
    results = [
        {
            "vectors_checked": outcome.vectors_checked,
            "fcurves_per_vector": outcome.fcurves_per_vector,
            "mismatches": mismatches,
        }
    ]
    return {"r": args.r, "n": args.n}, results, outcome.ok


def _cmd_factor_check(args) -> tuple[dict, list, bool]:
    _blamed("--r", at_least, "r", args.r, 1)
    weights = _parse_ints("--weights", args.weights)
    _blamed("--weights", at_least, "n", len(weights), 4)
    cut = _parse_ints("--cut", args.cut)
    _blamed("--cut", BoundaryCut, len(weights), cut)
    consistent = check_git_factorization(args.r, weights, cut)
    parameters = {"r": args.r, "weights": list(weights), "cut": sorted(set(cut))}
    return parameters, [{"consistent": consistent}], consistent


def _cmd_cover(args) -> tuple[dict, list, bool]:
    _blamed("--r", at_least, "r", args.r, 2)
    weights = _parse_ints("--weights", args.weights)
    spec = _blamed("--weights", CoverSpec, args.r, weights)
    if args.split is None:
        # recorded, not shown: the default display prints this file's path
        # and source line, and loads linecache, tokenize and re to do so
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", DisconnectedCoverWarning)
            g = genus(spec)
        _printable_genera(g)
        for warning in caught:
            print(f"warning: {warning.message}", file=sys.stderr)
        results = [{"genus": g}]
    else:
        _blamed("--weights", at_least, "n", len(weights), 4)
        _blamed("--split", between, "split", args.split, 2, spec.n - 2)
        data = degenerate(spec, args.split)
        _printable_genera(data.g, data.g1, data.g2)
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
    return {"r": args.r, "weights": list(weights), "split": args.split}, results, True


def _cmd_tableaux(args) -> tuple[dict, list, bool]:
    _blamed("--d", at_least, "d", args.d, 0)
    _blamed("--k", at_least, "k", args.k, 1 if args.restrict else 0)
    content = _parse_ints("--content", args.content)
    from .invariants import check_content, enumerate_tableaux, verify_restriction_theorem

    _blamed("--content", check_content, args.d, args.k, content)
    if args.restrict:
        if args.n1 is None or args.d1 is None:
            raise UsageError("--restrict", "requires --n1 and --d1")
        n = len(content)
        _blamed("--n1", between, "n1", args.n1, 2, n - 2)
        _blamed("--d1", between, "d1", args.d1, 1, args.d - 1)
        from fractions import Fraction

        c = _blamed("--content", Linearization, [Fraction(x, args.k) for x in content], args.d)
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
        ok = outcome.ok
    else:
        basis = enumerate_tableaux(args.d, args.k, content)
        results = [
            {
                "count": len(basis),
                "tableaux": [[list(col) for col in t.columns] for t in basis],
            }
        ]
        ok = True
    parameters = {
        "d": args.d,
        "k": args.k,
        "content": list(content),
        "restrict": bool(args.restrict),
        "n1": args.n1,
        "d1": args.d1,
    }
    return parameters, results, ok


def _cmd_semistable(args) -> tuple[dict, list, bool]:
    _blamed("--d", at_least, "d", args.d, 1)
    from .invariants import is_semistable

    weights = _parse_rationals("--weights", args.weights)
    c = _blamed("--weights", Linearization, weights, args.d)
    cfg = _parse_points("--points", args.points, args.d)
    verdict = _blamed("--points", is_semistable, cfg, c)
    parameters = {
        "d": args.d,
        "weights": [str(w) for w in weights],
        "points": [[str(x) for x in p] for p in cfg.points],
    }
    return parameters, [{"stability": verdict.value}], True


# the kinds of flag: a required integer or text, an optional integer
# (None when not given) and a switch (False when not given)
_INT, _TEXT, _OPTIONAL_INT, _SWITCH = "N", "TEXT", "[N]", "switch"

# each command's handler, its help line and its flags (name: kind)
_COMMANDS = {
    "degree": (
        _cmd_degree,
        "degree of one family on one F-curve",
        {"family": _TEXT, "r": _INT, "weights": _TEXT, "partition": _TEXT},
    ),
    "degvec": (
        _cmd_degvec,
        "full degree vector of one family",
        {"family": _TEXT, "r": _INT, "weights": _TEXT},
    ),
    "verify-main": (
        _cmd_verify_main,
        "exhaustive three-family comparison",
        {"r": _INT, "n": _INT},
    ),
    "factor-check": (
        _cmd_factor_check,
        "GIT factorization along one cut",
        {"r": _INT, "weights": _TEXT, "cut": _TEXT},
    ),
    "cover": (
        _cmd_cover,
        "cyclic cover genus and degeneration data",
        {"r": _INT, "weights": _TEXT, "split": _OPTIONAL_INT},
    ),
    "tableaux": (
        _cmd_tableaux,
        "tableau basis and restriction check",
        {"d": _INT, "k": _INT, "content": _TEXT, "restrict": _SWITCH, "n1": _OPTIONAL_INT, "d1": _OPTIONAL_INT},
    ),
    "semistable": (
        _cmd_semistable,
        "classify a weighted configuration",
        {"d": _INT, "weights": _TEXT, "points": _TEXT},
    ),
}

class _Help(Exception):
    """-h or --help was given: the usage text to print."""


def _signature(flags: dict[str, str]) -> str:
    return " ".join(
        f"--{name} {kind}" if kind in (_INT, _TEXT)
        else f"[--{name} N]" if kind is _OPTIONAL_INT
        else f"[--{name}]"
        for name, kind in flags.items()
    )


def _usage(command: str | None = None) -> str:
    if command is not None:
        _, summary, flags = _COMMANDS[command]
        return f"usage: divfact [--table] {command} {_signature(flags)}\n\n{summary}\n"
    lines = [
        "usage: divfact [--table] COMMAND FLAGS",
        "",
        "Exact degree and invariant computations for weighted bundles on moduli of",
        "pointed rational curves.  Each command writes one JSON report on stdout;",
        "--table writes it as plain text.  A flag may be shortened to any prefix",
        "no other flag of its command shares.",
        "",
        "commands:",
    ]
    for name, (_, summary, flags) in _COMMANDS.items():
        lines += [f"  {name:<13} {summary}", f"  {'':<13} {_signature(flags)}"]
    lines += ["", "exit codes: 0 ok, 1 mismatch, 2 usage error, 141 stdout closed early"]
    return "\n".join(lines) + "\n"


def _negative_number(token: str) -> bool:
    """-D+ or -D*.D+ in decimal digits, before at most one final newline."""
    body = token[1:-1] if token.endswith("\n") else token[1:]
    whole, dot, fraction = body.partition(".")
    if not dot:
        return whole.isdecimal()
    return (not whole or whole.isdecimal()) and fraction.isdecimal()


def _option(token: str, names: Sequence[str]) -> tuple[str | None, str | None] | None:
    """One argument read as argparse reads it: None for a value, else the flag
    it names (None if it names none) and the text after its '=' (None if none).

    A flag is named exactly or by a prefix of it that no other flag shares;
    text glued to -h is its text.  A negative number, or text holding a
    space, is a value."""
    if token[:1] != "-" or token == "-":
        return None
    if token in names:
        return token, None
    head, eq, tail = token.partition("=")
    if eq and head in names:
        return head, tail
    if token == "--":
        return None, None
    if token[1] == "-":
        found = [name for name in names if name.startswith(head)]
        text = tail if eq else None
    else:
        found = ["-h"] if token[1] == "h" else []
        text = token[2:]
    if len(found) > 1:
        raise UsageError(head, f"ambiguous: could be {', '.join(found)}")
    if found:
        return found[0], text
    if _negative_number(token) or " " in token:
        return None
    return None, None


def _read(
    tokens: list[str], flags: dict[str, str], late: list[UsageError], command: str | None = None
) -> tuple[dict, int]:
    """One level's flags, one value each, and the index where the read
    stopped: at the command for the top level (command None), else at the end.

    Raises _Help and UsageError as _parse does, a missing required flag
    included; an unknown flag or a stray value goes to late."""
    names = ("-h", "--help", *(f"--{name}" for name in flags))
    # every argument is read before any is acted on: an ambiguous one fails first
    for token in tokens[: tokens.index("--") if "--" in tokens else len(tokens)]:
        _option(token, names)
    values = {name: False if kind is _SWITCH else None for name, kind in flags.items()}
    given = set()
    blame = command  # a stray value is reported against the flag before it
    i = 0
    while i < len(tokens):
        token = tokens[i]
        i += 1
        option = _option(token, names)
        if option is None:
            if command is None:
                return values, i - 1
            late.append(UsageError(blame, f"unexpected argument {token!r}"))
            continue
        flag, text = option
        if flag is None:
            known = (f"{command} takes {', '.join(names[2:])}" if command is not None
                     else "only --table comes before the command")
            late.append(UsageError(token.partition("=")[0], f"unknown flag; {known}"))
            continue
        name = flag[2:]
        kind = flags.get(name, _SWITCH)  # -h and --help are switches too
        if text is not None and kind is _SWITCH:
            raise UsageError(flag, f"takes no value, got {text!r}")
        if name not in flags:
            raise _Help(_usage(command))
        given.add(name)
        blame = flag
        if kind is _SWITCH:
            values[name] = True
            continue
        if text is None:
            if i == len(tokens) or _option(tokens[i], names) is not None:
                raise UsageError(flag, "expected a value")
            text = tokens[i]
            i += 1
        if kind is _TEXT or text == "--":  # "--" is refused below, once all is read
            values[name] = text
        else:
            try:
                values[name] = int(text)
            except ValueError:
                raise UsageError(flag, f"expected an integer, got {text!r}")
    for name, kind in flags.items():
        if kind in (_INT, _TEXT) and name not in given:
            raise UsageError(f"--{name}", "required")
    return values, i


def _parse(argv: list[str]) -> SimpleNamespace:
    """The command and its flags, as the namespace {table, command, handler,
    and one attribute per flag}.

    Raises _Help for -h or --help, and UsageError for the flag at fault.  An
    unknown flag or a stray value is reported only once every argument is
    read, after a missing required flag, so a later --help still prints help.
    """
    late: list[UsageError] = []
    top, at = _read(argv, {"table": _SWITCH}, late)
    if at == len(argv):
        raise UsageError("command", f"missing; choose {', '.join(_COMMANDS)}")
    command = argv[at]
    if command not in _COMMANDS:
        raise UsageError("command", f"unknown command {command!r}; choose {', '.join(_COMMANDS)}")
    handler, _, flags = _COMMANDS[command]
    values, _ = _read(argv[at + 1 :], flags, late, command)
    if late:
        raise late[0]
    for name, value in values.items():
        if value == "--":
            raise UsageError(f"--{name}", "expected a value, got '--'")
    return SimpleNamespace(table=top["table"], command=command, handler=handler, **values)


def main(argv: Sequence[str] | None = None) -> int:
    help_text = None
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        parameters, results, ok = args.handler(args)
        report = {
            "command": args.command,
            "parameters": parameters,
            "results": results,
            "status": "ok" if ok else "mismatch",
        }
        code = 0 if ok else 1
    except _Help as request:
        help_text, code = str(request), 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    try:
        if help_text is None:
            _emit(report, args.table)
        else:
            sys.stdout.write(help_text)
        sys.stdout.flush()
    except BrokenPipeError:
        return _stdout_closed()
    return code


def _stdout_closed() -> int:
    """The reader has gone: leave no traceback, and point stdout at devnull so
    no later flush can fail again; 141 = 128 + SIGPIPE."""
    import os

    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 141


def run() -> None:
    """The `divfact` command as a whole process: main(), then end at once.

    Once stdout and stderr are flushed nothing is left to do, so the process
    ends with os._exit and skips the interpreter's teardown, which costs about
    10 ms, most of it unloading what `site` imported.  divfact registers no
    atexit handler and leaves no thread, child process or open file behind.
    If main() raises, the exception ends the process as usual."""
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = _stdout_closed()
    sys.stderr.flush()
    import os  # already loaded by `site`; under -S only this process pays

    os._exit(code)


if __name__ == "__main__":
    run()
