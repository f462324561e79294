"""divfact benchmark: one workload per call, one JSON result on the last line.

    python3 divbench/run.py --workload cli --seed 1 --seconds 40 --trace 0

Run it from the root of a divfact checkout; the program is imported from
src/.  Workloads: sweep, symbolic, cli, wide, or all (each in turn).

--trace 0 measures the workload: several fresh interpreters time the
set-up (setup_s is their median), then one more runs whole rounds of the
same operations for --seconds.  The timing metrics are means over the
rounds, because the host's speed varies by up to 1.7x in phases of
seconds; peak_rss_mb is the largest seen.

--trace 1 runs one traced round of every workload, each in a fresh
interpreter, and reports every per-layer metric; attempted and failed are
those of --workload.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import os
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sweep", "symbolic", "cli", "wide")
END_TO_END = (
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
SETUP_SAMPLES = 9
DEADLINE_S = 170


class Failure(Exception):
    pass


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    # verify-main sizes its pool from this variable, never from --jobs
    env["DIVFACT_WORKERS"] = str(min(2, os.cpu_count() or 1))
    return env


def start_worker(env: dict, workload: str, seed: int, seconds: float, *flags: str):
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), *flags]
    return subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env)


def finish_worker(proc, deadline: float) -> str:
    """Wait for the worker, killing it at the deadline; return the rest of its stdout."""
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    if code != 0:
        raise Failure(f"worker exited with {code}")
    return rest


def read_ready(proc, deadline: float) -> None:
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
    finally:
        timer.cancel()
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise Failure(f"worker did not get ready: {line!r}")


def last_json(text: str) -> dict:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise Failure("worker printed no result")
    return json.loads(lines[-1])


def measure(env: dict, workload: str, seed: int, seconds: float, deadline: float) -> dict:
    setup = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = start_worker(env, workload, seed, seconds, "--setup-only")
        read_ready(proc, deadline)
        setup.append(time.perf_counter() - t0)
        finish_worker(proc, deadline)
    proc = start_worker(env, workload, seed, seconds)
    read_ready(proc, deadline)
    out = last_json(finish_worker(proc, deadline))
    fig = out["figures"]
    metrics = {name: {"value": fig[name], "unit": unit} for name, unit in END_TO_END}
    metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    return {
        "correct": out["unexpected_count"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
        "rounds": fig["rounds"],
        "ops": fig["ops"],
        "tail_percentile": fig["tail_percentile"],
        "unexpected": out["unexpected"],
    }


def traced(env: dict, workload: str, seed: int, deadline: float) -> dict:
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}, "unexpected": []}
    for name in WORKLOADS:
        proc = start_worker(env, name, seed, 0, "--trace")
        read_ready(proc, deadline)
        out = last_json(finish_worker(proc, deadline))
        result["metrics"].update(out["layers"])
        result["correct"] = result["correct"] and out["unexpected_count"] == 0
        result["unexpected"] += out["unexpected"]
        if name == workload or workload == "all":
            result["attempted"] += out["attempted"]
            result["failed"] += out["failed"]
    return result


def report(name: str, res: dict) -> None:
    """Human-readable lines on stdout, before the JSON result."""
    extra = ""
    if "rounds" in res:
        extra = f", {res['rounds']} round(s) of {res['ops']} ops, tail at p{res['tail_percentile']:g}"
    print(f"[{name}] correct={res['correct']} attempted={res['attempted']} failed={res['failed']}{extra}")
    for metric, v in res["metrics"].items():
        print(f"[{name}] {metric} = {v['value']:.6g} {v['unit']}")
    for problem in res["unexpected"]:
        print(f"[{name}] unexpected: {problem}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src", "divfact")
    if not os.path.isfile(os.path.join(src, "cli.py")):
        print("divbench: src/divfact not found; run from the root of a divfact checkout",
              file=sys.stderr)
        return 2
    # the same bytecode state on every run: compiled and current
    for path in (src, HERE):
        if not compileall.compile_dir(path, maxlevels=0, quiet=1):
            print(f"divbench: could not compile {path}", file=sys.stderr)
            return 1
    env = child_env(root)
    deadline = time.monotonic() + DEADLINE_S

    try:
        if args.trace:
            res = traced(env, args.workload, args.seed, deadline)
            report("trace", res)
        elif args.workload == "all":
            res = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}, "unexpected": []}
            for name in WORKLOADS:
                one = measure(env, name, args.seed, args.seconds, time.monotonic() + DEADLINE_S)
                report(name, one)
                res["correct"] = res["correct"] and one["correct"]
                res["attempted"] += one["attempted"]
                res["failed"] += one["failed"]
                for metric, v in one["metrics"].items():
                    res["metrics"][f"{name}.{metric}"] = v
        else:
            res = measure(env, args.workload, args.seed, args.seconds, deadline)
            report(args.workload, res)
    except Failure as exc:
        print(f"divbench: {exc}", file=sys.stderr)
        return 1
    final = {key: res[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
