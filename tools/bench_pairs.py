"""Compare two commits with the unchanged benchmark harness; write a BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --out BENCH_12.json \\
        --change-note "what the change does" [--work DIR]

Run it from the root of a divfact checkout.  --change . takes the working
tree as it is (tracked and untracked files that git does not ignore).
Each side is exported to its own clean directory under --work (a new
temporary directory if not given), and every benchmark run starts there.
The workloads and S, the run length, are read from BENCHMARK.json:

- per workload, 10 runs of each side of
  `python3 divbench/run.py --workload W --seed i --seconds S --trace 0`,
  seeds 0-9, alternating which side runs first (the parent on even
  seeds); medians, quartiles (statistics.quantiles, n=4) and every run;
- two traced pairs, `--trace 1` with seeds 0 (parent first) and 1
  (change first), which report every per-layer metric;
- the sha256 of stdout and of stderr (verify-main's elapsed time masked)
  and the exit code of one fresh `python3 -m divfact.cli` process per
  argv, on both sides, with stdout block-buffered (PYTHONUNBUFFERED
  unset): the `cli` and `wide` argvs of seeds 0 and 7 as
  divbench/worker.py makes them, README's usage examples, degvec at
  n = 11 and 12 and the too-few-weights cases, each with and without
  --table;
- per process, 20 interleaved rounds (parent first on even rounds) of
  `-c pass`, `-c "import divfact.cli"`, each `wide` argv of seed 0 and the
  degvec argvs of `cli` seed 0, compiled and in the environment
  divbench/run.py gives its processes, each spawned and reaped with
  os.wait4 as divbench/launcher.py does; the median wall and CPU time of
  each, and the median and quartiles of the per-round paired difference
  (change - parent, in ms).  `-c pass` runs no divfact code and is the
  control: its paired differences are the host's drift alone.  An argv's
  gap counts only when the median of its paired differences exceeds the
  control's spread, the distance between the control's quartiles.

Standard library only.  Nothing is written outside --work and --out.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib
import io
import json
import os
import platform
import random
import re
import shlex
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

PAIRS = 10
ROUNDS = 20
SIDES = ("parent", "change")
CONTROL = ["-c", "pass"]
VERIFY_MAIN_TIME = re.compile(rb" in \d+\.\d\ds\n")


def export(rev: str, dest: str) -> None:
    """A clean copy of rev (or of the working tree, for ".") in dest."""
    os.makedirs(dest)
    if rev != ".":
        data = subprocess.run(["git", "archive", rev], check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(data)) as tar:
            tar.extractall(dest)
        return
    listed = subprocess.run(["git", "ls-files", "-z", "-co", "--exclude-standard"],
                            check=True, capture_output=True).stdout
    for path in filter(None, listed.decode().split("\0")):
        if os.path.isfile(path):
            os.makedirs(os.path.join(dest, os.path.dirname(path)), exist_ok=True)
            shutil.copy2(path, os.path.join(dest, path))


def bench(tree: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "divbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{tree}: {' '.join(argv[1:])} exited {done.returncode}: {done.stderr[-400:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return {"median": round(statistics.median(runs), 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def pairs(trees: dict, workload: str, seconds: float) -> dict:
    results = {side: [] for side in SIDES}
    for seed in range(PAIRS):
        order = SIDES if seed % 2 == 0 else SIDES[::-1]
        for side in order:
            res = bench(trees[side], workload, seed, seconds, 0)
            results[side].append(res)
            print(f"{workload} seed {seed} {side}: run_s {res['metrics']['run_s']['value']:.4f}",
                  file=sys.stderr, flush=True)
    metrics = {}
    for name, first in results["parent"][0]["metrics"].items():
        runs = {side: [round(r["metrics"][name]["value"], 4) for r in results[side]] for side in SIDES}
        metrics[name] = {
            "unit": first["unit"],
            "parent": summary(runs["parent"]),
            "change": summary(runs["change"]),
            "change_lower_in_pairs": sum(c < p for p, c in zip(runs["parent"], runs["change"])),
            "parent_runs": runs["parent"],
            "change_runs": runs["change"],
        }
    return {
        "pairs": PAIRS,
        "correct": all(r["correct"] for side in SIDES for r in results[side]),
        "failed": {side: sum(r["failed"] for r in results[side]) for side in SIDES},
        "attempted": {side: sum(r["attempted"] for r in results[side]) for side in SIDES},
        "metrics": metrics,
    }


def traced(trees: dict, seconds: float) -> dict:
    layers = {side: {} for side in SIDES}
    for seed in (0, 1):
        for side in SIDES if seed == 0 else SIDES[::-1]:
            res = bench(trees[side], "wide", seed, seconds, 1)
            for name, value in res["metrics"].items():
                layers[side].setdefault(name, []).append(round(value["value"], 4))
    return {
        "command": f"python3 divbench/run.py --workload wide --seed S --seconds {seconds:g} --trace 1,"
                   " S = 0 (parent first), 1 (change first); each runs one traced round of every workload",
        **layers,
    }


def load_bench(tree: str, name: str):
    """A module of tree's divbench: worker makes the benchmark's argvs, run its
    processes' environment."""
    sys.path.insert(0, os.path.join(tree, "divbench"))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.pop(0)


def cli_argvs(worker, seed: int) -> list[list[str]]:
    return [[op.command, *op.argv[3:]] for op in worker.cli_ops(random.Random(seed))]


def wide_argvs(worker, seed: int) -> list[list[str]]:
    rng = random.Random(seed)
    return [
        ["degvec", "--family", family, "--r", str(r), "--weights", worker.csv(worker.random_weights(rng, r, worker.WIDE_N))]
        for family, r in worker.WIDE_DEGVEC
    ] + [["verify-main", "--r", str(worker.WIDE_VERIFY[0]), "--n", str(worker.WIDE_VERIFY[1])]]


def argv_groups(tree: str) -> dict[str, list[list[str]]]:
    """The argvs whose output is compared, by group, as made from tree's files."""
    worker = load_bench(tree, "worker")
    groups = {}
    for seed in (0, 7):
        groups[f"cli seed {seed}"] = cli_argvs(worker, seed)
        groups[f"wide seed {seed}"] = wide_argvs(worker, seed)
    with open(os.path.join(tree, "README.md")) as f:
        text = f.read()
    block = text.split("## Command-line usage", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    groups["readme"] = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("divfact ")]
    groups["degvec n=11,12"] = [
        ["degvec", "--family", "cb", "--r", "3", "--weights", "1,2,0,1,2,0,1,2,0,1,2"],
        ["degvec", "--family", "git", "--r", "4", "--weights", "3,1,2,0,3,3,1,2,1,0,0,0"],
        ["degvec", "--family", "cyc", "--r", "1000", "--weights", "137,582,867,821,782,64,261,120,507,779,80,0"],
    ]
    groups["too few weights"] = [
        ["factor-check", "--r", "2", "--weights", "1,1,1", "--cut", "1,2"],
        ["degree", "--family", "cb", "--r", "3", "--weights", "1,2,0", "--partition", "1/2/3/4"],
        ["cover", "--r", "3", "--weights", "1,2", "--split", "1"],
        ["cover", "--r", "3", "--weights", "1,2"],
    ]
    return {
        name + table: [([table.strip()] if table else []) + argv for argv in argvs]
        for name, argvs in groups.items()
        for table in ("", " --table")
    }


def output_hashes(trees: dict) -> dict:
    groups = argv_groups(trees["change"])
    by_argv, by_group, differ = {}, {}, []
    # block-buffered stdout, as by default: text a process failed to flush would show
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    for group, argvs in groups.items():
        joined = {side: hashlib.sha256() for side in SIDES}
        for argv in argvs:
            seen = {}
            for side in SIDES:
                done = subprocess.run([sys.executable, "-m", "divfact.cli", *argv], cwd=trees[side],
                                      env=dict(env, PYTHONPATH=os.path.join(trees[side], "src")),
                                      capture_output=True)
                joined[side].update(done.stdout)
                err = VERIFY_MAIN_TIME.sub(b" in N.NNs\n", done.stderr)
                seen[side] = (f"{hashlib.sha256(done.stdout).hexdigest()} exit {done.returncode}"
                              f" stderr {hashlib.sha256(err).hexdigest()}")
            key = f"{group}: {shlex.join(argv)}"
            by_argv[key] = seen["change"]
            if seen["parent"] != seen["change"]:
                differ.append({"argv": key, **seen})
        by_group[f"{group} ({len(argvs)} argvs)"] = joined["change"].hexdigest()
    return {
        "note": "sha256 of stdout, the exit code and sha256 of stderr (verify-main's time masked) per argv,"
                " each a fresh `python -m divfact.cli` process; groups hash their argvs' stdout"
                " concatenated in order (change side)",
        "equal_on_both_sides": not differ,
        "argvs": len(by_argv),
        "differ": differ,
        "by_group": by_group,
        "by_argv": by_argv,
    }


def spawn(tree: str, env: dict, argv: list[str], sink: str) -> tuple[float, float, int]:
    """Wall and CPU milliseconds and the exit code of one `python3 argv` process,
    stdout and stderr sent to a file, reaped with os.wait4."""
    with open(sink, "wb") as out:
        start = time.perf_counter_ns()
        proc = subprocess.Popen([sys.executable, *argv], cwd=tree, env=env, stdout=out, stderr=out)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = (time.perf_counter_ns() - start) / 1e6
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, (usage.ru_utime + usage.ru_stime) * 1e3, proc.returncode


def per_process(trees: dict, work: str) -> dict:
    worker, run = load_bench(trees["change"], "worker"), load_bench(trees["change"], "run")
    # as in divbench/run.py: compiled bytecode, and the environment of its processes
    envs = {}
    for side in SIDES:
        compileall.compile_dir(os.path.join(trees[side], "src", "divfact"), maxlevels=0, quiet=1)
        envs[side] = run.child_env(trees[side])
    argvs = [CONTROL, ["-c", "import divfact.cli"]] + [
        ["-m", "divfact.cli", *argv]
        for argv in wide_argvs(worker, 0) + [a for a in cli_argvs(worker, 0) if a[0] == "degvec"]
    ]
    runs = {shlex.join(argv): {side: {"wall_ms": [], "cpu_ms": []} for side in SIDES} for argv in argvs}
    codes = {}  # the benchmark's bad --r calls exit 2; every run of an argv must agree
    sink = os.path.join(work, "process.out")
    for i in range(ROUNDS):
        for argv in argvs:
            key = shlex.join(argv)
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                wall, cpu, code = spawn(trees[side], envs[side], argv, sink)
                if codes.setdefault(key, code) != code:
                    raise SystemExit(f"{side}: python3 {key} exited {code}, other runs {codes[key]}")
                runs[key][side]["wall_ms"].append(wall)
                runs[key][side]["cpu_ms"].append(cpu)
        print(f"per-process round {i} done", file=sys.stderr, flush=True)
    by_argv = {}
    for key, sides in runs.items():
        walls = [sides[side]["wall_ms"] for side in SIDES]
        by_argv[key] = {
            "exit": codes[key],
            **{side: {name: round(statistics.median(values), 2) for name, values in sides[side].items()}
               for side in SIDES},
            "change_lower_wall_in_rounds": sum(c < p for p, c in zip(*walls)),
            **{f"{name}_diff": summary([c - p for p, c in zip(sides["parent"][name], sides["change"][name])])
               for name in ("wall_ms", "cpu_ms")},
        }
    return {
        "protocol": f"python3 ARGV in divbench/run.py's child_env (PYTHONPATH=<side>/src), bytecode"
                    f" compiled, {ROUNDS} rounds; in each round every argv"
                    " runs on both sides (parent first on even rounds), stdout and stderr to a file,"
                    " reaped with os.wait4; wall is spawn to reap, CPU is ru_utime + ru_stime; medians in ms;"
                    " *_diff: median and quartiles of change - parent per round",
        "rounds": ROUNDS,
        "control": shlex.join(CONTROL),
        "by_argv": by_argv,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--change-note", required=True)
    parser.add_argument("--work")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        declared = json.load(f)
    seconds = declared["run_seconds"]

    work = args.work or tempfile.mkdtemp(prefix="bench-pairs-")
    trees = {side: os.path.join(work, side) for side in SIDES}
    for side, rev in zip(SIDES, (args.parent, args.change)):
        shutil.rmtree(trees[side], ignore_errors=True)
        export(rev, trees[side])

    out = {
        "change": args.change_note,
        "host": {"python": sys.version, "nproc": os.cpu_count(), "machine": platform.machine()},
        "protocol": f"python3 divbench/run.py --workload W --seed i --seconds {seconds:g} --trace 0,"
                    f" seeds 0-{PAIRS - 1}, parent and change alternating (parent first on even seeds),"
                    " each side from a clean copy of its tree; quartiles by statistics.quantiles(n=4)",
        "output_sha256": output_hashes(trees),
        "per_process": per_process(trees, work),
        "workloads": {w["name"]: pairs(trees, w["name"], seconds) for w in declared["workloads"]},
        "traced_seeds_0_1": traced(trees, seconds),
    }
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
