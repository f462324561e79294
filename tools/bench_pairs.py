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
- the sha256 of stdout and the exit code of one fresh
  `python3 -m divfact.cli` process per argv, on both sides: the `cli` and
  `wide` argvs of seeds 0 and 7 as divbench/worker.py makes them, README's
  usage examples, degvec at n = 11 and 12 and the too-few-weights cases,
  each with and without --table.

Standard library only.  Nothing is written outside --work and --out.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import shlex
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

PAIRS = 10
SIDES = ("parent", "change")


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


def argv_groups(tree: str) -> dict[str, list[list[str]]]:
    """The argvs whose stdout is compared, by group, as made from tree's files."""
    sys.path.insert(0, os.path.join(tree, "divbench"))
    try:
        import worker
    finally:
        sys.path.pop(0)
    groups = {}
    for seed in (0, 7):
        groups[f"cli seed {seed}"] = [[op.command, *op.argv[3:]] for op in worker.cli_ops(random.Random(seed))]
        rng = random.Random(seed)
        groups[f"wide seed {seed}"] = [
            ["degvec", "--family", family, "--r", str(r), "--weights", worker.csv(worker.random_weights(rng, r, worker.WIDE_N))]
            for family, r in worker.WIDE_DEGVEC
        ] + [["verify-main", "--r", str(worker.WIDE_VERIFY[0]), "--n", str(worker.WIDE_VERIFY[1])]]
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


def stdout_hashes(trees: dict) -> dict:
    groups = argv_groups(trees["change"])
    by_argv, by_group, differ = {}, {}, []
    for group, argvs in groups.items():
        joined = {side: hashlib.sha256() for side in SIDES}
        for argv in argvs:
            seen = {}
            for side in SIDES:
                env = dict(os.environ, PYTHONPATH=os.path.join(trees[side], "src"))
                done = subprocess.run([sys.executable, "-m", "divfact.cli", *argv], cwd=trees[side],
                                      env=env, capture_output=True)
                joined[side].update(done.stdout)
                seen[side] = f"{hashlib.sha256(done.stdout).hexdigest()} exit {done.returncode}"
            key = f"{group}: {shlex.join(argv)}"
            by_argv[key] = seen["change"]
            if seen["parent"] != seen["change"]:
                differ.append({"argv": key, **seen})
        by_group[f"{group} ({len(argvs)} argvs)"] = joined["change"].hexdigest()
    return {
        "note": "sha256 of stdout and the exit code per argv, each a fresh `python -m divfact.cli` process;"
                " groups hash their argvs' stdout concatenated in order (change side)",
        "equal_on_both_sides": not differ,
        "argvs": len(by_argv),
        "differ": differ,
        "by_group": by_group,
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
        "stdout_sha256": stdout_hashes(trees),
        "workloads": {w["name"]: pairs(trees, w["name"], seconds) for w in declared["workloads"]},
        "traced_seeds_0_1": traced(trees, seconds),
    }
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
