"""Paired benchmark runs of a parent revision against the working tree.

    python3 tools/bench_pairs.py --parent REV --pr N [--trace] [--what TEXT]

Run from the root of a checkout. The script exports REV and the working
tree with `git archive` into two sibling directories of one temporary
directory, so that both sides run from the same kind of place. The working
tree's export holds its tracked and untracked files as they are on disk and
leaves out ignored ones (perfbench/_work among them). Then, for each
workload of BENCHMARK.json and each seed 1-10, it runs `perfbench/run.py
--workload W --seed S --seconds T`, T being BENCHMARK.json's run_seconds,
once on each export, one run at a time, the parent first on odd seeds and the
change first on even ones. It writes BENCH_<N>.json: for each
end-to-end metric of BENCHMARK.json, both sides' runs, their medians and
inclusive quartiles, and change_better_pairs, the pairs in which the change
reads better (ties count for neither). `wall_over_setup` holds the same
figures for each run's wall_s divided by its own setup_s, which cancels
drift in the host's speed between runs. It also records each side's
operations, the sha256 (16 hex digits) of every file one seed-0 pass writes
(listed once when both sides agree), and with --trace the per-layer metrics
of one traced seed-0 run of each side.

Standard library only. The workloads and the run length are read from the
working tree's BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SEEDS = range(1, 11)

# traced per-layer metrics worth comparing between the sides
TRACED = (
    "kernels.calls",
    "kernels.cell_updates",
    "kernels.busy_s",
    "kernels.mcell_per_s",
    "solver.steps",
    "solver.cells_allocated",
    "solver.time_step.self_s",
    "functionals.compute_snapshot.calls",
    "functionals.compute_snapshot.busy_s",
    "functionals.lemma31_ratio.busy_s",
    "specfun.log_rho.calls",
    "specfun.log_rho.busy_s",
    "specfun.rho_log_derivative.calls",
    "specfun.rho_log_derivative.busy_s",
    "specfun.log_phi.points",
)


def summarize(parent: list, change: list, better: str) -> dict:
    """Runs, medians, inclusive quartiles and change_better_pairs of one metric.

    parent[i] and change[i] are the two runs of pair i; `better` is "lower"
    or "higher".
    """
    if better == "lower":
        wins = sum(c < p for p, c in zip(parent, change))
    else:
        wins = sum(c > p for p, c in zip(parent, change))
    return {
        "parent_runs": parent,
        "change_runs": change,
        "parent_median": statistics.median(parent),
        "change_median": statistics.median(change),
        "parent_quartiles": _quartiles(parent),
        "change_quartiles": _quartiles(change),
        "change_better_pairs": wins,
    }


def _quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """The last stdout line of one perfbench/run.py run on `tree`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def artifact_digests(tree: Path, workload: str, dest: Path) -> dict:
    """sha256 (16 hex digits) of every file one seed-0 pass on `tree` writes."""
    out = dest / workload / "out"
    spec = {"root": str(tree), "workload": workload, "scale": 1.0, "out": str(out)}
    subprocess.run(
        [sys.executable, "perfbench/worker.py", json.dumps(spec)],
        cwd=tree, capture_output=True, check=True,
    )
    return {
        str(p.relative_to(dest)): hashlib.sha256(p.read_bytes()).hexdigest()[:16]
        for p in sorted((dest / workload).rglob("*"))
        if p.is_file()
    }


def export(root: Path, dest: Path, rev: str | None = None) -> None:
    """Extract revision `rev` of the repository at `root` into dest, or with no
    rev its working tree: tracked and untracked files as they are on disk,
    ignored ones left out.

    The working tree is staged into a temporary index (GIT_INDEX_FILE) and
    written as a tree, so the repository's own index stays untouched.
    """
    if rev is None:
        with tempfile.TemporaryDirectory() as tmp:
            env = dict(os.environ, GIT_INDEX_FILE=str(Path(tmp) / "index"))
            _git(root, "add", "-A", env=env)
            rev = _git(root, "write-tree", env=env).decode().strip()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=_git(root, "archive", rev), check=True)


def _git(root: Path, *args: str, env: dict | None = None) -> bytes:
    """The stdout of one git command run in root."""
    return subprocess.run(
        ["git", *args], cwd=root, env=env, capture_output=True, check=True
    ).stdout


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--pr", required=True, help="N of the BENCH_<N>.json written")
    ap.add_argument("--trace", action="store_true", help="add one traced seed-0 run per side")
    ap.add_argument("--what", default="", help="one line on what the change does")
    args = ap.parse_args(argv)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    parent_sha = _git(ROOT, "rev-parse", args.parent).decode().strip()

    work = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        trees = {"parent": work / "parent", "change": work / "change"}
        for side, rev in (("parent", parent_sha), ("change", None)):
            trees[side].mkdir()
            export(ROOT, trees[side], rev)
        doc = {
            "what": args.what,
            "parent": parent_sha,
            "method": {
                "command": "python3 perfbench/run.py --workload W --seed S "
                f"--seconds {seconds:g}",
                "trees": "both sides run from exports in sibling directories: the parent "
                "revision, and the working tree without its ignored files",
                "pairs": f"seeds {SEEDS.start}-{SEEDS.stop - 1} per workload; the parent runs "
                "first on odd seeds, the change first on even seeds; one run at a time",
                "statistics": "median and quartiles (inclusive method) over the per-seed values; "
                "change_better_pairs counts pairs where the change reads better, ties counting "
                "for neither; wall_over_setup is each run's wall_s / setup_s",
                "script": "tools/bench_pairs.py",
            },
            "workloads": {},
            "seed0_artifacts": {},
        }
        for workload in workloads:
            runs = {"parent": [], "change": []}
            for seed in SEEDS:
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                for side in order:
                    result = run_bench(trees[side], workload, seed, seconds)
                    runs[side].append(result)
                    print(workload, seed, side, json.dumps(result["metrics"]), file=sys.stderr)
            entry = {}
            for name, better in metrics.items():
                values = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in runs}
                entry[name] = summarize(values["parent"], values["change"], better)
            ratios = {
                s: [r["metrics"]["wall_s"]["value"] / r["metrics"]["setup_s"]["value"]
                    for r in runs[s]]
                for s in runs
            }
            entry["wall_over_setup"] = summarize(ratios["parent"], ratios["change"], "lower")
            entry["operations"] = {
                s: {"attempted": sum(r["attempted"] for r in runs[s]),
                    "failed": sum(r["failed"] for r in runs[s])}
                for s in runs
            }
            doc["workloads"][workload] = entry

            digests = {
                s: artifact_digests(trees[s], workload, work / f"artifacts-{s}")
                for s in trees
            }
            if digests["parent"] == digests["change"]:
                doc["seed0_artifacts"].update(digests["change"])
            else:
                doc["seed0_artifacts"][workload] = digests

            if args.trace:
                traced = {
                    s: run_bench(trees[s], workload, 0, 5, trace=1)["metrics"] for s in trees
                }
                doc.setdefault("traced_seed0", {})[workload] = {
                    s: {k: traced[s][k]["value"] for k in TRACED if k in traced[s]}
                    for s in trees
                }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
