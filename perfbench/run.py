"""Layered benchmark of blowuplab, driven through its CLI entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (one that holds `src/blowuplab`).
Each workload is a closed loop with one client: one fresh process per pass
writes the generated configs, then issues the workload's CLI commands one at
a time through `blowuplab.cli.main`, with `--jobs 1`. Passes alternate the
seed's two antithetic eps factors (see workloads.py) until S seconds have
passed and at least MIN_PASSES have run.

With --trace 0 the last stdout line reports the end-to-end metrics: the
median over passes at each factor, averaged over the two factors, and the
median set-up time over every pass and one set-up-only process after each.
ok_frac is the share of checked operations that passed. With --trace 1 it
reports per-layer metrics from one traced pass (spans recorded around calls
into each module, see tracer.py) and the tracing overhead against an
untraced pass of the same inputs. Earlier stdout lines hold the
environment, each pass's raw figures and the answer fingerprints, so two
commits can be diffed. Every command's exit code and every answer invariant
is one checked operation; artifact trees of passes with equal inputs must be
byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Workload, scales

_T0 = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
MIN_PASSES = 4  # two per eps factor, so each factor's artifacts can be compared
RUN_BUDGET_S = 150.0  # start no pass that could end a run past this
DEADLINE_S = 170.0  # a worker still running then is killed

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "answer_dev": "ratio",
    "ok_frac": "ratio",
}


def _unit(name: str) -> str:
    if name.endswith("mcell_per_s"):
        return "Mcell/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("fraction"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "B"
    return "count"


def environment(numpy_version: str | None) -> dict:
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        rev = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "blowuplab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    caches = {}
    try:
        proc = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10)
        for line in proc.stdout.splitlines():
            key, _, value = line.partition(":")
            if "cache" in key:
                caches[key.strip()] = value.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "git_rev": rev,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "caches": caches,
    }


def run_worker(spec: dict) -> dict:
    """One fresh worker process; its record, or {"error": ...} if it died."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, DEADLINE_S - (t0 - _T0)),
        )
    except subprocess.TimeoutExpired:
        return {"error": "timeout", "elapsed": time.perf_counter() - t0}
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        record = None
    if record is None:
        sys.stderr.write(proc.stderr)
        record = {"error": f"worker exit {proc.returncode}"}
    record["elapsed"] = time.perf_counter() - t0
    return record


def tree_digest(out: Path) -> dict:
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def _only_dir(out: Path, marker: str) -> Path | None:
    dirs = sorted(p.parent for p in out.glob(f"*/{marker}"))
    return dirs[0] if len(dirs) == 1 else None


def read_answers(workload: Workload, out: Path) -> dict | None:
    """The pass's results as written by the program, plus answer_dev."""
    try:
        if workload.kind == "sweep":
            d = _only_dir(out, "sweep.csv")
            with open(d / "sweep.csv") as fh:
                rows = list(csv.DictReader(fh))
            with open(d / "fit.json") as fh:
                fit = json.load(fh)
            slope = fit["fit"]["slope"]
            k = workload.exponent
            return {
                "eps": [float(r["eps"]) for r in rows],
                "T": [float(r["T_est"]) for r in rows],
                "outcome": [r["outcome"] for r in rows],
                "slope": slope,
                "theoretical_exponent": fit["fit"]["theoretical_exponent"],
                "verdict": fit.get("verdict", {}).get("verdict"),
                "answer_dev": abs(slope + k) / k,
            }
        d = _only_dir(out, "manifest.json")
        with open(d / "manifest.json") as fh:
            manifest = json.load(fh)
        with open(d / "verify.json") as fh:
            verify = json.load(fh)
        return {
            "outcome": manifest["outcome"],
            "T": manifest["t_blowup"],
            "steps": manifest["steps"],
            "verify": verify,
            "answer_dev": verify["residual_F"]["max_rel"],
        }
    except (OSError, TypeError, KeyError, ValueError):
        return None


def check_pass(workload: Workload, record: dict, ans: dict | None) -> list:
    """(operation, ok) for every command and answer invariant of one pass."""
    rcs = {c["cmd"]: c["rc"] for c in record.get("commands", [])}
    expected = ("sweep",) if workload.kind == "sweep" else ("solve", "verify", "report")
    checks = [(f"{cmd} exits 0", rcs.get(cmd) == 0) for cmd in expected]
    if workload.kind == "sweep":
        T = ans["T"] if ans else []
        checks += [
            ("every row blows up", bool(ans) and all(o == "blowup" for o in ans["outcome"])),
            # rows run down the ladder, so the lifespan must grow row by row
            ("T rises strictly as eps falls", bool(T) and all(b > a for a, b in zip(T, T[1:]))),
            ("verdict is not inconsistent", bool(ans) and ans["verdict"] in ("consistent", "inconclusive")),
            (
                "fit uses the expected exponent",
                bool(ans) and abs(ans["theoretical_exponent"] / workload.exponent - 1) < 1e-4,
            ),
        ]
    else:
        checks.append(("solve ends in blowup", bool(ans) and ans["outcome"] == "blowup"))
    checks.append(("answer_dev is finite", bool(ans) and math.isfinite(ans["answer_dev"])))
    return checks


def _pair_mean(values: list) -> float | None:
    """Median over the passes at each factor (even / odd index), then their mean."""
    groups = [[v for v in values[i::2] if v is not None] for i in (0, 1)]
    groups = [g for g in groups if g]
    if not groups:
        return None
    return statistics.fmean(statistics.median(g) for g in groups)


class Run:
    def __init__(self, workload: Workload, seed: int, work: Path) -> None:
        self.workload = workload
        self.pair = scales(seed)
        self.work = work
        self.passes: list[dict] = []
        self.checks: list = []

    def spec(self, idx: int, scale: float, **extra) -> dict:
        return dict(
            root=str(ROOT),
            workload=self.workload.name,
            scale=scale,
            out=str(self.work / f"pass-{idx}" / "out"),
            **extra,
        )

    def run_pass(self, scale: float, **extra) -> dict:
        idx = len(self.passes)
        spec = self.spec(idx, scale, **extra)
        record = run_worker(spec)
        out = Path(spec["out"])
        record["scale"] = scale
        record["answers"] = read_answers(self.workload, out)
        record["digest"] = tree_digest(out) if out.exists() else {}
        self.checks += [
            (f"pass {idx}: {name}", ok)
            for name, ok in check_pass(self.workload, record, record["answers"])
        ]
        self.passes.append(record)
        return record

    def check_identical(self, a: dict, b: dict) -> None:
        same = bool(a["digest"]) and a["digest"] == b["digest"]
        self.checks.append((f"artifacts identical at scale {a['scale']!r}", same))

    def setup_sample(self, idx: int) -> float | None:
        return run_worker(self.spec(idx, self.pair[0], setup_only=True)).get("setup_s")

    def result(self, metrics: dict) -> dict:
        failed = sum(not ok for _, ok in self.checks)
        return {
            "correct": failed == 0,
            "attempted": len(self.checks),
            "failed": failed,
            "metrics": metrics,
        }


def measure(run: Run, seconds: float) -> dict:
    """Untraced passes; end-to-end metrics."""
    start = time.perf_counter()
    setups = []
    while True:
        n = len(run.passes)
        if n >= MIN_PASSES and n % 2 == 0:
            now = time.perf_counter()
            longest = max(p["elapsed"] for p in run.passes)
            if now - start >= seconds or now - _T0 + 2 * longest > RUN_BUDGET_S:
                break
        setups.append(run.run_pass(run.pair[n % 2]).get("setup_s"))
        # a set-up-only process between passes doubles the set-up samples
        # and spreads them over the run
        setups.append(run.setup_sample(1000 + n))
    for group in (run.passes[0::2], run.passes[1::2]):
        for other in group[1:]:
            run.check_identical(group[0], other)
    setups = [s for s in setups if s is not None]
    answers = [p["answers"]["answer_dev"] if p["answers"] else None for p in run.passes]
    failed = sum(not ok for _, ok in run.checks)
    return {
        "wall_s": _pair_mean([p.get("wall_s") for p in run.passes]),
        "setup_s": statistics.median(setups) if setups else None,
        "peak_rss_mb": _pair_mean([p.get("peak_rss_mb") for p in run.passes]),
        "answer_dev": _pair_mean(answers),
        "ok_frac": 1.0 - failed / len(run.checks),
    }


def trace(run: Run) -> dict:
    """One untraced and one traced pass on the same inputs; per-layer metrics."""
    trace_file = HERE / "_work" / f"trace-{run.workload.name}.json"
    plain = run.run_pass(run.pair[0])
    traced = run.run_pass(run.pair[0], trace=str(trace_file))
    run.check_identical(plain, traced)
    layers = dict(traced.get("layers", {}))
    if "wall_s" in plain and "wall_s" in traced:
        layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "blowuplab" / "cli.py").is_file():
        print(f"error: no blowuplab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = HERE / "_work" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    run = Run(WORKLOADS[args.workload], args.seed, work)
    try:
        # the first process compiles bytecode and fills the file cache
        warm = run_worker(run.spec(999, run.pair[0], setup_only=True))
        print(json.dumps({"env": environment(warm.get("numpy"))}))
        if args.trace:
            metrics = {k: {"value": v, "unit": _unit(k)} for k, v in trace(run).items()}
        else:
            metrics = {
                k: {"value": v, "unit": END_TO_END_UNITS[k]}
                for k, v in measure(run, args.seconds).items()
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"passes": [_summary(p) for p in run.passes]}))
    print(json.dumps({"checks_failed": [name for name, ok in run.checks if not ok]}))
    print(json.dumps(run.result(metrics)))
    return 0


def _summary(record: dict) -> dict:
    keys = ("scale", "setup_s", "wall_s", "peak_rss_mb", "error", "answers")
    return {k: record[k] for k in keys if k in record}


if __name__ == "__main__":
    sys.exit(main())
