"""One workload pass in a fresh process: set up, run the CLI commands, report.

Usage: python3 perfbench/worker.py '<json spec>'

The spec names the repository root, the workload, the eps factor, the output
directory, and whether to trace (`trace`: path of the span file) or only set
up (`setup_only`). The last line of stdout is one JSON record.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import contextlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path

from workloads import WORKLOADS, write_config


def _call(cli, argv, tracer) -> dict:
    """One closed-loop CLI command; its stdout is captured, its exit code kept."""
    sink = io.StringIO()
    span = tracer.span(f"cli.{argv[1]}") if tracer else contextlib.nullcontext()
    try:
        with span, contextlib.redirect_stdout(sink):
            rc = cli.main(argv)
    except Exception:  # a crash is one failed command, not a dead pass
        traceback.print_exc()
        rc = -1
    return {"cmd": argv[1], "rc": rc}


def _commands(cli, workload, cfg_path: Path, out: Path, tracer) -> list[dict]:
    if workload.kind == "sweep":
        argv = ["--quiet", "sweep", "--config", str(cfg_path), "--out", str(out)]
        return [_call(cli, argv + ["--jobs", "1"], tracer)]
    done = [_call(cli, ["--quiet", "solve", "--config", str(cfg_path), "--out", str(out)], tracer)]
    run_dirs = sorted(p.parent for p in out.glob("*/manifest.json"))
    if len(run_dirs) == 1:
        done.append(_call(cli, ["--quiet", "verify", str(run_dirs[0])], tracer))
    done.append(_call(cli, ["--quiet", "report", "--out", str(out)], tracer))
    return done


def main(spec: dict) -> dict:
    root = Path(spec["root"])
    workload = WORKLOADS[spec["workload"]]
    out = Path(spec["out"])
    sys.path.insert(0, str(root / "src"))
    import blowuplab.cli as cli
    import numpy

    out.parent.mkdir(parents=True, exist_ok=True)
    cfg_path = write_config(workload, spec["scale"], out.parent)
    record = {"setup_s": time.perf_counter() - _T0, "numpy": numpy.__version__}
    if spec.get("setup_only"):
        return record

    tracer = None
    if spec.get("trace"):
        from tracer import Tracer, install, layer_metrics

        tracer = Tracer(run_id=f"{workload.name}@{spec['scale']!r}")
        install(tracer, sys.modules["blowuplab"])
    t0 = time.perf_counter()
    record["commands"] = _commands(cli, workload, cfg_path, out, tracer)
    record["wall_s"] = time.perf_counter() - t0
    # ru_maxrss is in KiB on Linux; reported in MB of 2^20 bytes
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.restore()
        tracer.dump(Path(spec["trace"]))
        record["layers"] = layer_metrics(tracer)
    return record


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
