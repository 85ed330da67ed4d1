"""In-memory spans around calls into blowuplab's modules, and the per-layer
metrics derived from them.

Spans are recorded from the benchmark's side only: `install` replaces a
module's public functions with recording wrappers at the place each caller
looks them up (functions imported by name are wrapped in the importing
module), and `restore` puts the originals back. Nothing inside the program
is edited.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("cli", "lifespan", "solver", "kernels", "functionals", "specfun", "runio")
COMMANDS = ("sweep", "solve", "verify", "report")


class Tracer:
    """Nested spans (name, start, end, parent, run id) plus event counters."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._patches: list[tuple] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def innermost_layer(self) -> str:
        return self.spans[self._open[-1]][0].split(".")[0] if self._open else "bench"

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Record a span `name` around every call of owner.attr.

        `after(args, result)` runs outside the span to update counters.
        """
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(args, result)
            return result

        self._patch(owner, attr, fn, wrapper)

    def count(self, owner, attr: str, counter) -> None:
        """Count calls of owner.attr without a span; `counter()` names the key."""
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            self.counts[counter()] += 1
            return fn(*args, **kwargs)

        self._patch(owner, attr, fn, wrapper)

    def _patch(self, owner, attr, fn, wrapper) -> None:
        self._patches.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def dump(self, path: Path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "run_id": self.run_id,
                    "fields": ["name", "start", "end", "parent"],
                    "spans": self.spans,
                },
                fh,
            )


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for c_start, c_end in sorted(children[idx]):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def _bytes_under(path: Path) -> int:
    path = Path(path)
    if path.is_dir():
        return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
    return path.stat().st_size


def install(tracer: Tracer, bl) -> None:
    """Wrap the public functions of every blowuplab module; `bl` is the package."""
    import numpy as np

    cli, lifespan, solver = bl.cli, bl.lifespan, bl.solver
    kernels, functionals, runio = bl.kernels, bl.functionals, bl.runio
    c = tracer.counts

    def on_advance(args, result):
        c["kernels.cell_updates"] += int(args[14]) + 1  # i_hi

    def on_step(args, state):
        c["solver.cells_allocated"] += state.u.size

    def on_measure(args, result):
        c["lifespan.max_nr"] = max(c["lifespan.max_nr"], args[0].nr)

    def on_sweep(args, result):
        c["lifespan.rows"] += len(result.rows)
        c["lifespan.blowup_rows"] += sum(r.outcome == "blowup" for r in result.rows)

    def on_log_phi(args, result):
        c["specfun.log_phi.points"] += np.size(args[1])

    def on_write(args, result):
        c["runio.bytes_written"] += _bytes_under(result)

    def on_merge(args, result):
        c["runio.bytes_written"] += _bytes_under(args[1])

    tracer.wrap(kernels, "advance", "kernels.advance", on_advance)
    tracer.wrap(solver, "time_step", "solver.time_step", on_step)
    tracer.wrap(solver, "propose_dt", "solver.propose_dt")
    tracer.wrap(solver, "run", "solver.run")
    tracer.wrap(cli, "run", "solver.run")
    tracer.wrap(lifespan, "measure_lifespan", "solver.measure_lifespan", on_measure)
    tracer.wrap(cli, "sweep", "lifespan.sweep", on_sweep)
    for fit in ("fit_power_law", "fit_exponential_law", "compare_to_theory"):
        tracer.wrap(cli, fit, "lifespan.fit")
    tracer.wrap(solver, "compute_snapshot", "functionals.compute_snapshot")
    tracer.wrap(functionals, "lemma31_ratio", "functionals.lemma31_ratio")
    tracer.wrap(functionals, "coercivity_report", "functionals.coercivity_report")
    tracer.wrap(functionals, "residual_F", "functionals.residual_F")
    tracer.wrap(runio, "residual_F", "functionals.residual_F")
    tracer.wrap(functionals, "log_rho", "specfun.log_rho")
    tracer.wrap(functionals, "rho_log_derivative", "specfun.rho_log_derivative")
    tracer.wrap(functionals, "log_phi", "specfun.log_phi", on_log_phi)
    tracer.wrap(solver, "log_phi", "specfun.log_phi", on_log_phi)
    for writer in ("write_run_artifacts", "write_sweep_artifacts"):
        tracer.wrap(runio, writer, "runio.write", on_write)
    tracer.wrap(runio, "merge_manifests", "runio.write", on_merge)
    for reader in ("load_json", "read_series_csv"):
        tracer.wrap(runio, reader, "runio.read")
    tracer.count(lifespan, "lifespan_exponent", lambda: "exponents.calls")
    tracer.count(solver, "classify", lambda: "exponents.calls")
    tracer.count(
        np.polynomial.legendre,
        "leggauss",
        lambda: f"{tracer.innermost_layer()}.rules_built",
    )


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures from the recorded spans and counters."""
    calls, busy, own = Counter(), defaultdict(float), defaultdict(float)
    layer_self = defaultdict(float)
    for (name, start, end, _), s in zip(tracer.spans, self_times(tracer.spans)):
        calls[name] += 1
        busy[name] += end - start
        own[name] += s
        layer_self[name.split(".")[0]] += s
    c = tracer.counts
    updates = c["kernels.cell_updates"]
    allocated = c["solver.cells_allocated"]
    rows = c["lifespan.rows"]
    m = {
        "kernels.calls": calls["kernels.advance"],
        "kernels.cell_updates": updates,
        "kernels.busy_s": busy["kernels.advance"],
        "kernels.mcell_per_s": (
            updates / busy["kernels.advance"] / 1e6 if busy["kernels.advance"] else 0.0
        ),
        "solver.steps": calls["solver.time_step"],
        "solver.runs": calls["solver.run"],
        "solver.time_step.self_s": own["solver.time_step"],
        "solver.run.self_s": own["solver.run"],
        "solver.propose_dt.calls": calls["solver.propose_dt"],
        "solver.propose_dt.busy_s": busy["solver.propose_dt"],
        "solver.cells_allocated": allocated,
        "solver.active_fraction": updates / allocated if allocated else 0.0,
        "lifespan.rows": rows,
        "lifespan.blowup_fraction": c["lifespan.blowup_rows"] / rows if rows else 0.0,
        "lifespan.max_nr": c["lifespan.max_nr"],
        "lifespan.sweep.self_s": own["lifespan.sweep"],
        "functionals.compute_snapshot.calls": calls["functionals.compute_snapshot"],
        "functionals.compute_snapshot.busy_s": busy["functionals.compute_snapshot"],
        "functionals.compute_snapshot.self_s": own["functionals.compute_snapshot"],
        "functionals.lemma31_ratio.calls": calls["functionals.lemma31_ratio"],
        "functionals.lemma31_ratio.busy_s": busy["functionals.lemma31_ratio"],
        "functionals.residual_F.busy_s": busy["functionals.residual_F"],
        "functionals.rules_built": c["functionals.rules_built"],
        "specfun.log_rho.calls": calls["specfun.log_rho"],
        "specfun.log_rho.busy_s": busy["specfun.log_rho"],
        "specfun.rho_log_derivative.calls": calls["specfun.rho_log_derivative"],
        "specfun.rho_log_derivative.busy_s": busy["specfun.rho_log_derivative"],
        "specfun.log_phi.points": c["specfun.log_phi.points"],
        "specfun.log_phi.busy_s": busy["specfun.log_phi"],
        "specfun.rules_built": c["specfun.rules_built"],
        "runio.write.busy_s": busy["runio.write"],
        "runio.read.busy_s": busy["runio.read"],
        "runio.bytes_written": c["runio.bytes_written"],
        "exponents.calls": c["exponents.calls"],
        "trace.spans": len(tracer.spans),
    }
    for cmd in COMMANDS:
        m[f"cli.{cmd}.busy_s"] = busy[f"cli.{cmd}"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m
