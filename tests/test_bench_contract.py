"""The names perfbench's tracer wraps stay where it looks them up.

`perfbench/tracer.py` patches blowuplab's functions by attribute on the
modules that call them. A refactor that moves or renames one of them breaks
`perfbench/run.py --trace 1`; this test catches that in the test suite.
"""

import inspect
import json
import sys
from pathlib import Path

import numpy as np

import blowuplab
from blowuplab import kernels
from blowuplab.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from tracer import Tracer, install, layer_metrics  # noqa: E402

RUN_CONFIG = {
    "params": {"N": 3, "mu": 0.5, "p": 1.9, "q": 2.2, "a": 1, "b": 1},
    "eps": 1.2,
    "L": 21.0,
    "nr": 300,
    "t_max": 20.0,
}


def test_advance_takes_i_hi_fifteenth():
    # the tracer's kernels.cell_updates reads i_hi as args[14] of each call
    assert list(inspect.signature(kernels.advance).parameters)[14] == "i_hi"


def test_install_patches_every_target_and_restore_puts_back():
    tracer = Tracer("t")
    install(tracer, blowuplab)
    patches = list(tracer._patches)
    try:
        assert patches
        for owner, attr, original in patches:
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.restore()
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, attr
    assert not tracer._patches


def test_traced_solve_records_every_layer(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(RUN_CONFIG))
    out = tmp_path / "results"
    leggauss = np.polynomial.legendre.leggauss
    tracer = Tracer("t")
    install(tracer, blowuplab)
    try:
        with tracer.span("cli.solve"):
            assert main(["--quiet", "solve", "--config", str(cfg), "--out", str(out)]) == 0
        (run_dir,) = out.iterdir()
        with tracer.span("cli.verify"):
            main(["--quiet", "verify", str(run_dir)])
    finally:
        tracer.restore()
    assert np.polynomial.legendre.leggauss is leggauss
    m = layer_metrics(tracer)
    assert m["solver.runs"] == 1
    assert m["solver.steps"] > 0
    assert m["kernels.calls"] == m["solver.steps"]  # the first step included
    assert m["solver.propose_dt.calls"] <= m["solver.steps"] + m["solver.runs"]
    assert m["functionals.compute_snapshot.calls"] > 0
    assert m["functionals.lemma31_ratio.calls"] > 0
    assert m["specfun.log_rho.calls"] > 0
    # every run's rho work is attributed to specfun: one log_rho and one
    # rho_log_derivative over the array of its snapshot times, and one log_rho
    # per lemma31_ratio
    runs = m["solver.runs"]
    assert m["specfun.rho_log_derivative.calls"] == runs
    assert m["specfun.log_rho.calls"] == runs + m["functionals.lemma31_ratio.calls"]
    assert m["specfun.log_phi.points"] > 0
    assert m["runio.bytes_written"] > 0


def test_traced_sweep_records_rows_runs_and_row_nr(tmp_path):
    # perfbench traces the sweep workloads too; lifespan.max_nr reads the nr
    # of each row's config, which a sweep hands over from its base unchanged
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"base": RUN_CONFIG, "eps_list": [2.4, 1.8, 1.2], "refine": 2}))
    tracer = Tracer("t")
    install(tracer, blowuplab)
    try:
        with tracer.span("cli.sweep"):
            argv = ["--quiet", "sweep", "--config", str(cfg), "--out", str(tmp_path / "r")]
            assert main(argv + ["--jobs", "1"]) == 0
    finally:
        tracer.restore()
    m = layer_metrics(tracer)
    assert m["lifespan.rows"] == 3
    assert m["lifespan.blowup_fraction"] == 1.0
    assert m["solver.runs"] == 6  # two refinement levels per row
    assert m["lifespan.max_nr"] == RUN_CONFIG["nr"]
    assert m["exponents.calls"] == 1  # one theorem lookup per sweep
