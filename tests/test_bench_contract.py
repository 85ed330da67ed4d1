"""The names perfbench's tracer wraps stay where it looks them up.

`perfbench/tracer.py` patches blowuplab's functions by attribute on the
modules that call them. A refactor that moves or renames one of them breaks
`perfbench/run.py --trace 1`; this test catches that in the test suite.
"""

import json
import sys
from pathlib import Path

import numpy as np

import blowuplab
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
    assert m["kernels.calls"] == m["solver.steps"] - 1  # the first step is the Taylor start
    assert m["solver.propose_dt.calls"] <= m["solver.steps"] + m["solver.runs"]
    assert m["functionals.compute_snapshot.calls"] > 0
    assert m["functionals.lemma31_ratio.calls"] > 0
    assert m["specfun.log_rho.calls"] > 0
    assert m["specfun.log_phi.points"] > 0
    assert m["runio.bytes_written"] > 0
