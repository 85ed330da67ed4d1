"""Tests of the benchmark's own machinery (not of blowuplab).

Run with:  python3 -m pytest perfbench/tests
"""

import types

import pytest

import run as bench
from tracer import Tracer, self_times
from workloads import SCALE_RANGE, WORKLOADS, config, scales


def test_self_time_on_nested_spans():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.inner", 2.0, 3.0, 1],
        ["b", 5.0, 6.0, 0],
        ["c", 5.5, 7.0, 0],  # overlaps b: covered once
        ["d", 9.0, 11.0, 0],  # runs past its parent: clipped
    ]
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 2.0 - 1.0, 2.0, 1.0, 1.0, 1.5, 2.0])


def test_tracer_nests_counts_by_innermost_layer_and_restores():
    mod = types.SimpleNamespace()
    mod.leggauss = lambda n: n
    mod.inner = lambda: mod.leggauss(4)
    mod.outer = lambda: mod.inner() + mod.leggauss(2)
    originals = dict(vars(mod))
    tracer = Tracer("test")
    tracer.wrap(mod, "outer", "functionals.outer")
    tracer.wrap(mod, "inner", "specfun.inner")
    tracer.count(mod, "leggauss", lambda: f"{tracer.innermost_layer()}.rules_built")

    assert mod.outer() == 6
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [("functionals.outer", -1), ("specfun.inner", 0)]
    assert tracer.counts == {"specfun.rules_built": 1, "functionals.rules_built": 1}
    tracer.restore()
    assert vars(mod) == originals


def _sweep_answers(T, verdict="consistent"):
    w = WORKLOADS["ladder-derivative"]
    return {
        "T": T,
        "outcome": ["blowup"] * len(T),
        "verdict": verdict,
        "theoretical_exponent": w.exponent,
        "answer_dev": 0.05,
    }


def test_forced_nonzero_exit_counts_toward_fail_frac(tmp_path, monkeypatch):
    w = WORKLOADS["ladder-derivative"]
    ok = {"commands": [{"cmd": "sweep", "rc": 0}]}
    assert all(good for _, good in bench.check_pass(w, ok, _sweep_answers([1.0, 2.0, 3.0])))

    forced = {"commands": [{"cmd": "sweep", "rc": 2}]}
    failed = [n for n, good in bench.check_pass(w, forced, _sweep_answers([1.0, 2.0, 3.0])) if not good]
    assert failed == ["sweep exits 0"]

    # through a whole pass: the command fails and writes nothing, so every
    # answer invariant of the pass fails with it
    monkeypatch.setattr(bench, "run_worker", lambda spec: {"commands": [{"cmd": "sweep", "rc": 2}]})
    run = bench.Run(w, seed=0, work=tmp_path)
    run.run_pass(1.0)
    result = run.result({})
    assert result["attempted"] == 6
    assert result["failed"] == 6
    assert result["correct"] is False


def test_answer_invariants():
    w = WORKLOADS["ladder-derivative"]
    ok = {"commands": [{"cmd": "sweep", "rc": 0}]}
    failed = lambda ans: [n for n, good in bench.check_pass(w, ok, ans) if not good]
    assert failed(_sweep_answers([1.0, 1.0, 3.0])) == ["T rises strictly as eps falls"]
    assert failed(_sweep_answers([1.0, 2.0, 3.0], "inconsistent")) == ["verdict is not inconsistent"]
    ans = _sweep_answers([1.0, 2.0, 3.0])
    ans["outcome"][1] = "reached_tmax"
    assert failed(ans) == ["every row blows up"]


def test_seed_zero_gives_the_reference_configs():
    assert scales(0) == (1.0, 1.0)
    combined = {"N": 3, "mu": 0.5, "p": 1.9, "q": 2.2, "a": 1, "b": 1}
    assert config(WORKLOADS["ladder-derivative"], 1.0) == {
        "base": {
            "params": {"N": 1, "mu": 0.5, "p": 2.0, "q": 2.0, "a": 1, "b": 0},
            "eps": 0.4,
            "L": 12.0,
            "nr": 600,
            "t_max": 10.0,
        },
        "eps_list": [0.4, 0.283, 0.2, 0.141, 0.1],
        "refine": 3,
    }
    assert config(WORKLOADS["ladder-combined"], 1.0) == {
        "base": {"params": combined, "eps": 2.4, "L": 21.0, "nr": 1050, "t_max": 20.0},
        "eps_list": [2.4, 1.2, 0.7],
        "refine": 1,
    }
    assert config(WORKLOADS["monitor-verify"], 1.0) == {
        "params": combined,
        "eps": 1.2,
        "L": 21.0,
        "nr": 2100,
        "t_max": 20.0,
        "monitor_stride": 2,
    }


def test_other_seeds_scale_every_eps_within_two_percent():
    for seed in range(1, 50):
        f, g = scales(seed)
        assert scales(seed) == (f, g)
        assert SCALE_RANGE[0] <= f <= SCALE_RANGE[1]
        assert f + g == pytest.approx(2.0)
        doc = config(WORKLOADS["ladder-combined"], f)
        assert doc["eps_list"] == [e * f for e in (2.4, 1.2, 0.7)]
        assert doc["base"]["eps"] == doc["eps_list"][0]
    assert scales(1) != scales(2)


def test_pair_mean_takes_medians_per_factor():
    # even passes run at the first factor, odd ones at its partner
    assert bench._pair_mean([1.0, 10.0, 3.0, 20.0, 2.0, 30.0]) == pytest.approx((2.0 + 20.0) / 2)
    assert bench._pair_mean([None, None]) is None
