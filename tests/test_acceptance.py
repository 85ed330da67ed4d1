"""Acceptance gate: the ten quantitative criteria, at stated tolerances.

Each test prints one PASS line (visible with -s or on failure) summarizing
the measured quantity against its bound. The heavy fixtures (epsilon
sweeps) are module-scoped so the runs are shared across criteria.
"""

import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from blowuplab.cli import main as cli_main
from blowuplab.exponents import ModelParams, lifespan_exponent
from blowuplab.functionals import (
    coercivity_report,
    lemma31_ratio,
    residual_F,
)
from blowuplab.lifespan import SweepConfig, compare_to_theory, fit_power_law, sweep
from blowuplab.solver import InitialProfile, SimConfig, run
from blowuplab.specfun import TestFunctionContext, bessel_k, phi, rho

# -- criterion 6/8/9 configuration: Theorem 2.3 subcritical case -------------

CRIT6_PARAMS = ModelParams(N=1, mu=0.5, p=2.0, q=2.0, a=1, b=0)
CRIT6_EPS = [0.4, 0.283, 0.2, 0.141, 0.1]

# -- criterion 7 configuration: Theorem 2.2 combined case --------------------

CRIT7_PARAMS = ModelParams(N=3, mu=0.5, p=1.9, q=2.2, a=1, b=1)
CRIT7_EPS = [2.4, 1.2, 0.6]


@pytest.fixture(scope="module")
def crit6_sweep():
    base = SimConfig(params=CRIT6_PARAMS, eps=0.4, L=12.0, nr=600, t_max=10.0)
    return sweep(SweepConfig(base, CRIT6_EPS, refine=2))


@pytest.fixture(scope="module")
def crit6_monitored():
    """Monitored runs of the criterion-6 ladder (same configs, h = 0.02)."""
    horizons = {0.4: 10.0, 0.283: 16.0, 0.2: 26.0, 0.141: 45.0, 0.1: 70.0}
    runs = {}
    for eps, t_max in horizons.items():
        L = t_max + 2.0
        cfg = SimConfig(
            params=CRIT6_PARAMS, eps=eps, L=L, nr=int(L / 0.02), t_max=t_max
        )
        runs[eps] = run(cfg)
    return runs


@pytest.fixture(scope="module")
def crit7_sweep():
    # refine=1: the combined-case criterion is qualitative (monotonicity and
    # growth ratios); grid convergence of T at this h is established by the
    # solver tests, and the doubled grid would push the runtime past budget.
    base = SimConfig(params=CRIT7_PARAMS, eps=2.4, L=21.0, nr=1050, t_max=20.0)
    return sweep(SweepConfig(base, CRIT7_EPS, refine=1))


def oracle_bessel_k(nu, t):
    val, _ = quad(
        lambda z: math.exp(-t * math.cosh(z)) * math.cosh(nu * z),
        0.0,
        np.arccosh(1.0 + 800.0 / t),
        limit=400,
        epsabs=0.0,
        epsrel=1e-13,
    )
    return val


def test_criterion_01_bessel_oracle():
    worst = 0.0
    for nu in (0.0, -0.5, 0.5, 1.0, 2.0):
        for t in (0.1, 0.5, 1.0, 5.0, 10.0, 30.0):
            rel = abs(bessel_k(nu, t) / oracle_bessel_k(nu, t) - 1.0)
            worst = max(worst, rel)
    assert worst <= 1e-8
    worst_half = max(
        abs(bessel_k(0.5, t) - math.sqrt(math.pi / (2 * t)) * math.exp(-t))
        / (math.sqrt(math.pi / (2 * t)) * math.exp(-t))
        for t in (0.1, 0.5, 1.0, 5.0, 10.0, 30.0)
    )
    assert worst_half <= 1e-10
    print(f"criterion 1 PASS: K_nu worst rel {worst:.2e} <= 1e-8, "
          f"K_1/2 worst rel {worst_half:.2e} <= 1e-10")


def test_criterion_02_rho_ode_residual():
    h = 1e-4
    worst = 0.0
    for mu in (0.5, 1.0, 2.0, 3.0):
        ctx = TestFunctionContext(N=1, mu=mu)
        for t in np.linspace(h, 20.0, 41):
            d2 = (rho(ctx, t + h) - 2.0 * rho(ctx, t) + rho(ctx, t - h)) / h**2
            damp = (
                mu / (1.0 + t + h) * rho(ctx, t + h)
                - mu / (1.0 + t - h) * rho(ctx, t - h)
            ) / (2.0 * h)
            worst = max(worst, abs(d2 - rho(ctx, t) - damp) / rho(ctx, t))
    assert worst < 1e-6
    print(f"criterion 2 PASS: rho ODE worst rel residual {worst:.2e} < 1e-6")


def test_criterion_03_phi_helmholtz():
    h = 1e-4
    worst = 0.0
    for N in (1, 2, 3):
        for r in np.linspace(0.1, 10.0, 34):
            d2 = (phi(N, r + h) - 2.0 * phi(N, r) + phi(N, r - h)) / h**2
            d1 = (phi(N, r + h) - phi(N, r - h)) / (2.0 * h)
            worst = max(worst, abs(d2 + (N - 1) / r * d1 - phi(N, r)) / phi(N, r))
    assert worst < 1e-5
    print(f"criterion 3 PASS: Helmholtz worst rel residual {worst:.2e} < 1e-5")


def test_criterion_04_lemma31_band():
    worst_band = 0.0
    for N in (1, 2, 3):
        ctx = TestFunctionContext(N=N, mu=0.5, R=1.0)
        ref = lemma31_ratio(ctx, 5.0, 2.0)
        band = max(
            lemma31_ratio(ctx, float(t), 2.0) / ref for t in np.linspace(0.0, 30.0, 61)
        )
        worst_band = max(worst_band, band)
        assert band <= 10.0
    print(f"criterion 4 PASS: lemma 3.1 worst band factor {worst_band:.2f} <= 10")


def test_criterion_05_solver_order_and_energy():
    from test_solver import _march, _mms_error
    from blowuplab.solver import build_initial_state, discrete_energy, time_step

    errs = [_mms_error(1, nr) for nr in (64, 128, 256)]
    rates = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    for rate in rates:
        assert rate == pytest.approx(2.0, abs=0.3)

    linear = ModelParams(N=1, mu=0.5, p=2.0, q=2.0, a=0, b=0)
    cfg = SimConfig(params=linear, eps=0.5, L=12.0, nr=400, t_max=8.0)
    state = build_initial_state(cfg)
    energies = [discrete_energy(state, cfg)]
    while state.t < cfg.t_max:
        state = time_step(state, cfg)
        if state.step % 25 == 0:
            energies.append(discrete_energy(state, cfg))
    e = np.array(energies)
    assert np.all(np.diff(e) <= 1e-6 * e[0])
    print(f"criterion 5 PASS: MMS rates {[f'{r:.2f}' for r in rates]} in 2.0+-0.3; "
          f"linear energy {e[0]:.3f} -> {e[-1]:.3f} nonincreasing")


def test_criterion_06_subcritical_scaling(crit6_sweep):
    assert all(r.outcome == "blowup" for r in crit6_sweep.rows)
    fit = fit_power_law(crit6_sweep)
    k = 4.0 / 3.0
    assert abs(fit.slope + k) / k <= 0.20
    assert fit.r_squared >= 0.98
    verdict = compare_to_theory(fit, crit6_sweep.bound, tau=0.25)
    assert verdict.verdict == "consistent"
    print(f"criterion 6 PASS: slope {fit.slope:.4f} vs -4/3 "
          f"(dev {abs(fit.slope + k) / k:.1%} <= 20%), r^2 {fit.r_squared:.5f} >= 0.98")


def test_criterion_07_combined_case(crit7_sweep):
    assert all(r.outcome == "blowup" for r in crit7_sweep.rows)
    ts = [r.T_est for r in crit7_sweep.rows]  # ladder is decreasing in eps
    assert ts[0] < ts[1] < ts[2]
    ratios = [b / a for a, b in zip(ts, ts[1:])]
    assert all(r >= 4.0 for r in ratios)
    # stretch check: steep-power-law verdict must not be "inconsistent"
    bound = lifespan_exponent(CRIT7_PARAMS)
    assert bound.exponent == pytest.approx(6.5143, abs=5e-5)
    fit = fit_power_law(crit7_sweep)
    verdict = compare_to_theory(fit, bound, tau=0.35)
    assert verdict.verdict in ("consistent", "inconclusive")
    print(f"criterion 7 PASS: T ratios {[f'{r:.2f}' for r in ratios]} >= 4, "
          f"stretch verdict {verdict.verdict} (slope {fit.slope:.2f}, k 6.5143)")


def test_criterion_08_coercivity(crit6_monitored):
    g1_mins, g2_mins = [], []
    for eps, result in crit6_monitored.items():
        rep = coercivity_report(result.monitors, eps, t_lo=2.0)
        assert rep.min_g1_over_eps > 0.0, f"G1 coercivity failed at eps={eps}"
        assert rep.min_g2_over_eps > 0.0, f"G2 coercivity failed at eps={eps}"
        g1_mins.append(rep.min_g1_over_eps)
        g2_mins.append(rep.min_g2_over_eps)
    spread1 = max(g1_mins) / min(g1_mins)
    spread2 = max(g2_mins) / min(g2_mins)
    assert spread1 < 2.0 and spread2 < 2.0
    print(f"criterion 8 PASS: min G1/eps in [{min(g1_mins):.3f}, {max(g1_mins):.3f}] "
          f"(spread {spread1:.2f}), min G2/eps spread {spread2:.2f}, both < 2")


def test_criterion_09_identity_residual(crit6_monitored):
    def worst_rel(result):
        rep = residual_F(result.monitors, CRIT6_PARAMS)
        t_hi = 0.8 * result.monitors.t[-1]
        return float(np.max(rep[result.monitors.t <= t_hi]))

    coarse = crit6_monitored[0.4]  # h = 0.02 ladder run
    cfg_fine = SimConfig(
        params=CRIT6_PARAMS, eps=0.4, L=12.0, nr=1200, t_max=10.0
    )
    fine = run(cfg_fine)
    r_coarse, r_fine = worst_rel(coarse), worst_rel(fine)
    assert r_fine < 0.05
    assert r_fine < r_coarse
    print(f"criterion 9 PASS: F'' identity rel residual {r_fine:.4f} < 5% on the "
          f"fine grid, decreasing under refinement ({r_coarse:.4f} -> {r_fine:.4f})")


def test_criterion_10_reproducibility(tmp_path):
    run_cfg = {
        "params": {"N": 1, "mu": 0.5, "p": 2.0, "q": 2.0, "a": 1, "b": 0},
        "eps": 0.4, "L": 12.0, "nr": 300, "t_max": 10.0,
    }
    sweep_cfg = {"base": run_cfg, "eps_list": [0.4, 0.3, 0.2], "refine": 1}
    cfg1 = tmp_path / "run.json"
    cfg1.write_text(json.dumps(run_cfg))
    cfg2 = tmp_path / "sweep.json"
    cfg2.write_text(json.dumps(sweep_cfg))
    out = tmp_path / "results"

    def snapshot():
        return {
            str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()
        }

    assert cli_main(["--quiet", "solve", "--config", str(cfg1), "--out", str(out)]) == 0
    assert cli_main(["--quiet", "sweep", "--config", str(cfg2), "--out", str(out)]) == 0
    first = snapshot()
    assert cli_main(["--quiet", "solve", "--config", str(cfg1), "--out", str(out)]) == 0
    assert cli_main(["--quiet", "sweep", "--config", str(cfg2), "--out", str(out)]) == 0
    assert snapshot() == first
    print(f"criterion 10 PASS: {len(first)} artifact file(s) byte-identical "
          "across repeated solve and sweep invocations")
