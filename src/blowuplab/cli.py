"""Command-line entry point.

Subcommands: classify, specfun-check, solve, verify, sweep, report.
Exit codes: 0 success (or inconclusive), 1 verification/fit failure,
2 config or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import exponents, functionals, runio, specfun
from .errors import BlowupLabError, ConfigError, InsufficientDataError
from .lifespan import SweepConfig, compare_to_theory, fit_exponential_law, fit_power_law, sweep
from .solver import SimConfig, run


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="blowuplab")
    ap.add_argument("--quiet", action="store_true", help="suppress progress chatter")
    sub = ap.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="blow-up region and lifespan exponents")
    p_classify.set_defaults(func=_cmd_classify)
    p_classify.add_argument("--config", required=True)

    p_check = sub.add_parser("specfun-check", help="special-function verification table")
    p_check.set_defaults(func=_cmd_specfun_check)

    p_solve = sub.add_parser("solve", help="one run with CSV/JSON artifacts")
    p_solve.set_defaults(func=_cmd_solve)
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", default=None)

    p_verify = sub.add_parser("verify", help="functional verification of a run directory")
    p_verify.set_defaults(func=_cmd_verify)
    p_verify.add_argument("run_dir")
    p_verify.add_argument("--t-lo", type=float, default=2.0)

    p_sweep = sub.add_parser("sweep", help="epsilon sweep with scaling-law fit")
    p_sweep.set_defaults(func=_cmd_sweep)
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--jobs", type=int, default=1)

    p_report = sub.add_parser("report", help="merge run manifests into a summary CSV")
    p_report.set_defaults(func=_cmd_report)
    p_report.add_argument("--out", default=None)
    return ap


def _cmd_classify(args) -> int:
    params = runio.config_from_dict(
        exponents.ModelParams, _params_payload(runio.load_json(args.config)), "params"
    )
    tag = exponents.classify(params)
    thr = exponents.thresholds(params)
    lifespan = asdict(exponents.lifespan_exponent(params))
    print(
        json.dumps(
            {"classification": tag.value, "thresholds": thr, "lifespan": lifespan},
            sort_keys=True,
            indent=2,
        )
    )
    return 0


def _params_payload(doc: dict) -> dict:
    return doc["params"] if isinstance(doc, dict) and "params" in doc else doc


def _specfun_rows():
    """Every invariant of the special-function layer, as (name, value, bound)."""
    rows = []
    for nu in (0.0, 0.5, 1.0, 2.0):
        for t in (0.5, 1.0, 5.0, 30.0):
            gap = abs(specfun.bessel_k(-nu, t) / specfun.bessel_k(nu, t) - 1.0)
            rows.append((f"K symmetry nu={nu} t={t}", gap, 1e-10))
    for nu in (0.0, 0.5, 1.0, 2.0):
        for t in (10.0, 20.0, 40.0):
            asym = (np.pi / (2 * t)) ** 0.5 * np.exp(-t)
            rows.append(
                (
                    f"K asymptotic nu={nu} t={t}",
                    abs(specfun.bessel_k(nu, t) / asym - 1.0),
                    5.0 / t,
                )
            )
    for n in (1, 2, 3):
        worst = 0.0
        for r in np.linspace(0.1, 10.0, 34):
            h = 1e-4
            d2 = (specfun.phi(n, r + h) - 2 * specfun.phi(n, r) + specfun.phi(n, r - h)) / h**2
            d1 = (specfun.phi(n, r + h) - specfun.phi(n, r - h)) / (2 * h)
            res = abs(d2 + (n - 1) / r * d1 - specfun.phi(n, r)) / specfun.phi(n, r)
            worst = max(worst, res)
        rows.append((f"phi Helmholtz N={n}", worst, 1e-5))
    for mu in (0.5, 1.0, 2.0, 3.0):
        ctx = specfun.TestFunctionContext(N=1, mu=mu)
        worst = 0.0
        for t in np.linspace(0.0, 20.0, 21):
            h = 1e-4
            tm = max(t, h)
            rr = lambda s: specfun.rho(ctx, s)
            d2 = (rr(tm + h) - 2 * rr(tm) + rr(tm - h)) / h**2
            damp = (
                mu / (1 + tm + h) * rr(tm + h) - mu / (1 + tm - h) * rr(tm - h)
            ) / (2 * h)
            res = abs(d2 - rr(tm) - damp) / abs(rr(tm))
            worst = max(worst, res)
        rows.append((f"rho ODE residual mu={mu}", worst, 1e-6))
    for mu in (0.5, 1.0, 2.0):
        ctx = specfun.TestFunctionContext(N=1, mu=mu)
        gaps = [abs(specfun.rho_log_derivative(ctx, t) + 1.0) for t in (5, 10, 20, 40)]
        monotone = all(a >= b for a, b in zip(gaps, gaps[1:]))
        rows.append((f"rho'/rho -> -1 monotone mu={mu}", 0.0 if monotone else 1.0, 0.5))
    return rows


def _cmd_specfun_check(args) -> int:
    failures = 0
    print("check,value,bound,pass")
    for name, value, bound in _specfun_rows():
        ok = value <= bound
        failures += 0 if ok else 1
        print(f"{name},{value:.3e},{bound:.3e},{ok}")
    return 1 if failures else 0


def _cmd_solve(args) -> int:
    cfg = runio.config_from_dict(SimConfig, runio.load_json(args.config), "run config")
    out = runio.default_out_dir(args.out)
    runio.artifact_dir(out, cfg, runio.RUN_FILES)
    t0 = time.perf_counter()
    result = run(cfg)
    elapsed = time.perf_counter() - t0
    run_dir = runio.write_run_artifacts(out, cfg, result)
    if not args.quiet:
        print(
            f"outcome={result.outcome} t_blowup={result.t_blowup} "
            f"steps={result.steps} dir={run_dir}",
            file=sys.stderr,
        )
        print(f"wall_clock_s={elapsed:.2f}", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    if np.isnan(args.t_lo):  # +-inf are a window past either end; nan is no time
        raise ConfigError("--t-lo must be a number, got nan")
    run_dir = Path(args.run_dir)
    manifest = runio.load_json(run_dir / "manifest.json")
    config = runio._require(manifest, "config", "manifest")
    # a run config may leave these to their defaults; a manifest names them
    runio._require(config, "params", "manifest config")
    runio._require(runio._require(config, "profile", "manifest config"), "R", "manifest profile")
    cfg = runio.config_from_dict(SimConfig, config, "manifest config")
    series = runio.read_series_csv(run_dir / "monitors.csv")
    dest = runio.writable(run_dir / "verify.json")
    ctx = specfun.TestFunctionContext(N=cfg.params.N, mu=cfg.params.mu, R=cfg.profile.R)

    ratios = [functionals.lemma31_ratio(ctx, t, 2.0) for t in np.linspace(0.0, 30.0, 31)]
    ref = ratios[5]  # t = 5.0 exactly
    lemma_ok = max(ratios) <= 10.0 * ref

    try:
        coer = functionals.coercivity_report(series, cfg.eps, t_lo=args.t_lo)
        coer_payload = {
            "minG1_over_eps": coer.min_g1_over_eps,
            "minG2_over_eps": coer.min_g2_over_eps,
            "violated": coer.violated,
        }
        coer_ok = not coer.violated
    except BlowupLabError as exc:
        # window too short to judge: reported as skipped, neither pass nor failure
        coer_payload = {"error": str(exc), "status": "skipped"}
        coer_ok = True

    try:
        res = functionals.residual_F(series, cfg.params)
        t_end = float(series.t[-1])
        mask = series.t <= 0.8 * t_end
        max_rel = float(np.max(res[mask])) if np.any(mask) else float("nan")
        res_ok = max_rel < 0.05  # NaN fails
        res_payload = {"max_rel": max_rel, "ok": res_ok}
    except InsufficientDataError as exc:
        # too few snapshots for the identity's differences: skipped likewise
        res_payload = {"error": str(exc), "status": "skipped"}
        res_ok = True

    report = {
        "lemma31": {"max_ratio": max(ratios), "ref_ratio_t5": ref, "ok": lemma_ok},
        "coercivity": coer_payload,
        "residual_F": res_payload,
    }
    with open(dest, "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0 if (lemma_ok and coer_ok and res_ok) else 1


def _cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    cfg = runio.config_from_dict(SweepConfig, runio.load_json(args.config), "sweep config")
    out = runio.default_out_dir(args.out)
    runio.artifact_dir(out, cfg, runio.SWEEP_FILES)
    result = sweep(cfg, jobs=args.jobs)
    fit_payload: dict = {"bound": asdict(result.bound)}
    unstable = sum(row.outcome == "unstable" for row in result.rows)
    if unstable:
        fit_payload["unstable_rows"] = unstable
    verdict_tag = "not-applicable"
    try:
        if result.bound.kind == "exponential":
            fit = fit_exponential_law(result, cfg.base.params.p)
        else:
            fit = fit_power_law(result)
        fit_payload["fit"] = asdict(fit)
        if result.bound.kind == "algebraic":
            verdict = compare_to_theory(fit, result.bound, cfg.tau)
            if unstable and verdict.verdict == "consistent":
                # the fit left out rows that failed numerically
                verdict = replace(verdict, verdict="inconclusive")
            verdict_tag = verdict.verdict
            fit_payload["verdict"] = asdict(verdict)
    except BlowupLabError as exc:
        fit_payload["fit_error"] = str(exc)

    sweep_dir = runio.write_sweep_artifacts(out, cfg, result, fit_payload)
    if not args.quiet:
        print(f"verdict={verdict_tag} dir={sweep_dir}", file=sys.stderr)
    return 1 if verdict_tag == "inconsistent" else 0


def _cmd_report(args) -> int:
    out = runio.default_out_dir(args.out)
    if not out.is_dir():
        raise ConfigError(f"no such results directory: {out}")
    dest = runio.writable(out / "summary.csv")
    n = runio.merge_manifests(out, dest)
    if not args.quiet:
        print(f"{n} run(s) merged into {dest}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BlowupLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
