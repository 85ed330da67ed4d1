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
from .errors import BlowupLabError, ConfigError
from .lifespan import DEFAULT_TAU, compare_to_theory, fit_exponential_law, fit_power_law, sweep
from .solver import run


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="blowuplab")
    ap.add_argument("--quiet", action="store_true", help="suppress progress chatter")
    sub = ap.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="blow-up region and lifespan exponents")
    p_classify.add_argument("--config", required=True)

    p_check = sub.add_parser("specfun-check", help="special-function verification table")

    p_solve = sub.add_parser("solve", help="one run with CSV/JSON artifacts")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", default=None)

    p_verify = sub.add_parser("verify", help="functional verification of a run directory")
    p_verify.add_argument("run_dir")
    p_verify.add_argument("--t-lo", type=float, default=2.0)

    p_sweep = sub.add_parser("sweep", help="epsilon sweep with scaling-law fit")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--tau", type=float, default=None)
    p_sweep.add_argument("--refine", type=int, default=None)

    p_report = sub.add_parser("report", help="merge run manifests into a summary CSV")
    p_report.add_argument("--out", default=None)
    return ap


def _cmd_classify(args) -> int:
    params = runio.params_from_dict(_params_payload(runio.load_json(args.config)))
    tag = exponents.classify(params)
    thr = exponents.thresholds(params)
    if tag is exponents.RegionClassification.NO_THEOREM:
        lifespan = {"kind": "none", "exponent": None}
    else:
        bound = exponents.lifespan_exponent(params)
        lifespan = {"kind": bound.kind, "exponent": bound.exponent}
    print(
        json.dumps(
            {"classification": tag.value, "thresholds": thr, "lifespan": lifespan},
            sort_keys=True,
            indent=2,
        )
    )
    return 0


def _params_payload(doc: dict) -> dict:
    return doc["params"] if "params" in doc else doc


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
    cfg = runio.sim_config_from_dict(runio.load_json(args.config))
    t0 = time.perf_counter()
    result = run(cfg)
    elapsed = time.perf_counter() - t0
    out = runio.default_out_dir(args.out)
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
    run_dir = Path(args.run_dir)
    manifest = runio.load_json(run_dir / "manifest.json")
    params = runio.params_from_dict(manifest["config"]["params"])
    series = runio.read_series_csv(run_dir / "monitors.csv")
    ctx = specfun.TestFunctionContext(
        N=params.N, mu=params.mu, R=manifest["config"]["profile"]["R"]
    )

    ratios = [functionals.lemma31_ratio(ctx, t, 2.0) for t in np.linspace(0.0, 30.0, 31)]
    ref = functionals.lemma31_ratio(ctx, 5.0, 2.0)
    lemma_ok = max(ratios) <= 10.0 * ref

    eps = manifest["config"]["eps"]
    try:
        coer = functionals.coercivity_report(series, eps, t_lo=args.t_lo)
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

    res = functionals.residual_F(series, params)
    t_end = float(series.t[-1])
    mask = series.t <= 0.8 * t_end
    max_rel = float(np.max(res.relative[mask])) if np.any(mask) else float("nan")
    res_ok = not np.isfinite(max_rel) or max_rel < 0.05

    report = {
        "lemma31": {"max_ratio": max(ratios), "ref_ratio_t5": ref, "ok": lemma_ok},
        "coercivity": coer_payload,
        "residual_F": {"max_rel": max_rel, "ok": res_ok},
    }
    with open(run_dir / "verify.json", "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0 if (lemma_ok and coer_ok and res_ok) else 1


def _cmd_sweep(args) -> int:
    doc = runio.load_json(args.config)
    base = runio.sim_config_from_dict(doc.get("base") or doc)
    eps_list = doc.get("eps_list")
    if not eps_list:
        raise ConfigError("missing key 'eps_list' in sweep config")
    refine = args.refine if args.refine is not None else int(doc.get("refine", 2))
    tau = args.tau if args.tau is not None else float(doc.get("tau", DEFAULT_TAU))

    result = sweep(base, eps_list, refine=refine, jobs=args.jobs)
    fit_payload: dict = {"bound": {"kind": result.bound.kind, "exponent": result.bound.exponent}}
    unstable = sum(row.outcome == "unstable" for row in result.rows)
    if unstable:
        fit_payload["unstable_rows"] = unstable
    verdict_tag = "not-applicable"
    try:
        if result.bound.kind == "algebraic":
            fit = fit_power_law(result)
        elif result.bound.kind == "exponential":
            fit = fit_exponential_law(result, base.params.p)
        else:
            fit = None
        if fit is not None:
            fit_payload["fit"] = asdict(fit)
            if result.bound.kind == "algebraic":
                verdict = compare_to_theory(fit, result.bound, tau)
                if unstable and verdict.verdict == "consistent":
                    # the fit left out rows that failed numerically
                    verdict = replace(verdict, verdict="inconclusive")
                verdict_tag = verdict.verdict
                fit_payload["verdict"] = asdict(verdict)
    except BlowupLabError as exc:
        fit_payload["fit_error"] = str(exc)

    sweep_cfg = {
        "base": runio.sim_config_to_dict(base),
        "eps_list": [float(e) for e in eps_list],
        "refine": refine,
        "tau": tau,
    }
    out = runio.default_out_dir(args.out)
    sweep_dir = runio.write_sweep_artifacts(out, sweep_cfg, result, fit_payload)
    if not args.quiet:
        print(f"verdict={verdict_tag} dir={sweep_dir}", file=sys.stderr)
    return 1 if verdict_tag == "inconsistent" else 0


def _cmd_report(args) -> int:
    out = runio.default_out_dir(args.out)
    dest = out / "summary.csv"
    n = runio.merge_manifests(out, dest)
    print(f"{n} run(s) merged into {dest}", file=sys.stderr)
    return 0


_DISPATCH = {
    "classify": _cmd_classify,
    "specfun-check": _cmd_specfun_check,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BlowupLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
