"""Workload definitions: generated blowuplab configs and the commands run on them.

Seed 0 gives the reference configs below exactly. Any other seed draws one
factor f from [0.98, 1.02] and a run alternates passes at f and at its
antithetic partner 2 - f, each scaling every eps of the workload. The work
of a pass grows steeply as eps falls (about eps^-9.5 on ladder-combined), so
averaging the two partners keeps the reported figures steady across seeds
while each seed still hands the program different inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

SCALE_RANGE = (0.98, 1.02)

_COMBINED_PARAMS = {"N": 3, "mu": 0.5, "p": 1.9, "q": 2.2, "a": 1, "b": 1}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sweep" | "solve"
    base: dict  # run config at scale 1
    eps_list: tuple = ()  # sweep ladder at scale 1
    refine: int = 1
    exponent: float | None = None  # theoretical k of T ~ C eps^-k


WORKLOADS = {
    w.name: w
    for w in (
        # kernels and the dt control do most of the work: ~29k short steps.
        # Runnable, but left out of BENCHMARK.json: being interpreter-bound,
        # its wall time swings up to 1.8x with the load on a shared host.
        Workload(
            name="ladder-derivative",
            kind="sweep",
            base={
                "params": {"N": 1, "mu": 0.5, "p": 2.0, "q": 2.0, "a": 1, "b": 0},
                "eps": 0.4,
                "L": 12.0,
                "nr": 600,
                "t_max": 10.0,
            },
            eps_list=(0.4, 0.283, 0.2, 0.141, 0.1),
            refine=3,
            exponent=4.0 / 3.0,
        ),
        # the sweep sizes the domain for the predicted horizon, so per-step
        # full-length allocation dominates; the 0.6 rung alone takes ~67 s
        Workload(
            name="ladder-combined",
            kind="sweep",
            base={
                "params": dict(_COMBINED_PARAMS),
                "eps": 2.4,
                "L": 21.0,
                "nr": 1050,
                "t_max": 20.0,
            },
            eps_list=(2.4, 1.2, 0.7),
            refine=1,
            exponent=6.5143,
        ),
        # monitor snapshots (functionals, specfun) and verify's quadratures
        Workload(
            name="monitor-verify",
            kind="solve",
            base={
                "params": dict(_COMBINED_PARAMS),
                "eps": 1.2,
                "L": 21.0,
                "nr": 2100,
                "t_max": 20.0,
                "monitor_stride": 2,
            },
        ),
    )
}


def scales(seed: int) -> tuple[float, float]:
    """The antithetic pair of eps factors for a seed; (1.0, 1.0) for seed 0."""
    if seed == 0:
        return 1.0, 1.0
    f = random.Random(seed).uniform(*SCALE_RANGE)
    return f, 2.0 - f


def config(workload: Workload, scale: float) -> dict:
    """The config document handed to the program at one eps factor."""
    base = dict(workload.base, eps=workload.base["eps"] * scale)
    if workload.kind == "solve":
        return base
    return {
        "base": base,
        "eps_list": [e * scale for e in workload.eps_list],
        "refine": workload.refine,
    }


def write_config(workload: Workload, scale: float, dest: Path) -> Path:
    path = Path(dest) / f"{workload.name}.json"
    with open(path, "w") as fh:
        json.dump(config(workload, scale), fh, sort_keys=True, indent=2)
    return path
