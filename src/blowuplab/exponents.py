"""Critical exponents and blow-up region classification.

Implements the Strauss and Glassey exponents, the combined-nonlinearity
quantity lambda(p, q, d) = (q-1)((d-1)p - 2), the admissible-damping
threshold mu_star, the dimension shift sigma(mu), the region classifier,
and the theoretical lifespan exponents.
"""

import enum
import math
from dataclasses import dataclass

from .errors import ConfigError, DomainError

# Relative tolerance used to decide p == p_G (the critical branch).
CRITICAL_REL_TOL = 1e-9


@dataclass(frozen=True)
class ModelParams:
    """Coefficients of u_tt - Lap u + mu/(1+t) u_t = a|u_t|^p + b|u|^q."""

    N: int
    mu: float
    p: float
    q: float
    a: int = 1
    b: int = 1

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ConfigError(f"N must be >= 1, got {self.N}")
        # the sphere area |S^{N-1}| divides by Gamma(N/2), past a float's range from N = 344
        if self.N >= 344:
            raise ConfigError(f"N must be <= 343, got {self.N}")
        if not (math.isfinite(self.mu) and self.mu >= 0):
            raise ConfigError(f"mu must be finite and >= 0, got {self.mu}")
        if not all(math.isfinite(power) and power > 1 for power in (self.p, self.q)):
            raise ConfigError(f"powers must be finite and exceed 1, got p={self.p}, q={self.q}")
        if self.N >= 3 and self.q > 2 * self.N / (self.N - 2):
            raise ConfigError(
                f"q={self.q} violates q <= 2N/(N-2) = {2 * self.N / (self.N - 2)}"
            )
        if self.a not in (0, 1) or self.b not in (0, 1):
            raise ConfigError(f"a, b must be flags in {{0, 1}}, got a={self.a}, b={self.b}")


class RegionClassification(enum.Enum):
    DERIVATIVE_BLOWUP = "DerivativeBlowUp"
    POWER_BLOWUP = "PowerBlowUp"
    COMBINED_BLOWUP = "CombinedBlowUp"
    NO_THEOREM = "NoTheorem"


@dataclass(frozen=True)
class LifespanBound:
    """Theoretical upper bound on the lifespan: T <= C eps^{-k} or exp(C eps^{-r})."""

    kind: str  # "algebraic" | "exponential" | "none"
    exponent: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("algebraic", "exponential", "none"):
            raise ConfigError(f"unknown bound kind {self.kind!r}")
        if self.kind != "none" and not (self.exponent and self.exponent > 0):
            raise ConfigError("exponent must be positive for a stated bound")


def glassey_exponent(d: float) -> float:
    """p_G(d) = 1 + 2/(d-1); derivative-nonlinearity critical power."""
    if d <= 1:
        raise DomainError(f"dimension argument must exceed 1, got {d}")
    return 1.0 + 2.0 / (d - 1.0)


def strauss_exponent(d: float) -> float:
    """q_S(d): positive root of (d-1)q^2 - (d+1)q - 2 = 0.

    Both terms of the closed form's numerator are positive for d > 1, so it
    suffers no cancellation, near d = 1+ included.
    """
    if d <= 1:
        raise DomainError(f"dimension argument must exceed 1, got {d}")
    return (d + 1.0 + math.sqrt((d + 1.0) ** 2 + 8.0 * (d - 1.0))) / (2.0 * (d - 1.0))


def lambda_combined(p: float, q: float, d: float) -> float:
    """lambda(p, q, d) = (q-1)((d-1)p - 2)."""
    if p <= 1 or q <= 1:
        raise DomainError(f"powers must exceed 1, got p={p}, q={q}")
    return (q - 1.0) * ((d - 1.0) * p - 2.0)


def mu_star(p: float, q: float, N: float) -> float:
    """Damping threshold: lambda(p, q, N + mu_star) = 4 exactly."""
    if p <= 1 or q <= 1:
        raise DomainError(f"powers must exceed 1, got p={p}, q={q}")
    return 2.0 * (q + 1.0) / (p * (q - 1.0)) - N + 1.0


def sigma_shift(mu: float) -> float:
    """Piecewise dimension shift: 2mu on [0,1), 2 on [1,2), mu on [2,inf)."""
    if mu < 0:
        raise DomainError(f"mu must be >= 0, got {mu}")
    if mu < 1:
        return 2.0 * mu
    if mu < 2:
        return 2.0
    return mu


def classify(params: ModelParams) -> RegionClassification:
    """Applicable-theorem tag, checked in documented priority order."""
    if params.a + params.b < 1:
        raise ConfigError("at least one nonlinearity must be active to classify")
    d = params.N + params.mu
    if d <= 1:
        raise ConfigError(f"N + mu must exceed 1 for the exponents, got {d}")
    p_g = glassey_exponent(d)
    q_s = strauss_exponent(d)
    if params.a == 1 and params.p <= p_g * (1.0 + CRITICAL_REL_TOL):
        return RegionClassification.DERIVATIVE_BLOWUP
    if params.b == 1 and params.q <= q_s * (1.0 + CRITICAL_REL_TOL):
        return RegionClassification.POWER_BLOWUP
    if (
        params.a == 1
        and params.b == 1
        and lambda_combined(params.p, params.q, d) < 4.0
        and params.p > p_g
        and params.q > q_s
    ):
        return RegionClassification.COMBINED_BLOWUP
    return RegionClassification.NO_THEOREM


def lifespan_exponent(params: ModelParams) -> LifespanBound:
    """Theoretical lifespan bound for the classified blow-up region.

    Kind "none" when no bound is stated: in the pure-power region and where
    no theorem applies.
    """
    tag = classify(params)
    d = params.N + params.mu
    if tag is RegionClassification.COMBINED_BLOWUP:
        lam = lambda_combined(params.p, params.q, d)
        return LifespanBound("algebraic", 2.0 * params.p * (params.q - 1.0) / (4.0 - lam))
    if tag is RegionClassification.DERIVATIVE_BLOWUP:
        p_g = glassey_exponent(d)
        if abs(params.p - p_g) <= CRITICAL_REL_TOL * p_g:
            return LifespanBound("exponential", params.p - 1.0)
        return LifespanBound(
            "algebraic",
            2.0 * (params.p - 1.0) / (2.0 - (d - 1.0) * (params.p - 1.0)),
        )
    # Pure-power region (its bound belongs to prior literature) or no theorem.
    return LifespanBound("none")


def thresholds(params: ModelParams) -> dict:
    """All critical quantities for reporting alongside a classification."""
    d = params.N + params.mu
    return {
        "p_G": glassey_exponent(d),
        "q_S": strauss_exponent(d),
        "lambda": lambda_combined(params.p, params.q, d),
        "mu_star": mu_star(params.p, params.q, params.N),
        "sigma": sigma_shift(params.mu),
    }
