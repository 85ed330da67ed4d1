"""Critical exponents, region classification, and lifespan bounds."""

import json
import math
import os
import subprocess
import sys

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs

from blowuplab.errors import ConfigError, DomainError
from blowuplab.exponents import (
    LifespanBound,
    ModelParams,
    RegionClassification,
    classify,
    glassey_exponent,
    lambda_combined,
    lifespan_exponent,
    mu_star,
    sigma_shift,
    strauss_exponent,
    thresholds,
)


class TestModelParams:
    def test_valid(self):
        p = ModelParams(N=3, mu=0.5, p=1.9, q=2.2, a=1, b=1)
        assert (p.a, p.b) == (1, 1)

    def test_linear_allowed(self):
        p = ModelParams(N=1, mu=0.5, p=2.0, q=2.0, a=0, b=0)
        assert (p.a, p.b) == (0, 0)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(N=0, mu=0.5, p=2.0, q=2.0),
            dict(N=1, mu=-0.1, p=2.0, q=2.0),
            dict(N=1, mu=0.5, p=1.0, q=2.0),
            dict(N=1, mu=0.5, p=2.0, q=0.9),
            dict(N=3, mu=0.5, p=2.0, q=6.5),  # Sobolev: q <= 2N/(N-2) = 6
            dict(N=1, mu=0.5, p=2.0, q=2.0, a=2),
            dict(N=1, mu=0.5, p=2.0, q=2.0, b=-1),
            dict(N=1, mu=0.5, p=math.inf, q=2.0),
            dict(N=1, mu=0.5, p=2.0, q=math.inf),
            dict(N=1, mu=0.5, p=math.nan, q=2.0),
        ],
    )
    def test_rejections(self, kw):
        with pytest.raises(ConfigError):
            ModelParams(**kw)


class TestCriticalExponents:
    def test_glassey(self):
        assert glassey_exponent(2.0) == pytest.approx(3.0)
        assert glassey_exponent(3.0) == pytest.approx(2.0)
        assert glassey_exponent(1.5) == pytest.approx(5.0)

    def test_strauss_quadratic_root(self):
        # q_S solves (d-1)q^2 - (d+1)q - 2 = 0; check the defining equation.
        for d in (1.5, 2.0, 3.0, 3.5, 10.0):
            q = strauss_exponent(d)
            assert q > 1.0
            assert (d - 1.0) * q * q - (d + 1.0) * q - 2.0 == pytest.approx(
                0.0, abs=1e-10 * q * q
            )

    def test_strauss_closed_form_3d(self):
        assert strauss_exponent(3.0) == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-13)

    def test_strauss_near_one(self):
        # d -> 1+: the root diverges like 2/(d-1); it must stay accurate.
        d = 1.0 + 1e-8
        q = strauss_exponent(d)
        assert (d - 1.0) * q * q - (d + 1.0) * q - 2.0 == pytest.approx(
            0.0, abs=1e-8 * q
        )

    @settings(max_examples=300, deadline=None)
    @given(hs.floats(1.0 + 1e-15, 1e8))
    def test_strauss_matches_50_digit_root(self, d):
        with mpmath.workdps(50):
            dm = mpmath.mpf(d)
            exact = (dm + 1 + mpmath.sqrt((dm + 1) ** 2 + 8 * (dm - 1))) / (2 * (dm - 1))
            assert abs(strauss_exponent(d) / exact - 1) <= 1e-15

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            glassey_exponent(1.0)
        with pytest.raises(DomainError):
            strauss_exponent(0.5)

    def test_lambda_and_mu_star(self):
        assert lambda_combined(1.9, 2.2, 3.5) == pytest.approx(
            1.2 * (2.5 * 1.9 - 2.0)
        )
        # mu_star is the mu solving lambda(p, q, N + mu) = 4.
        p, q, N = 1.9, 2.2, 3
        ms = mu_star(p, q, N)
        assert lambda_combined(p, q, N + ms) == pytest.approx(4.0, rel=1e-12)

    def test_sigma_shift(self):
        assert sigma_shift(0.0) == 0.0
        assert sigma_shift(0.5) == 1.0
        assert sigma_shift(1.0) == 2.0
        assert sigma_shift(1.7) == 2.0
        assert sigma_shift(2.0) == 2.0
        assert sigma_shift(3.0) == 3.0
        with pytest.raises(DomainError):
            sigma_shift(-1.0)


class TestClassify:
    def test_derivative_region(self):
        # N=1, mu=0.5: d=1.5, p_G = 5; p=2 <= 5.
        tag = classify(ModelParams(N=1, mu=0.5, p=2.0, q=4.0, a=1, b=0))
        assert tag is RegionClassification.DERIVATIVE_BLOWUP

    def test_power_region(self):
        # a=0 disables the derivative branch; q below Strauss.
        d = 1.5
        q_s = strauss_exponent(d)
        tag = classify(ModelParams(N=1, mu=0.5, p=2.0, q=0.9 * q_s, a=0, b=1))
        assert tag is RegionClassification.POWER_BLOWUP

    def test_combined_region(self):
        tag = classify(ModelParams(N=3, mu=0.5, p=1.9, q=2.2, a=1, b=1))
        assert tag is RegionClassification.COMBINED_BLOWUP

    def test_priority_derivative_over_combined(self):
        # Subcritical p with both nonlinearities: derivative branch wins.
        d = 3.5
        p_g = glassey_exponent(d)
        tag = classify(ModelParams(N=3, mu=0.5, p=0.9 * p_g, q=2.2, a=1, b=1))
        assert tag is RegionClassification.DERIVATIVE_BLOWUP

    def test_no_theorem(self):
        # Large p and q with lambda >= 4: outside every theorem.
        tag = classify(ModelParams(N=3, mu=0.5, p=3.0, q=4.0, a=1, b=1))
        assert tag is RegionClassification.NO_THEOREM

    def test_critical_boundary_inclusive(self):
        d = 1.5
        p_g = glassey_exponent(d)  # exactly representable? use the value itself
        tag = classify(ModelParams(N=1, mu=0.5, p=p_g, q=20.0, a=1, b=0))
        assert tag is RegionClassification.DERIVATIVE_BLOWUP

    def test_linear_rejected(self):
        with pytest.raises(ConfigError):
            classify(ModelParams(N=1, mu=0.5, p=2.0, q=2.0, a=0, b=0))
        # N + mu = 1: the critical exponents do not exist
        with pytest.raises(ConfigError):
            classify(ModelParams(N=1, mu=0.0, p=2.0, q=2.0, a=1, b=0))


class TestLifespanExponent:
    def test_subcritical_derivative_value(self):
        # N=1, mu=0.5, p=2: k = 2(p-1)/(2 - (N+mu-1)(p-1)) = 2/1.5 = 4/3.
        bound = lifespan_exponent(ModelParams(N=1, mu=0.5, p=2.0, q=4.0, a=1, b=0))
        assert bound.kind == "algebraic"
        assert bound.exponent == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_combined_value(self):
        # N=3, mu=0.5: lambda = 1.2(2.5*1.9 - 2) = 3.3, k = 2*1.9*1.2/0.7.
        bound = lifespan_exponent(ModelParams(N=3, mu=0.5, p=1.9, q=2.2, a=1, b=1))
        assert bound.kind == "algebraic"
        assert bound.exponent == pytest.approx(2.0 * 1.9 * 1.2 / 0.7, rel=1e-12)
        assert bound.exponent == pytest.approx(6.5143, abs=5e-5)

    def test_critical_exponential(self):
        d = 1.5
        p_g = glassey_exponent(d)
        bound = lifespan_exponent(ModelParams(N=1, mu=0.5, p=p_g, q=20.0, a=1, b=0))
        assert bound.kind == "exponential"
        assert bound.exponent == pytest.approx(p_g - 1.0)

    def test_power_region_no_bound(self):
        d = 1.5
        q_s = strauss_exponent(d)
        bound = lifespan_exponent(ModelParams(N=1, mu=0.5, p=2.0, q=0.9 * q_s, a=0, b=1))
        assert bound.kind == "none"
        assert bound.exponent is None

    def test_no_theorem_no_bound(self):
        bound = lifespan_exponent(ModelParams(N=3, mu=0.5, p=3.0, q=4.0, a=1, b=1))
        assert (bound.kind, bound.exponent) == ("none", None)

    @settings(max_examples=300, deadline=None)
    @given(
        N=hs.integers(1, 5),
        mu=hs.floats(0.0, 20.0),
        p=hs.floats(1.0, 10.0, exclude_min=True),
        q=hs.floats(1.0, 10.0, exclude_min=True),
        flags=hs.sampled_from([(1, 0), (0, 1), (1, 1)]),
    )
    def test_bound_states_an_exponent_exactly_where_a_theorem_does(self, N, mu, p, q, flags):
        assume(N + mu > 1 and (N < 3 or q <= 2 * N / (N - 2)))
        params = ModelParams(N=N, mu=mu, p=p, q=q, a=flags[0], b=flags[1])
        bound = lifespan_exponent(params)
        unstated = {RegionClassification.POWER_BLOWUP, RegionClassification.NO_THEOREM}
        assert (bound.kind == "none") == (classify(params) in unstated)
        if bound.kind == "none":
            assert bound.exponent is None
        else:
            assert math.isfinite(bound.exponent) and bound.exponent > 0

    def test_bound_validation(self):
        with pytest.raises(ConfigError):
            LifespanBound("algebraic", -1.0)
        with pytest.raises(ConfigError):
            LifespanBound("weird", 1.0)


def test_thresholds_payload():
    thr = thresholds(ModelParams(N=3, mu=0.5, p=1.9, q=2.2, a=1, b=1))
    assert set(thr) == {"p_G", "q_S", "lambda", "mu_star", "sigma"}
    assert thr["p_G"] == pytest.approx(1.8)
    assert thr["lambda"] == pytest.approx(3.3)


def test_exponents_import_without_the_solver_or_numpy():
    # each name is imported from its own module; the package re-exports nothing
    code = (
        "import json, sys\n"
        "ours = lambda: sorted(m for m in sys.modules if m.startswith('blowuplab'))\n"
        "import blowuplab\n"
        "bare = ours()\n"
        "import blowuplab.exponents\n"
        "print(json.dumps([bare, ours(), 'numpy' in sys.modules]))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    bare, loaded, numpy_loaded = json.loads(out.stdout)
    assert bare == ["blowuplab"]
    assert loaded == ["blowuplab", "blowuplab.errors", "blowuplab.exponents"]
    assert not numpy_loaded
