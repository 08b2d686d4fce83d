import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimred import scaling
from dimred.errors import DomainError, InsufficientDataError


def test_make_point_direct_power():
    p = scaling.make_point(10**4, 0.1, 0.5)
    assert p.mu == pytest.approx(1e-3, rel=1e-12)
    assert p.density_scale == pytest.approx(1e6, rel=1e-12)


def test_make_point_exponent_arithmetic():
    # N/eps^2 = 1e12, beta = 1/3: mu = 1e-4 and mu/eps = 1
    p = scaling.make_point(10**4, 1e-4, 1.0 / 3.0)
    assert p.mu == pytest.approx(1e-4, rel=1e-12)
    assert p.mu_over_eps == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("kwargs,field", [
    (dict(n_particles=1, epsilon=0.1, beta=0.5), "n_particles"),
    (dict(n_particles=10, epsilon=1.0, beta=0.5), "epsilon"),
    (dict(n_particles=10, epsilon=0.0, beta=0.5), "epsilon"),
    (dict(n_particles=10, epsilon=0.1, beta=1.0), "beta"),
    (dict(n_particles=10, epsilon=0.1, beta=0.0), "beta"),
])
def test_make_point_domain_errors_name_the_field(kwargs, field):
    with pytest.raises(DomainError) as err:
        scaling.make_point(**kwargs)
    assert field in str(err.value)


def test_epsilon_accepted_up_to_one():
    p = scaling.make_point(10, 0.999999, 0.5)
    assert p.epsilon < 1.0


def test_mu_rederivation_is_bit_identical():
    p = scaling.make_point(137, 0.037, 0.41)
    assert p.mu == p.density_scale ** (-p.beta)


def power_law(beta, gamma, n_values):
    """The sequence eps = N^-gamma at the given particle numbers."""
    return [scaling.make_point(n, float(n) ** -gamma, beta) for n in n_values]


def test_classify_power_law_example():
    seq = power_law(0.5, 1.0, [100, 1000, 10000])
    c = scaling.classify(seq)
    ratios = [p.eps2_over_mu for p in seq]
    assert ratios == pytest.approx([0.1, 10**-1.5, 0.01], rel=1e-12)
    assert [p.mu_over_eps for p in seq] == pytest.approx(ratios, rel=1e-12)
    assert c.admissible and c.moderately_confining


def test_classify_constant_epsilon_not_admissible():
    pts = tuple(scaling.make_point(n, 0.1, 0.5) for n in (100, 1000, 10000))
    c = scaling.classify(pts)
    assert not c.admissible  # eps^2/mu grows as mu shrinks at fixed eps
    assert c.moderately_confining


def test_classify_below_window_not_admissible():
    # beta = 1/3 needs gamma > 1/4; gamma = 1/8 fails
    seq = power_law(1.0 / 3.0, 0.125, [10**3, 10**5, 10**7])
    assert not scaling.classify(seq).admissible


def test_classify_needs_three_points():
    seq = power_law(0.5, 1.0, [100, 1000])
    with pytest.raises(InsufficientDataError):
        scaling.classify(seq)


def test_sequence_must_increase():
    pts = [scaling.make_point(n, eps, 0.5) for n, eps in ((100, 0.1), (100, 0.05), (1000, 0.01))]
    with pytest.raises(DomainError, match="increasing"):
        scaling.classify(pts)


def test_sequence_must_share_one_beta():
    pts = [scaling.make_point(n, 1.0 / n, beta)
           for n, beta in ((100, 0.5), (1000, 0.4), (10**4, 0.5))]
    with pytest.raises(DomainError, match="one beta"):
        scaling.classify(pts)


def test_power_law_window_examples():
    lo, hi = scaling.power_law_window(1.0 / 3.0)
    assert lo == pytest.approx(0.25, rel=1e-12)
    assert hi == pytest.approx(1.0, rel=1e-12)
    lo, hi = scaling.power_law_window(0.6)
    assert lo == pytest.approx(0.75, rel=1e-12)
    assert hi == math.inf
    lo, hi = scaling.power_law_window(1e-9)
    assert lo < 1e-8 and hi < 1e-8


def test_theoretical_rate_example():
    p = scaling.make_point(10**4, 1e-4, 0.5)
    r = scaling.theoretical_rate(p, 1.0)
    assert r.confinement_term == pytest.approx(1e-2, rel=1e-12)
    assert r.reduction_term == pytest.approx(1e-1, rel=1e-12)
    assert r.particle_term == pytest.approx(10**-0.5, rel=1e-12)
    assert r.coupling_term == pytest.approx(1e-12, rel=1e-9)
    assert r.total == pytest.approx(0.4262277660178379, rel=1e-10)


def test_theoretical_rate_eta_limit():
    p = scaling.make_point(10**4, 1e-4, 0.5)
    big = scaling.theoretical_rate(p, 50.0)
    assert big.coupling_term < 1e-300
    assert big.total == pytest.approx(
        big.confinement_term + big.reduction_term + big.particle_term, rel=1e-14)


def test_theoretical_rate_decreases_along_admissible_sequence():
    seq = power_law(0.5, 1.0, [10**2, 10**3, 10**4, 10**5])
    totals = [scaling.theoretical_rate(p, 1.0).total for p in seq]
    assert all(b < a for a, b in zip(totals, totals[1:]))


def test_rate_inputs_validation():
    # xi and beta1 are checked at config load (test_config_validates_rate_inputs)
    p = scaling.make_point(100, 0.1, 0.4)
    for eta in (0.0, -1.0):
        with pytest.raises(DomainError, match="eta"):
            scaling.theoretical_rate(p, eta)


@given(
    n=st.integers(min_value=2, max_value=10**7),
    eps=st.floats(min_value=1e-6, max_value=0.999),
    beta=st.floats(min_value=1e-3, max_value=0.999),
)
@settings(max_examples=200, deadline=None)
def test_mu_invariant_property(n, eps, beta):
    p = scaling.make_point(n, eps, beta)
    assert abs(p.mu - p.density_scale ** (-beta)) <= 1e-12 * p.mu
    assert p.mu > 0


@given(
    beta=st.floats(min_value=0.05, max_value=0.95),
    gamma_frac=st.floats(min_value=0.05, max_value=0.95),
)
@settings(max_examples=60, deadline=None)
def test_window_interior_classifies_admissible(beta, gamma_frac):
    lo, hi = scaling.power_law_window(beta)
    top = min(hi if math.isfinite(hi) else lo * 4.0 + 1.0, 3.0)
    gamma = lo + gamma_frac * (top - lo)
    if not (lo * 1.05 < gamma < top * 0.95):
        return
    # large-N tail of a window-interior power law classifies admissible
    ns = [10**6, 10**8, 10**10]
    seq = power_law(beta, gamma, ns)
    c = scaling.classify(seq)
    exps_adm = beta * (1 + 2 * gamma) - 2 * gamma
    if all(p.eps2_over_mu < 0.5 for p in seq) and exps_adm < -0.01:
        assert c.admissible
