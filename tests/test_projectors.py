import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimred import manybody, projectors
from dimred.errors import DomainError, ToleranceError


def two_mode_state(c20, c11, c02):
    """N = 2 state over 2 modes with amplitudes on |2,0>, |1,1>, |0,2>."""
    fock = manybody.FockBasis(2, 2)
    amps = np.zeros(fock.dim, dtype=complex)
    for occ, val in (((2, 0), c20), ((1, 1), c11), ((0, 2), c02)):
        idx = fock.lookup(np.array([occ], dtype=np.uint8))[0]
        amps[idx] = val
    amps /= np.linalg.norm(amps)
    return manybody.ManyBodyState(fock, amps)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


def test_weight_n_exact():
    w = projectors.make_weight("n", 100)
    k = np.arange(101)
    assert np.array_equal(w(k), np.sqrt(k / 100.0))


def test_weight_m_branches():
    n, xi = 100, 0.2
    w = projectors.make_weight("m", n, xi)
    cut = n ** (1 - 2 * xi)  # ~15.85
    for k in range(n + 1):
        if k >= cut:
            assert w(np.array([k]))[0] == pytest.approx(math.sqrt(k / n), rel=1e-14)
        else:
            assert w(np.array([k]))[0] == pytest.approx(
                0.5 * (n ** (-1 + xi) * k + n**-xi), rel=1e-14)


def test_weight_m0_value():
    n, xi = 64, 0.1
    w = projectors.make_weight("m", n, xi)
    assert w(np.array([0]))[0] == pytest.approx(0.5 * n**-xi, rel=1e-14)


@given(n=st.integers(min_value=4, max_value=5000),
       xi=st.floats(min_value=0.01, max_value=0.49))
@settings(max_examples=100, deadline=None)
def test_weight_n_m_sandwich(n, xi):
    k = np.arange(n + 1)
    wn = projectors.make_weight("n", n)(k)
    wm = projectors.make_weight("m", n, xi)(k)
    assert np.all(wn <= wm + 1e-14)
    assert np.all(wm <= wn + 0.5 * n**-xi + 1e-14)


def test_weight_shift_window():
    n = 10
    w = projectors.make_weight("n", n)
    shifted = w.shifted(-2)     # f(k - 2), supported on k = 2..N (and k <= N)
    k = np.arange(n + 1)
    vals = shifted(k)
    assert vals[0] == 0.0 and vals[1] == 0.0
    assert vals[5] == pytest.approx(math.sqrt(3.0 / n))
    up = w.shifted(3)           # f(k + 3): zero weight once k + 3 > N
    assert up(np.array([n]))[0] == 0.0
    assert up(np.array([2]))[0] == pytest.approx(math.sqrt(5.0 / n))


def test_weight_operator_norm_is_sup():
    vals = np.array([0.3, 2.5, 0.1, 1.0])
    w = projectors.custom_weight(vals, 3)
    assert w.operator_norm == pytest.approx(2.5)


def test_custom_weight_rejects_negative():
    with pytest.raises(DomainError):
        projectors.custom_weight([0.1, -0.2, 0.3], 2)


def test_weight_norm_checks_example():
    rep = projectors.weight_norm_checks(100, 0.2)
    assert rep.l_norm <= 100**0.2 + 1e-12
    assert rep.l_norm_ok
    assert rep.l_n_norm <= 4.0


def test_weight_l_n_norm_bounded_across_n():
    vals = [projectors.weight_norm_checks(n, 0.1).l_n_norm for n in (100, 1000, 10000)]
    assert max(vals) <= 4.0
    # no growth trend: later values do not exceed the first by more than 20%
    assert vals[-1] <= 1.2 * vals[0] + 0.5


# ---------------------------------------------------------------------------
# counting distributions and alpha
# ---------------------------------------------------------------------------


def test_counting_fully_condensed():
    fock = manybody.FockBasis(3, 4)
    amps = np.zeros(fock.dim, dtype=complex)
    idx = fock.lookup(np.array([[4, 0, 0]], dtype=np.uint8))[0]
    amps[idx] = 1.0
    state = manybody.ManyBodyState(fock, amps)
    proj = projectors.basis_mode_projector(3)
    dist = projectors.counting_distribution(state, proj)
    assert dist.probs[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(dist.probs[1:] < 1e-12)


def test_counting_two_mode_example():
    state = two_mode_state(1.0, 0.0, 1.0)
    proj = projectors.basis_mode_projector(2)
    probs = projectors.counting_distribution(state, proj).probs
    assert probs == pytest.approx([0.5, 0.0, 0.5], abs=1e-12)


def test_counting_sums_to_one_random():
    rng = np.random.default_rng(3)
    fock = manybody.FockBasis(4, 3)
    proj = projectors.basis_mode_projector(4)
    for _ in range(10):
        amps = rng.normal(size=fock.dim) + 1j * rng.normal(size=fock.dim)
        state = manybody.ManyBodyState(fock, amps / np.linalg.norm(amps))
        dist = projectors.counting_distribution(state, proj)
        assert dist.raw_sum == pytest.approx(1.0, abs=1e-10)


def test_counting_moments_matches_sector():
    # the same basis-mode orbital without `basis_mode` takes the moments route
    rng = np.random.default_rng(5)
    fock = manybody.FockBasis(4, 4)
    proj = projectors.basis_mode_projector(4)
    general = projectors.CondensateProjector(proj.coeffs, proj.mode_my)
    for _ in range(5):
        amps = rng.normal(size=fock.dim) + 1j * rng.normal(size=fock.dim)
        state = manybody.ManyBodyState(fock, amps / np.linalg.norm(amps))
        by_sector = projectors.counting_distribution(state, proj)
        by_moments = projectors.counting_distribution(state, general)
        assert (by_sector.source, by_moments.source) == ("sector", "moments")
        assert by_moments.probs == pytest.approx(by_sector.probs, abs=1e-12)


def _uncapped_measure(fock, amps, phi):
    """P_k of the state embedded in the uncapped basis, from the eigenvectors
    of dGamma(q), q = 1 - |phi><phi| (an independent route)."""
    full = manybody.FockBasis(fock.n_modes, fock.n_particles)
    psi = np.zeros(full.dim, dtype=complex)
    psi[full.lookup(fock.occupations)] = amps
    q = np.eye(fock.n_modes) - np.outer(phi, phi.conj())
    evals, evecs = np.linalg.eigh(manybody.one_body_operator(full, q).toarray())
    expected = np.zeros(fock.n_particles + 1)
    for lam, vec in zip(evals, evecs.T):
        expected[int(round(lam))] += abs(np.vdot(vec, psi)) ** 2
    return expected


def test_counting_general_orbital_against_dense_grouping():
    # independent route: eigenprojections of dGamma(q) in the symmetric sector
    rng = np.random.default_rng(11)
    fock = manybody.FockBasis(3, 3)
    phi = rng.normal(size=3) + 1j * rng.normal(size=3)
    phi /= np.linalg.norm(phi)
    proj = projectors.CondensateProjector(phi, np.zeros(3, dtype=np.int64))
    amps = rng.normal(size=fock.dim) + 1j * rng.normal(size=fock.dim)
    amps /= np.linalg.norm(amps)
    probs = projectors.counting_distribution(manybody.ManyBodyState(fock, amps), proj).probs
    assert probs == pytest.approx(_uncapped_measure(fock, amps, phi), abs=1e-10)


@pytest.mark.parametrize("cap", [1, 2])
def test_counting_capped_state_against_untruncated_measure(cap):
    # a capped space is not invariant under n_phi; the measure must still be
    # that of the same state in the full Fock space
    rng = np.random.default_rng(17 + cap)
    fock = manybody.FockBasis(5, 6, cap)
    assert fock.dim < manybody.symmetric_dimension(5, 6)
    phi = rng.normal(size=5) + 1j * rng.normal(size=5)
    phi /= np.linalg.norm(phi)
    proj = projectors.CondensateProjector(phi, np.zeros(5, dtype=np.int64))
    amps = rng.normal(size=fock.dim) + 1j * rng.normal(size=fock.dim)
    amps /= np.linalg.norm(amps)
    state = manybody.ManyBodyState(fock, amps)
    expected = _uncapped_measure(fock, amps, phi)
    dist = projectors.counting_distribution(state, proj)
    assert dist.source == "moments"
    assert np.max(np.abs(dist.probs - expected)) < 1e-12
    k = np.arange(7)
    assert projectors.alpha_n2_expectation(state, proj) == pytest.approx(
        float(np.sum(k * expected)) / 6, abs=1e-12)


def test_counting_moments_roundoff_bound_raises():
    # eps * 3^40 is far above the 1e-10 limit of the alternating sum
    fock = manybody.FockBasis(2, 40)
    amps = np.full(fock.dim, 1.0 / math.sqrt(fock.dim), dtype=complex)
    proj = projectors.CondensateProjector(np.array([0.6, 0.8j]), np.zeros(2, dtype=np.int64))
    with pytest.raises(ToleranceError, match="roundoff"):
        projectors.counting_distribution(manybody.ManyBodyState(fock, amps), proj)


def test_counting_negative_atom_raises(monkeypatch):
    state = two_mode_state(1.0, 0.5, 0.25)
    proj = projectors.CondensateProjector(np.array([0.6, 0.8]), np.zeros(2, dtype=np.int64))
    monkeypatch.setattr(projectors, "_counting_moments",
                        lambda state, projector: np.array([0.5, 0.500001, -1e-6]))
    with pytest.raises(ToleranceError):
        projectors.counting_distribution(state, proj)
    with pytest.raises(ToleranceError):
        projectors.alpha(state, projectors.make_weight("n2", 2), proj)


@pytest.mark.parametrize("cap", [None, 2])
def test_general_orbital_counting_of_a_momentum_sector_state(cap):
    # n_phi of an orbital spread over two momenta leaves the K = 0 sector, so
    # the sector state must count as the same state on all capped rows
    mode_kx = np.array([0, 0, 1, -1, 2, -2])
    sector = manybody.FockBasis(6, 3, cap, momentum=(mode_kx, None, 0))
    full = manybody.FockBasis(6, 3, cap)
    assert sector.dim < full.dim
    amps = np.array([1.0, 1j]) @ np.random.default_rng(5).normal(size=(2, sector.dim))
    amps /= np.linalg.norm(amps)
    embedded = np.zeros(full.dim, dtype=complex)
    embedded[full.lookup(sector.occupations)] = amps
    coeffs = np.array([0.8, 0.0, 0.6j, 0.0, 0.0, 0.0])
    proj = projectors.CondensateProjector(coeffs, np.zeros(6, dtype=np.int64))
    in_sector = manybody.ManyBodyState(sector, amps)
    on_all = manybody.ManyBodyState(full, embedded)
    got = projectors.counting_distribution(in_sector, proj).probs
    ref = projectors.counting_distribution(on_all, proj).probs
    assert np.max(np.abs(got - ref)) < 1e-12
    assert projectors.alpha_n2_expectation(in_sector, proj) == pytest.approx(
        projectors.alpha_n2_expectation(on_all, proj), abs=1e-14)


def test_alpha_n2_condensed_zero():
    fock = manybody.FockBasis(3, 5)
    amps = np.zeros(fock.dim, dtype=complex)
    amps[fock.lookup(np.array([[5, 0, 0]], dtype=np.uint8))[0]] = 1.0
    state = manybody.ManyBodyState(fock, amps)
    proj = projectors.basis_mode_projector(3)
    assert projectors.alpha(state, projectors.make_weight("n2", 5), proj) == pytest.approx(0.0, abs=1e-14)


def test_alpha_n2_two_mode_equals_half_and_q1_norm():
    state = two_mode_state(1.0, 0.0, 1.0)
    proj = projectors.basis_mode_projector(2)
    a = projectors.alpha(state, projectors.make_weight("n2", 2), proj)
    assert a == pytest.approx(0.5, abs=1e-12)
    # dense oracle on the 2-mode, N=2 tensor space
    sys_ = projectors.DenseSystem(2, 1, 2, phi_x=np.array([1.0, 0.0]), chi_y=np.array([1.0]))
    psi = np.zeros((2, 2), dtype=complex)
    psi[0, 0] = 1.0 / math.sqrt(2.0)
    psi[1, 1] = 1.0 / math.sqrt(2.0)
    assert sys_.q1_norm_sq(psi) == pytest.approx(a, abs=1e-12)


def test_alpha_monotone_in_weight():
    rng = np.random.default_rng(7)
    fock = manybody.FockBasis(3, 20)
    proj = projectors.basis_mode_projector(3)
    amps = rng.normal(size=fock.dim) + 1j * rng.normal(size=fock.dim)
    state = manybody.ManyBodyState(fock, amps / np.linalg.norm(amps))
    xi = 0.2
    a_n = projectors.alpha(state, projectors.make_weight("n", 20), proj)
    a_m = projectors.alpha(state, projectors.make_weight("m", 20, xi), proj)
    assert a_n <= a_m <= a_n + 0.5 * 20**-xi + 1e-12


def test_alpha_xi_condensed():
    n, xi = 16, 0.1
    fock = manybody.FockBasis(2, n)
    amps = np.zeros(fock.dim, dtype=complex)
    amps[fock.lookup(np.array([[n, 0]], dtype=np.uint8))[0]] = 1.0
    state = manybody.ManyBodyState(fock, amps)
    proj = projectors.basis_mode_projector(2)
    ax = projectors.alpha_xi(state, proj, e_psi=1.5, e_phi=1.5, xi=xi)
    assert ax.total == pytest.approx(0.5 * n**-xi, rel=1e-12)
    assert ax.alpha_m == ax.total and ax.energy_gap == 0.0


def test_alpha_xi_sum_and_lower_bound():
    state = two_mode_state(0.8, 0.4, 0.2)
    proj = projectors.basis_mode_projector(2)
    ax = projectors.alpha_xi(state, proj, e_psi=0.45, e_phi=0.15, xi=0.1)
    assert ax.total == pytest.approx(ax.alpha_m + 0.3, rel=1e-12)
    assert ax.total >= ax.alpha_m


# ---------------------------------------------------------------------------
# trace distance and the rate bridge
# ---------------------------------------------------------------------------


def test_rate_bridge_condensed():
    fock = manybody.FockBasis(3, 4)
    amps = np.zeros(fock.dim, dtype=complex)
    amps[fock.lookup(np.array([[4, 0, 0]], dtype=np.uint8))[0]] = 1.0
    state = manybody.ManyBodyState(fock, amps)
    br = projectors.rate_bridge(state, projectors.basis_mode_projector(3))
    assert br.alpha_n2 == pytest.approx(0.0, abs=1e-12)
    assert br.trace_dist == pytest.approx(0.0, abs=1e-10)
    assert br.holds


def test_rate_bridge_two_mode_example():
    state = two_mode_state(1.0, 0.0, 1.0)
    br = projectors.rate_bridge(state, projectors.basis_mode_projector(2))
    assert br.alpha_n2 == pytest.approx(0.5, abs=1e-12)
    assert br.trace_dist == pytest.approx(1.0, abs=1e-10)
    assert br.upper == pytest.approx(2.0, abs=1e-12)
    assert br.holds


def test_rate_bridge_random_states():
    rng = np.random.default_rng(23)
    fock = manybody.FockBasis(5, 4)
    proj = projectors.basis_mode_projector(5)
    for _ in range(100):
        amps = rng.normal(size=fock.dim) + 1j * rng.normal(size=fock.dim)
        state = manybody.ManyBodyState(fock, amps / np.linalg.norm(amps))
        assert projectors.rate_bridge(state, proj).holds


def test_equivalence_family_alpha_to_zero_iff_trace_to_zero():
    # interpolate between a random state and the condensate; the sandwich
    # forces both convergences to happen together
    rng = np.random.default_rng(2)
    fock = manybody.FockBasis(3, 4)
    proj = projectors.basis_mode_projector(3)
    cond = np.zeros(fock.dim, dtype=complex)
    cond[fock.lookup(np.array([[4, 0, 0]], dtype=np.uint8))[0]] = 1.0
    noise = rng.normal(size=fock.dim) + 1j * rng.normal(size=fock.dim)
    noise /= np.linalg.norm(noise)
    alphas, tds = [], []
    for lam in (1.0, 0.3, 0.1, 0.03, 0.01):
        amps = cond + lam * noise
        state = manybody.ManyBodyState(fock, amps / np.linalg.norm(amps))
        br = projectors.rate_bridge(state, proj)
        alphas.append(br.alpha_n2)
        tds.append(br.trace_dist)
        assert br.holds
    assert all(b < a for a, b in zip(alphas, alphas[1:]))
    assert all(b < a for a, b in zip(tds, tds[1:]))
    assert tds[-1] <= math.sqrt(8 * alphas[-1]) + 1e-12


def test_trace_distance_bounds():
    a = np.diag([1.0, 0.0])
    b = np.diag([0.0, 1.0])
    assert projectors.trace_distance(a, b) == pytest.approx(2.0)
    assert projectors.trace_distance(a, a) == pytest.approx(0.0, abs=1e-14)


# ---------------------------------------------------------------------------
# dense tensor-space oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 2, 3), (2, 2, 4)])
def test_dense_identities(dims):
    dx, dy, n = dims
    rng = np.random.default_rng(hash(dims) % 2**32)
    sys_ = projectors.DenseSystem(dx, dy, n, rng=rng)
    psi = sys_.random_state(rng)
    assert sys_.residual_sum_pk(psi) < 1e-12
    for k in range(n + 1):
        assert sys_.residual_qj_pk(psi, k) < 1e-12
    assert sys_.residual_fqq(psi) < 1e-12
    assert sys_.residual_factorization() < 1e-12


def test_dense_alpha_matches_q1_norm():
    rng = np.random.default_rng(17)
    sys_ = projectors.DenseSystem(2, 2, 3, rng=rng)
    psi = sys_.random_state(rng)
    probs = sys_.counting_probs(psi)
    a_n2 = float(np.sum(np.arange(4) / 3.0 * probs))
    assert a_n2 == pytest.approx(sys_.q1_norm_sq(psi), abs=1e-12)


def test_dense_counting_probs_sum():
    rng = np.random.default_rng(19)
    sys_ = projectors.DenseSystem(2, 2, 3, rng=rng)
    psi = sys_.random_state(rng)
    assert sys_.counting_probs(psi).sum() == pytest.approx(1.0, abs=1e-12)


def test_dense_condensate_is_p0_eigenvector():
    sys_ = projectors.DenseSystem(2, 2, 3, rng=np.random.default_rng(0))
    cond = sys_.condensate()
    assert np.linalg.norm(sys_.project_k(cond, 0) - cond) < 1e-12
    for k in range(1, 4):
        assert np.linalg.norm(sys_.project_k(cond, k)) < 1e-12


def test_dense_gamma_rank_one_iff_condensed():
    sys_ = projectors.DenseSystem(2, 2, 3, rng=np.random.default_rng(1))
    gam = sys_.gamma1(sys_.condensate())
    evals = np.linalg.eigvalsh(gam)
    assert evals[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.all(evals[:-1] < 1e-12)
