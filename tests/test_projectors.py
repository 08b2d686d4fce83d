import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimred import manybody, projectors
from dimred.errors import ToleranceError


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
    assert np.array_equal(w, np.sqrt(k / 100.0))


def test_weight_m_branches():
    n, xi = 100, 0.2
    w = projectors.make_weight("m", n, xi)
    cut = n ** (1 - 2 * xi)  # ~15.85
    for k in range(n + 1):
        if k >= cut:
            assert w[k] == pytest.approx(math.sqrt(k / n), rel=1e-14)
        else:
            assert w[k] == pytest.approx(
                0.5 * (n ** (-1 + xi) * k + n**-xi), rel=1e-14)


def test_weight_m0_value():
    n, xi = 64, 0.1
    w = projectors.make_weight("m", n, xi)
    assert w[0] == pytest.approx(0.5 * n**-xi, rel=1e-14)


@given(n=st.integers(min_value=4, max_value=5000),
       xi=st.floats(min_value=0.01, max_value=0.49))
@settings(max_examples=100, deadline=None)
def test_weight_n_m_sandwich(n, xi):
    wn = projectors.make_weight("n", n)
    wm = projectors.make_weight("m", n, xi)
    assert np.all(wn <= wm + 1e-14)
    assert np.all(wm <= wn + 0.5 * n**-xi + 1e-14)


def test_weight_norm_checks_example():
    rep = projectors.weight_norm_checks(100, 0.2)
    assert rep.l_norm <= 100**0.2 + 1e-12
    assert rep.l_norm <= rep.l_bound
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
    # the factorial moments of a basis-mode orbital give its occupation histogram
    rng = np.random.default_rng(5)
    fock = manybody.FockBasis(4, 4)
    proj = projectors.basis_mode_projector(4)
    for _ in range(5):
        amps = rng.normal(size=fock.dim) + 1j * rng.normal(size=fock.dim)
        state = manybody.ManyBodyState(fock, amps / np.linalg.norm(amps))
        by_sector = projectors.counting_distribution(state, proj)
        by_moments = projectors._counting_moments(state, proj)
        assert by_sector.source == "sector"
        assert by_moments == pytest.approx(by_sector.probs, abs=1e-12)


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
    proj = projectors.CondensateProjector(phi)
    amps = rng.normal(size=fock.dim) + 1j * rng.normal(size=fock.dim)
    amps /= np.linalg.norm(amps)
    probs = projectors.counting_distribution(manybody.ManyBodyState(fock, amps), proj).probs
    assert probs == pytest.approx(_uncapped_measure(fock, amps, phi), abs=1e-10)


@pytest.mark.parametrize("cap", [1, 2])
def test_counting_capped_state_against_untruncated_measure(cap):
    # a capped space is not invariant under n_phi; the measure must still be
    # that of the same state in the full Fock space.  The same orbital without
    # the condensate mode holds at most `cap` particles, so a(phi)^j psi
    # reaches no row for j > cap.
    rng = np.random.default_rng(17 + cap)
    fock = manybody.FockBasis(5, 6, cap)
    assert fock.dim < manybody.symmetric_dimension(5, 6)
    phi = rng.normal(size=5) + 1j * rng.normal(size=5)
    amps = rng.normal(size=fock.dim) + 1j * rng.normal(size=fock.dim)
    amps /= np.linalg.norm(amps)
    state = manybody.ManyBodyState(fock, amps)
    excited = np.concatenate([[0.0], phi[1:]])
    for orbital in (phi / np.linalg.norm(phi), excited / np.linalg.norm(excited)):
        proj = projectors.CondensateProjector(orbital)
        expected = _uncapped_measure(fock, amps, orbital)
        dist = projectors.counting_distribution(state, proj)
        assert dist.source == "moments"
        assert np.max(np.abs(dist.probs - expected)) < 1e-12
        k = np.arange(7)
        assert gamma_bridge(state, proj).alpha_n2 == pytest.approx(
            float(np.sum(k * expected)) / 6, abs=1e-12)


def test_counting_moments_roundoff_bound_raises():
    # eps * 3^40 is far above the 1e-10 limit of the alternating sum
    fock = manybody.FockBasis(2, 40)
    amps = np.full(fock.dim, 1.0 / math.sqrt(fock.dim), dtype=complex)
    proj = projectors.CondensateProjector(np.array([0.6, 0.8j]))
    with pytest.raises(ToleranceError, match="roundoff"):
        projectors.counting_distribution(manybody.ManyBodyState(fock, amps), proj)


def test_counting_negative_atom_raises(monkeypatch):
    state = two_mode_state(1.0, 0.5, 0.25)
    proj = projectors.CondensateProjector(np.array([0.6, 0.8]))
    monkeypatch.setattr(projectors, "_counting_moments",
                        lambda state, projector: np.array([0.5, 0.500001, -1e-6]))
    with pytest.raises(ToleranceError):
        projectors.counting_distribution(state, proj)
    with pytest.raises(ToleranceError):
        projectors.alpha(state, projectors.make_weight("n", 2), proj)


@pytest.mark.parametrize("cap", [None, 2])
def test_general_orbital_counting_of_a_momentum_sector_state(cap):
    # n_phi of an orbital spread over two momenta leaves the K = 0 sector, so
    # the sector state must count as the same state on all capped rows
    modes = SimpleNamespace(mode_kx=np.array([0, 0, 1, -1, 2, -2]), momentum_modulus=None,
                            mode_parity=np.zeros(6, dtype=np.int64), external=None)
    full = manybody.FockBasis(6, 3, cap)
    sector = full.subset(next(rows for rows in manybody.sectors(modes, full)
                              if full.occupations[rows[0]].astype(np.int64) @ modes.mode_kx == 0))
    k_zero = full.occupations[full.occupations.astype(np.int64) @ modes.mode_kx == 0]
    assert sector.dim < full.dim and np.array_equal(sector.occupations, k_zero)
    amps = np.array([1.0, 1j]) @ np.random.default_rng(5).normal(size=(2, sector.dim))
    amps /= np.linalg.norm(amps)
    embedded = np.zeros(full.dim, dtype=complex)
    embedded[full.lookup(sector.occupations)] = amps
    coeffs = np.array([0.8, 0.0, 0.6j, 0.0, 0.0, 0.0])
    proj = projectors.CondensateProjector(coeffs)
    in_sector = manybody.ManyBodyState(sector, amps)
    on_all = manybody.ManyBodyState(full, embedded)
    got = projectors.counting_distribution(in_sector, proj).probs
    ref = projectors.counting_distribution(on_all, proj).probs
    assert np.max(np.abs(got - ref)) < 1e-12
    assert gamma_bridge(in_sector, proj).alpha_n2 == pytest.approx(
        gamma_bridge(on_all, proj).alpha_n2, abs=1e-14)


def test_alpha_n2_condensed_zero():
    fock = manybody.FockBasis(3, 5)
    amps = np.zeros(fock.dim, dtype=complex)
    amps[fock.lookup(np.array([[5, 0, 0]], dtype=np.uint8))[0]] = 1.0
    state = manybody.ManyBodyState(fock, amps)
    proj = projectors.basis_mode_projector(3)
    # alpha_n2 is alpha_f for the table f(k) = k/N
    assert projectors.alpha(state, np.arange(6) / 5, proj) == pytest.approx(0.0, abs=1e-14)


def test_alpha_n2_two_mode_equals_half_and_q1_norm():
    state = two_mode_state(1.0, 0.0, 1.0)
    proj = projectors.basis_mode_projector(2)
    a = projectors.alpha(state, np.arange(3) / 2, proj)
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


def alpha_command(capsys, tmp_path, state, *flags) -> dict:
    """The JSON of `dimred alpha` on a dump of the state."""
    from dimred.cli import main

    path = tmp_path / "state.npz"
    np.savez(path, occupations=state.fock.occupations, amplitudes=state.amplitudes,
             time=state.time)
    capsys.readouterr()
    assert main(["alpha", str(path), *flags]) == 0
    return json.loads(capsys.readouterr().out)


def test_alpha_xi_condensed(capsys, tmp_path):
    # alpha_xi = alpha_m + |E^psi - E^Phi|; on the condensate with no gap it is m(0)
    n, xi = 16, 0.1
    fock = manybody.FockBasis(2, n)
    amps = np.zeros(fock.dim, dtype=complex)
    amps[fock.lookup(np.array([[n, 0]], dtype=np.uint8))[0]] = 1.0
    state = manybody.ManyBodyState(fock, amps)
    out = alpha_command(capsys, tmp_path, state, "--xi", str(xi))
    assert out["alpha_xi"] == pytest.approx(0.5 * n**-xi, rel=1e-12)
    assert out["alpha_m"] == out["alpha_xi"]
    assert out["alpha_n2"] == 0.0 and out["trace_distance"] == pytest.approx(0.0, abs=1e-14)


def test_alpha_xi_sum_and_lower_bound(capsys, tmp_path):
    state = two_mode_state(0.8, 0.4, 0.2)
    out = alpha_command(capsys, tmp_path, state, "--xi", "0.1", "--energy-gap", "-0.3")
    assert out["alpha_m"] == pytest.approx(
        projectors.alpha(state, projectors.make_weight("m", 2, 0.1),
                         projectors.basis_mode_projector(2)), rel=1e-15)
    assert out["alpha_xi"] == pytest.approx(out["alpha_m"] + 0.3, rel=1e-12)
    assert out["alpha_xi"] >= out["alpha_m"]


# ---------------------------------------------------------------------------
# trace distance and the rate bridge
# ---------------------------------------------------------------------------


def gamma_bridge(state, proj):
    return projectors.rate_bridge(manybody.reduced_density(state, 1).matrix, proj)


@pytest.mark.parametrize("general", [False, True], ids=["basis mode", "general orbital"])
def test_rate_bridge_alpha_n2_is_the_lowered_norm(general):
    # alpha_n2 = 1 - <n_phi>/N with <n_phi> = |a(phi) psi|^2
    rng = np.random.default_rng(31)
    fock = manybody.FockBasis(5, 4, 3)
    if general:
        phi = rng.normal(size=5) + 1j * rng.normal(size=5)
        proj = projectors.CondensateProjector(phi / np.linalg.norm(phi))
    else:
        proj = projectors.basis_mode_projector(5, 1)
    for _ in range(10):
        amps = rng.normal(size=fock.dim) + 1j * rng.normal(size=fock.dim)
        state = manybody.ManyBodyState(fock, amps / np.linalg.norm(amps))
        lowered = projectors._lower_along(state, proj.coeffs).norm ** 2
        assert gamma_bridge(state, proj).alpha_n2 == pytest.approx(1.0 - lowered / 4, abs=1e-13)


def test_rate_bridge_reads_the_dense_q1_norm():
    # <psi, q_1 psi> of the tensor-space oracle, from its own gamma^(1)
    rng = np.random.default_rng(8)
    for dx, dy, n in ((2, 2, 3), (3, 1, 4), (2, 1, 2)):
        sys_ = projectors.DenseSystem(dx, dy, n, rng=rng)
        psi = sys_.random_state(rng, condensate_weight=1.0)
        br = projectors.rate_bridge(sys_.gamma1(psi), projectors.CondensateProjector(sys_.phi))
        assert br.alpha_n2 == pytest.approx(sys_.q1_norm_sq(psi), abs=1e-13)
        assert br.holds


def test_rate_bridge_condensed():
    fock = manybody.FockBasis(3, 4)
    amps = np.zeros(fock.dim, dtype=complex)
    amps[fock.lookup(np.array([[4, 0, 0]], dtype=np.uint8))[0]] = 1.0
    state = manybody.ManyBodyState(fock, amps)
    br = gamma_bridge(state, projectors.basis_mode_projector(3))
    assert br.alpha_n2 == pytest.approx(0.0, abs=1e-12)
    assert br.trace_dist == pytest.approx(0.0, abs=1e-10)
    assert br.holds


def test_rate_bridge_two_mode_example():
    state = two_mode_state(1.0, 0.0, 1.0)
    br = gamma_bridge(state, projectors.basis_mode_projector(2))
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
        assert gamma_bridge(state, proj).holds


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
        br = gamma_bridge(state, proj)
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
