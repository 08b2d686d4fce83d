import math
from itertools import combinations_with_replacement

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from dimred import manybody, potentials, projectors, scaling, transverse
from dimred.errors import DomainError, SizeError, ToleranceError

L = 2.0 * math.pi


@pytest.fixture(scope="module")
def setup():
    point = scaling.make_point(4, 0.5, 0.5)
    conf = potentials.harmonic_confinement(dimension=1)
    tgrid = transverse.TransverseGrid(8.0, 481)
    unscaled = transverse.solve_modes(conf, tgrid, 3)
    prof = potentials.uniform_ball(height=6.0)
    sc = potentials.scale(prof, point, d_perp=1)
    basis = manybody.build_basis(point, conf, None, sc, 5, 3, L, unscaled_mode=unscaled)
    return point, conf, unscaled, sc, basis


def condensed(fock):
    amps = np.zeros(fock.dim, dtype=complex)
    tgt = np.zeros((1, fock.n_modes), dtype=np.uint8)
    tgt[0, 0] = fock.n_particles
    amps[fock.lookup(tgt)[0]] = 1.0
    return manybody.ManyBodyState(fock, amps)


# ---------------------------------------------------------------------------
# occupation basis
# ---------------------------------------------------------------------------


def test_fock_dimension_formula():
    assert manybody.FockBasis(12, 8, dim_cap=10**6).dim == 75582
    assert manybody.FockBasis(4, 3).dim == 20
    assert manybody.FockBasis(27, 8, max_excitations=3).dim == 3654


@pytest.mark.parametrize("n_modes, n_particles, cap", [(5, 4, None), (6, 4, 2)])
def test_fock_occupations_match_reference(n_modes, n_particles, cap):
    rows = [np.bincount(c, minlength=n_modes)
            for c in combinations_with_replacement(range(n_modes), n_particles)]
    ref = np.array([r for r in rows if cap is None or n_particles - r[0] <= cap],
                   dtype=np.uint8)
    ref = ref[np.lexsort(ref.T[::-1])]
    fock = manybody.FockBasis(n_modes, n_particles, max_excitations=cap)
    assert np.array_equal(fock.occupations, ref)


def test_fock_occupations_sum_to_n():
    fock = manybody.FockBasis(5, 4)
    assert np.all(fock.occupations.sum(axis=1) == 4)


def test_fock_cap_raises():
    with pytest.raises(SizeError):
        manybody.FockBasis(27, 8)  # 18 million states


def test_fock_lookup_roundtrip():
    fock = manybody.FockBasis(5, 3)
    idx = fock.lookup(fock.occupations)
    assert np.array_equal(idx, np.arange(fock.dim))
    missing = np.array([[3, 0, 0, 0, 1]], dtype=np.uint8)  # sums to 4, not in basis
    assert fock.lookup(missing)[0] == -1


def _brute_force_sector(fock, mode_kx, modulus, k_total):
    """The rows of `fock` of total momentum k_total, summed one row at a time."""
    keep = []
    for row in fock.occupations:
        off = sum(int(n) * int(k) for n, k in zip(row, mode_kx)) - k_total
        if off == 0 if modulus is None else off % modulus == 0:
            keep.append(row)
    return np.array(keep, dtype=np.uint8).reshape(-1, fock.n_modes)


@pytest.fixture(scope="module")
def default_modes(setup):
    # the default sweep's mode table: m_x = 9 plane waves x m_y = 3 trap modes
    point, conf, unscaled, sc, _ = setup
    return manybody.build_basis(point, conf, None, sc, 9, 3, L, unscaled_mode=unscaled)


@pytest.mark.parametrize("n_particles, cap, dim", [(3, 3, 298), (8, 4, 1947)])
def test_momentum_sector_matches_brute_force(default_modes, n_particles, cap, dim):
    momentum = (default_modes.mode_kx, None, 0)
    sector = manybody.FockBasis(27, n_particles, cap, momentum=momentum)
    full = manybody.FockBasis(27, n_particles, cap)
    assert sector.dim == dim and sector.unrestricted_dim == full.dim
    assert np.array_equal(sector.occupations, _brute_force_sector(full, *momentum))
    assert np.array_equal(sector.lookup(sector.occupations), np.arange(dim))


def test_momentum_sectors_partition_grid_matched_basis():
    # grid-matched momenta are conserved mod n_x = 4; each sector is a block of H
    point = scaling.make_point(3, 0.5, 0.5)
    conf = potentials.harmonic_confinement(dimension=1)
    sc = potentials.scale(potentials.gaussian_bump(height=2.0, radius=4.0, width=1.5),
                          point, d_perp=1)
    basis = manybody.build_grid_matched_basis(point, conf, sc, 4, 2, L, 6.0)
    full = manybody.FockBasis(basis.n_modes, 3)
    h_full = manybody.hamiltonian(basis, full).tocsr()
    dims = []
    for k_total in range(4):
        momentum = (basis.mode_kx, basis.momentum_modulus, k_total)
        sector = manybody.FockBasis(basis.n_modes, 3, momentum=momentum)
        assert np.array_equal(sector.occupations, _brute_force_sector(full, *momentum))
        shifted = manybody.FockBasis(basis.n_modes, 3, momentum=momentum[:2] + (k_total - 4,))
        assert np.array_equal(shifted.occupations, sector.occupations)
        rows = full.lookup(sector.occupations)
        rest = np.setdiff1d(np.arange(full.dim), rows)
        assert np.array_equal(manybody.hamiltonian(basis, sector).toarray(),
                              h_full[rows][:, rows].toarray())
        assert h_full[rest][:, rows].count_nonzero() == 0
        dims.append(sector.dim)
    assert sum(dims) == full.dim


def test_empty_momentum_sector_raises(default_modes):
    with pytest.raises(DomainError):
        manybody.FockBasis(27, 1, momentum=(default_modes.mode_kx, None, 5))


def test_reduced_density_of_a_sector_state(setup, monkeypatch):
    # the lowered bases are unrestricted, so their size is judged against the
    # enumerated count of the sector's basis, not against its dimension
    _, _, _, _, basis = setup
    sector = manybody.FockBasis(basis.n_modes, 3, momentum=(basis.mode_kx, None, 0))
    full = manybody.FockBasis(basis.n_modes, 3)
    amps = np.array([1.0, 1j]) @ np.random.default_rng(3).normal(size=(2, sector.dim))
    amps /= np.linalg.norm(amps)
    embedded = np.zeros(full.dim, dtype=complex)
    embedded[full.lookup(sector.occupations)] = amps
    monkeypatch.setattr(manybody, "DEFAULT_DIM_CAP", sector.dim)
    for k in (1, 2):
        got = manybody.reduced_density(manybody.ManyBodyState(sector, amps), k).matrix
        ref = manybody.reduced_density(manybody.ManyBodyState(full, embedded), k).matrix
        assert np.max(np.abs(got - ref)) < 1e-14


def test_product_state_two_particle_amplitudes():
    fock = manybody.FockBasis(2, 2)
    a, b = 0.8, 0.6
    state = manybody.product_state(fock, np.array([a, b], dtype=complex))
    amp20 = state.amplitudes[fock.lookup(np.array([[2, 0]], dtype=np.uint8))[0]]
    amp11 = state.amplitudes[fock.lookup(np.array([[1, 1]], dtype=np.uint8))[0]]
    amp02 = state.amplitudes[fock.lookup(np.array([[0, 2]], dtype=np.uint8))[0]]
    assert amp20 == pytest.approx(a**2, rel=1e-12)
    assert amp11 == pytest.approx(math.sqrt(2.0) * a * b, rel=1e-12)
    assert amp02 == pytest.approx(b**2, rel=1e-12)
    assert state.norm == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# basis assembly
# ---------------------------------------------------------------------------


def test_zero_interaction_gives_zero_tensor(setup):
    point, conf, unscaled, _, _ = setup
    sc0 = potentials.scale(potentials.uniform_ball(height=0.0), point, d_perp=1)
    basis0 = manybody.build_basis(point, conf, None, sc0, 5, 3, L, unscaled_mode=unscaled)
    assert np.max(np.abs(basis0.vq)) == 0.0


def test_separable_spectrum(setup):
    point, _, _, _, basis = setup
    # diagonal one-body: k^2 + (E_m - E_0)/eps^2
    e_t = (basis.transverse.energies - basis.transverse.energies[0])
    for j in range(basis.n_modes):
        k = 2.0 * math.pi * basis.mode_kx[j] / L
        assert basis.energies[j] == pytest.approx(k**2 + e_t[basis.mode_my[j]], rel=1e-12)


def test_w_tensor_symmetries(setup):
    _, _, _, _, basis = setup
    rng = np.random.default_rng(0)
    scale_w = np.max(np.abs(basis.vq)) / basis.box_length
    for _ in range(200):
        a, b, c, d = rng.integers(0, basis.n_modes, 4)
        w = basis.w_element(a, b, c, d)
        assert abs(w - np.conj(basis.w_element(c, d, a, b))) < 1e-10 * scale_w
        assert abs(w - basis.w_element(b, a, d, c)) < 1e-10 * scale_w


def test_hamiltonian_hermitian(setup):
    _, _, _, _, basis = setup
    fock = manybody.FockBasis(basis.n_modes, 3)
    h = manybody.hamiltonian(basis, fock)
    assert abs(h - h.getH()).max() < 1e-12


def test_one_body_operator_against_explicit():
    fock = manybody.FockBasis(3, 2)
    rng = np.random.default_rng(4)
    h1 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h1 = (h1 + h1.conj().T) / 2.0
    op = manybody.one_body_operator(fock, h1).toarray()
    # explicit matrix elements in the pair basis
    pairs = []
    for i in range(fock.dim):
        nz = np.nonzero(fock.occupations[i])[0]
        pairs.append((nz[0], nz[0]) if len(nz) == 1 else (nz[0], nz[1]))
    expected = np.zeros_like(op)
    for i, (a, b) in enumerate(pairs):
        for j, (c, d) in enumerate(pairs):
            eta = 1.0 / math.sqrt(1.0 + (a == b)) / math.sqrt(1.0 + (c == d))
            val = 0.0
            if b == d: val += h1[a, c]
            if b == c: val += h1[a, d]
            if a == d: val += h1[b, c]
            if a == c: val += h1[b, d]
            expected[i, j] = eta * val
    assert np.max(np.abs(op - expected)) < 1e-12


def _loop_hamiltonian(basis, fock):
    """Dense H from plain loops: every (a, b) and (a, b, c, d) with w_element,
    applied to each occupation row with explicit sqrt(n) factors."""
    index = {tuple(int(n) for n in row): i for i, row in enumerate(fock.occupations)}
    m = basis.n_modes
    h1 = basis.one_body()
    terms = [(a, b, c, d, basis.w_element(a, b, c, d))
             for a in range(m) for b in range(m) for c in range(m) for d in range(m)]
    terms = [t for t in terms if t[4] != 0.0]
    dense = np.zeros((fock.dim, fock.dim), dtype=complex)
    for col, row in enumerate(fock.occupations):
        for a in range(m):
            for b in range(m):
                occ = [int(n) for n in row]
                if occ[b] == 0 or h1[a, b] == 0.0:
                    continue
                amp = math.sqrt(occ[b])
                occ[b] -= 1
                amp *= math.sqrt(occ[a] + 1)
                occ[a] += 1
                if tuple(occ) in index:
                    dense[index[tuple(occ)], col] += h1[a, b] * amp
        for a, b, c, d, w in terms:
            occ = [int(n) for n in row]
            amp = 1.0
            for mode in (c, d):          # a_d a_c: annihilate c, then d
                if occ[mode] == 0:
                    break
                amp *= math.sqrt(occ[mode])
                occ[mode] -= 1
            else:
                for mode in (b, a):      # adag_a adag_b: create b, then a
                    amp *= math.sqrt(occ[mode] + 1)
                    occ[mode] += 1
                if tuple(occ) in index:  # outside an excitation cap: dropped
                    dense[index[tuple(occ)], col] += 0.5 * w * amp
    return dense


@pytest.fixture(scope="module")
def small_basis(setup):
    point, conf, unscaled, sc, _ = setup
    return manybody.build_basis(point, conf, None, sc, 3, 2, L, unscaled_mode=unscaled)


def test_basis_m_y_from_mode_table(setup, small_basis):
    # small_basis takes 2 of the 3 transverse modes it is given
    point, conf, unscaled, sc, _ = setup
    assert small_basis.m_y == 2
    assert small_basis.vq.shape[1:] == (2, 2, 2, 2)
    full = manybody.build_basis(point, conf, None, sc, 3, 3, L, unscaled_mode=unscaled)
    assert full.m_y == 3
    assert np.array_equal(small_basis.vq, full.vq[:, :2, :2, :2, :2])


@pytest.mark.parametrize("cap", [None, 1])
def test_hamiltonian_against_loop_oracle(small_basis, cap):
    fock = manybody.FockBasis(small_basis.n_modes, 3, max_excitations=cap)
    ref = _loop_hamiltonian(small_basis, fock)
    h = manybody.hamiltonian(small_basis, fock).toarray()
    assert np.max(np.abs(h - ref)) < 1e-12 * np.max(np.abs(ref))


def test_hamiltonian_against_loop_oracle_grid_matched():
    # even n_x: the momentum window -2..1 wraps asymmetrically mod n_x
    point = scaling.make_point(3, 0.5, 0.5)
    conf = potentials.harmonic_confinement(dimension=1)
    sc = potentials.scale(potentials.gaussian_bump(height=2.0, radius=4.0, width=1.5),
                          point, d_perp=1)
    basis = manybody.build_grid_matched_basis(point, conf, sc, 4, 2, L, 6.0)
    assert basis.momentum_modulus == 4
    fock = manybody.FockBasis(basis.n_modes, 3)
    ref = _loop_hamiltonian(basis, fock)
    h = manybody.hamiltonian(basis, fock).toarray()
    assert np.max(np.abs(h - ref)) < 1e-12 * np.max(np.abs(ref))


def test_hamiltonian_zero_interaction_is_one_body(setup):
    point, conf, unscaled, _, _ = setup
    sc0 = potentials.scale(potentials.uniform_ball(height=0.0), point, d_perp=1)
    basis0 = manybody.build_basis(point, conf, None, sc0, 3, 2, L, unscaled_mode=unscaled)
    fock = manybody.FockBasis(basis0.n_modes, 3)
    assert manybody.two_body_operator(basis0, fock).nnz == 0
    ref = _loop_hamiltonian(basis0, fock)
    h = manybody.hamiltonian(basis0, fock).toarray()
    assert np.max(np.abs(h - ref)) < 1e-12 * np.max(np.abs(ref))


def test_under_resolved_transverse_grid_rejected(setup):
    point, conf, _, sc, _ = setup
    coarse = transverse.solve_modes(conf, transverse.TransverseGrid(8.0, 33), 3)
    with pytest.raises(manybody.ResolutionError):
        manybody.build_basis(point, conf, None, sc, 5, 3, L, unscaled_mode=coarse)


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------


def test_condensed_state_stationary_without_interaction(setup):
    point, conf, unscaled, _, _ = setup
    sc0 = potentials.scale(potentials.uniform_ball(height=0.0), point, d_perp=1)
    basis0 = manybody.build_basis(point, conf, None, sc0, 5, 3, L, unscaled_mode=unscaled)
    fock = manybody.FockBasis(basis0.n_modes, 4)
    state = condensed(fock)
    traj = manybody.evolve(state, basis0, 0.01, 1.0, n_outputs=2)
    fid = abs(np.vdot(traj.final.amplitudes, state.amplitudes))
    assert fid == pytest.approx(1.0, abs=1e-9)


def test_energy_conserved_along_evolution(setup):
    _, _, _, _, basis = setup
    fock = manybody.FockBasis(basis.n_modes, 3)
    state = condensed(fock)
    h = manybody.hamiltonian(basis, fock)
    traj = manybody.evolve(state, basis, 0.01, 1.0, n_outputs=4)
    e0 = manybody.expectation(traj.states[0], h)
    for s in traj.states:
        assert manybody.expectation(s, h) == pytest.approx(e0, abs=1e-8)
    assert traj.norm_drift < 1e-9


def test_renormalized_energy_separable(setup):
    point, conf, unscaled, _, _ = setup
    sc0 = potentials.scale(potentials.uniform_ball(height=0.0), point, d_perp=1)
    basis0 = manybody.build_basis(point, conf, None, sc0, 5, 3, L, unscaled_mode=unscaled)
    n = 3
    fock = manybody.FockBasis(basis0.n_modes, n)
    # all particles in the kx = 1, my = 0 mode: E_ren = k^2 exactly
    j = basis0.mode_index(1, 0)
    amps = np.zeros(fock.dim, dtype=complex)
    tgt = np.zeros((1, basis0.n_modes), dtype=np.uint8)
    tgt[0, j] = n
    amps[fock.lookup(tgt)[0]] = 1.0
    state = manybody.ManyBodyState(fock, amps)
    k = 2.0 * math.pi / L
    assert manybody.renormalized_energy(state, basis0) == pytest.approx(k**2, rel=1e-12)


def test_pair_path_matches_sparse_path_evolution(setup):
    _, _, _, _, basis = setup
    fock = manybody.FockBasis(basis.n_modes, 2)
    state = condensed(fock)
    traj_pair = manybody.evolve(state, basis, 0.01, 0.3, n_outputs=1)
    h = manybody.hamiltonian(basis, fock)
    direct = expm_multiply(-1j * 0.3 * h.tocsc(), state.amplitudes)
    overlap = abs(np.vdot(traj_pair.final.amplitudes, direct))
    assert overlap == pytest.approx(1.0, abs=1e-9)


def test_prebuilt_hamiltonian_gives_same_evolution(setup):
    _, _, _, _, basis = setup
    fock = manybody.FockBasis(basis.n_modes, 3)
    h = manybody.hamiltonian(basis, fock)
    built = manybody.evolve(condensed(fock), basis, 0.01, 0.3, n_outputs=1)
    given = manybody.evolve(condensed(fock), basis, 0.01, 0.3, n_outputs=1, h=h)
    assert np.array_equal(built.final.amplitudes, given.final.amplitudes)


def test_prebuilt_hamiltonian_used_at_two_particles(setup, monkeypatch):
    # a given h replaces the N = 2 pair blocks
    _, _, _, _, basis = setup
    fock = manybody.FockBasis(basis.n_modes, 2)
    h = manybody.hamiltonian(basis, fock)
    blocks = manybody.evolve(condensed(fock), basis, 0.01, 0.3, n_outputs=1).final

    def no_blocks(*args, **kwargs):
        raise AssertionError("pair blocks built although h was given")

    monkeypatch.setattr(manybody, "pair_blocks", no_blocks)
    given = manybody.evolve(condensed(fock), basis, 0.01, 0.3, n_outputs=1, h=h).final
    direct = expm_multiply(-1j * 0.3 * h.tocsc(), condensed(fock).amplitudes)
    assert np.linalg.norm(given.amplitudes - direct) < 1e-9
    assert np.linalg.norm(given.amplitudes - blocks.amplitudes) < 1e-9


def test_two_particles_static_well_matches_sparse_hamiltonian(setup):
    # a field couples different momenta, which the N = 2 pair blocks cannot hold
    point, conf, unscaled, sc, _ = setup
    basis = manybody.build_basis(point, conf, potentials.gaussian_well(depth=1.0, width=2.0),
                                 sc, 5, 3, L, unscaled_mode=unscaled)
    fock = manybody.FockBasis(basis.n_modes, 2)
    state = condensed(fock)
    h = manybody.hamiltonian(basis, fock)
    traj = manybody.evolve(state, basis, 0.01, 0.3, n_outputs=1)
    direct = expm_multiply(-1j * 0.3 * h.tocsc(), state.amplitudes)
    assert np.linalg.norm(traj.final.amplitudes - direct) < 1e-9
    expected = manybody.expectation(traj.final, h) / 2.0
    assert manybody.renormalized_energy(traj.final, basis) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(DomainError):
        manybody.pair_blocks(basis, fock)


@pytest.fixture(scope="module")
def driven_basis():
    point = scaling.make_point(3, 0.5, 0.5)
    conf = potentials.harmonic_confinement(dimension=1)
    unscaled = transverse.solve_modes(conf, transverse.TransverseGrid(8.0, 481), 2)
    sc = potentials.scale(potentials.uniform_ball(height=2.0), point, d_perp=1)
    ext = potentials.external_by_name("driven_well", depth=0.5, omega=4.0)
    return manybody.build_basis(point, conf, ext, sc, 3, 2, L, unscaled_mode=unscaled)


def test_time_dependent_steps_use_midpoint_hamiltonian(driven_basis):
    basis = driven_basis
    fock = manybody.FockBasis(basis.n_modes, 3)
    state = condensed(fock)
    traj = manybody.evolve(state, basis, 0.05, 0.1, n_outputs=1, krylov_tol=1e-12)
    psi = state.amplitudes
    for t_mid in (0.025, 0.075):
        psi = expm_multiply(-0.05j * manybody.hamiltonian(basis, fock, t_mid).tocsc(), psi)
    assert np.linalg.norm(traj.final.amplitudes - psi) < 1e-9
    with pytest.raises(DomainError):
        manybody.evolve(state, basis, 0.03, 0.1)            # 3.33 steps
    with pytest.raises(DomainError):
        manybody.evolve(state, basis, 0.05, 0.1, h=manybody.hamiltonian(basis, fock))


def test_driven_outputs_fall_on_whole_steps(driven_basis):
    fock = manybody.FockBasis(driven_basis.n_modes, 3)
    state = condensed(fock)
    with pytest.raises(DomainError):
        manybody.evolve(state, driven_basis, 0.01, 0.5, n_outputs=3)    # 16.67 steps each
    traj = manybody.evolve(state, driven_basis, 0.01, 0.5, n_outputs=5)
    assert traj.times == pytest.approx([0.1 * k for k in range(6)], abs=1e-12)


def test_lanczos_matches_scipy_on_random_hermitian():
    rng = np.random.default_rng(9)
    n = 300
    a = sp.random(n, n, density=0.05, random_state=rng,
                  data_rvs=lambda size: rng.normal(size=size))
    h = (a + a.T) / 2.0 + sp.diags(rng.normal(size=n))
    h = h.tocsr().astype(complex)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    v /= np.linalg.norm(v)
    mine = manybody.lanczos_expm(lambda x: h @ x, v, 0.7, tol=1e-12)
    ref = expm_multiply(-0.7j * h.tocsc(), v)
    assert np.max(np.abs(mine - ref)) < 1e-9
    # an interval 40 Krylov vectors cannot cover: substeps reuse each basis
    calls = []

    def counted(x):
        calls.append(1)
        return h @ x

    mine = manybody.lanczos_expm(counted, v, 20.0, tol=1e-10)
    ref = expm_multiply(-20.0j * h.tocsc(), v)
    assert np.max(np.abs(mine - ref)) < 1e-10
    assert len(calls) < 592           # a fresh basis for every halved step costs 592
    with pytest.raises(ToleranceError):
        manybody.lanczos_expm(lambda x: h @ x, v, 0.7, m_max=1)


# ---------------------------------------------------------------------------
# reduced densities
# ---------------------------------------------------------------------------


def test_gamma1_condensed_rank_one(setup):
    _, _, _, _, basis = setup
    fock = manybody.FockBasis(basis.n_modes, 4)
    gamma = manybody.reduced_density(condensed(fock), 1)
    assert gamma.trace == pytest.approx(1.0, abs=1e-12)
    evals = np.linalg.eigvalsh(gamma.matrix)
    assert evals[-1] == pytest.approx(1.0, abs=1e-12)


def test_gamma1_two_mode_half_half():
    fock = manybody.FockBasis(2, 2)
    amps = np.zeros(fock.dim, dtype=complex)
    amps[fock.lookup(np.array([[2, 0]], dtype=np.uint8))[0]] = 1 / math.sqrt(2)
    amps[fock.lookup(np.array([[0, 2]], dtype=np.uint8))[0]] = 1 / math.sqrt(2)
    gamma = manybody.reduced_density(manybody.ManyBodyState(fock, amps), 1)
    assert gamma.matrix == pytest.approx(np.diag([0.5, 0.5]), abs=1e-12)


def test_gamma_properties_random_states(setup):
    _, _, _, _, basis = setup
    rng = np.random.default_rng(31)
    fock = manybody.FockBasis(basis.n_modes, 3)
    for _ in range(5):
        amps = rng.normal(size=fock.dim) + 1j * rng.normal(size=fock.dim)
        state = manybody.ManyBodyState(fock, amps / np.linalg.norm(amps))
        g = manybody.reduced_density(state, 1)
        assert g.trace == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(g.matrix - g.matrix.conj().T)) < 1e-12
        assert g.min_eigenvalue() > -1e-10


def test_gamma2_trace_and_partial_trace():
    fock = manybody.FockBasis(3, 3)
    rng = np.random.default_rng(13)
    amps = rng.normal(size=fock.dim) + 1j * rng.normal(size=fock.dim)
    state = manybody.ManyBodyState(fock, amps / np.linalg.norm(amps))
    g2 = manybody.reduced_density(state, 2)
    assert g2.trace == pytest.approx(1.0, abs=1e-10)
    assert g2.min_eigenvalue() > -1e-10
    m = 3
    g2m = g2.matrix.reshape(m, m, m, m)
    partial = np.einsum("aibi->ab", g2m)
    g1 = manybody.reduced_density(state, 1).matrix
    assert partial == pytest.approx(g1, abs=1e-10)


def test_reduced_density_rejects_bad_order():
    fock = manybody.FockBasis(2, 2)
    state = condensed(fock)
    with pytest.raises(DomainError):
        manybody.reduced_density(state, 3)


# ---------------------------------------------------------------------------
# two-particle grid oracle
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def oracle_pair():
    point = scaling.make_point(2, 0.5, 0.5)
    conf = potentials.harmonic_confinement(dimension=1)
    prof = potentials.gaussian_bump(height=2.0, radius=4.0, width=1.5)
    sc = potentials.scale(prof, point, d_perp=1)
    n_x, n_y, y_span = 12, 10, 6.0
    basis = manybody.build_grid_matched_basis(point, conf, sc, n_x, n_y, L, y_span)
    oracle = manybody.GridOracle(point, conf, sc, L, n_x, n_y, y_span)
    return point, sc, basis, oracle


def test_grid_oracle_free_product_keeps_rank_one(oracle_pair):
    point, _, _, oracle = oracle_pair
    conf = potentials.harmonic_confinement(dimension=1)
    sc0 = potentials.scale(potentials.uniform_ball(height=0.0), point, d_perp=1)
    free = manybody.GridOracle(point, conf, sc0, L, oracle.n_x, oracle.n_y, oracle.y_span)
    phi_x = np.exp(-free.x**2)
    psi = free.product_state(phi_x)
    psi_t = free.evolve(psi, 5e-3, 0.2)
    evals = np.linalg.eigvalsh(free.gamma1(psi_t))[::-1]
    assert evals[1] < 1e-9
    with pytest.raises(DomainError):
        free.evolve(psi, 0.03, 0.1)            # 3.33 steps


def test_grid_oracle_preserves_exchange_symmetry(oracle_pair):
    _, _, _, oracle = oracle_pair
    phi_x = np.exp(-oracle.x**2 / 2.0) * np.exp(0.7j * oracle.x)
    psi = oracle.product_state(phi_x)
    psi_t = oracle.evolve(psi, 2e-3, 0.2)
    assert oracle.symmetry_defect(psi_t) < 1e-10


def test_grid_oracle_matches_second_quantized(oracle_pair):
    point, sc, basis, oracle = oracle_pair
    phi_x = np.exp(-oracle.x**2 / 2.0) * np.exp(0.5j * oracle.x)
    psi0 = oracle.product_state(phi_x)
    orb = phi_x[:, None] * oracle.tau[None, :]
    orb = orb / math.sqrt(np.sum(np.abs(orb) ** 2) * oracle.weight())
    u = manybody.modes_on_grid(basis, oracle)
    coeffs = u.conj().T @ (orb.ravel() * math.sqrt(oracle.weight()))
    fock = manybody.FockBasis(basis.n_modes, 2, dim_cap=10**5)
    st0 = manybody.product_state(fock, coeffs)
    traj = manybody.evolve(st0, basis, 0.01, 0.25, n_outputs=1, krylov_tol=1e-11)
    psi_t = oracle.evolve(psi0, 2e-4, 0.25)
    g_grid = oracle.gamma1(psi_t)
    g_modes = manybody.gamma_modes_to_grid(
        basis, manybody.reduced_density(traj.final, 1).matrix, oracle)
    assert projectors.trace_distance(g_grid, g_modes) < 1e-6


def test_grid_oracle_cap():
    point = scaling.make_point(2, 0.5, 0.5)
    conf = potentials.harmonic_confinement(dimension=1)
    sc = potentials.scale(potentials.uniform_ball(), point, d_perp=1)
    with pytest.raises(SizeError):
        manybody.GridOracle(point, conf, sc, L, 512, 64, 8.0)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def test_transverse_excited_fraction(setup):
    _, _, _, _, basis = setup
    n = 3
    fock = manybody.FockBasis(basis.n_modes, n)
    # one particle promoted to a my=1 mode
    j = basis.mode_index(0, 1)
    occ = np.zeros((1, basis.n_modes), dtype=np.uint8)
    occ[0, 0] = n - 1
    occ[0, j] = 1
    amps = np.zeros(fock.dim, dtype=complex)
    amps[fock.lookup(occ)[0]] = 1.0
    state = manybody.ManyBodyState(fock, amps)
    assert manybody.transverse_excited_fraction(state, basis) == pytest.approx(
        math.sqrt(1.0 / n), rel=1e-12)


# ---------------------------------------------------------------------------
# transverse dimension 2 and time dependence
# ---------------------------------------------------------------------------


def test_build_basis_d_perp_2():
    point = scaling.make_point(4, 0.5, 0.5)
    conf = potentials.harmonic_confinement(dimension=2)
    unscaled = transverse.solve_modes(conf, transverse.TransverseGrid(6.0, 193), 2)
    prof = potentials.uniform_ball(height=2.0, radius=2.0)
    sc = potentials.scale(prof, point, d_perp=2)
    basis = manybody.build_basis(point, conf, None, sc, 3, 2, L, unscaled_mode=unscaled)
    assert basis.n_modes == 6
    # 2-d rescaling: E0/eps^2 = 2/0.25 = 8
    assert basis.e0_scaled == pytest.approx(8.0, abs=0.05)
    rng = np.random.default_rng(2)
    scale_w = np.max(np.abs(basis.vq)) / basis.box_length
    for _ in range(60):
        a, b, c, d = rng.integers(0, 6, 4)
        w = basis.w_element(a, b, c, d)
        assert abs(w - np.conj(basis.w_element(c, d, a, b))) < 1e-9 * scale_w
    fock = manybody.FockBasis(6, 2)
    h = manybody.hamiltonian(basis, fock)
    assert abs(h - h.getH()).max() < 1e-12
    traj = manybody.evolve(condensed(fock), basis, 0.01, 0.2, n_outputs=1)
    assert traj.norm_drift < 1e-9


def test_time_dependent_external_field():
    point = scaling.make_point(2, 0.5, 0.5)
    conf = potentials.harmonic_confinement(dimension=1)
    unscaled = transverse.solve_modes(conf, transverse.TransverseGrid(8.0, 481), 2)
    sc = potentials.scale(potentials.uniform_ball(height=2.0), point, d_perp=1)
    ext = potentials.external_by_name("driven_well", depth=0.5, omega=4.0)
    basis = manybody.build_basis(point, conf, ext, sc, 3, 2, L, unscaled_mode=unscaled)
    fock = manybody.FockBasis(basis.n_modes, 2)
    state = condensed(fock)
    h0 = manybody.hamiltonian(basis, fock, 0.0)
    traj = manybody.evolve(state, basis, 0.005, 0.2, n_outputs=2)
    assert traj.norm_drift < 1e-9
    # a driven field pumps energy: the t=0 Hamiltonian expectation moves
    e0 = manybody.expectation(traj.states[0], h0)
    e1 = manybody.expectation(traj.final, h0)
    assert abs(e1 - e0) > 1e-6


def _loop_vpar(basis, t):
    """Field matrix from plain loops: every (a, b) as an explicit discrete
    Fourier sum of the transverse matrix element of V over the centered box."""
    n_aux = max(8 * basis.m_x, 1024)
    x = np.arange(n_aux) * basis.box_length / n_aux - basis.box_length / 2.0
    tr = basis.transverse
    v = np.broadcast_to(basis.external.evaluator(t, x[:, None], tr.axis[None, :], 0.0),
                        (n_aux, len(tr.axis)))
    m = basis.n_modes
    h = np.zeros((m, m), dtype=complex)
    for a in range(m):
        for b in range(m):
            v_ab = v @ (tr.modes[basis.mode_my[a]] * tr.modes[basis.mode_my[b]]) * tr.weight
            dk = basis.mode_kx[b] - basis.mode_kx[a]
            h[a, b] = np.mean(v_ab * np.exp(2j * math.pi * dk * x / basis.box_length))
    return h


# the tilt couples different transverse modes; the off-centre field has
# complex elements, so it tells +dk from -dk
OFF_CENTRE = potentials.ExternalPotential(
    "off_centre", lambda t, x, y1, y2: np.exp(-(x - 0.7) ** 2) * (1.0 + 0.3 * y1) * (1.0 + t),
    2.0, 1.0, 0.3, time_dependent=True)


@pytest.mark.parametrize("field, t", [(potentials.gaussian_well(tilt=0.5), 0.0),
                                      (potentials.driven_well(omega=4.0), 0.37),
                                      (OFF_CENTRE, 0.37)])
def test_vpar_matrix_against_loop(setup, field, t):
    point, conf, unscaled, sc, _ = setup
    basis = manybody.build_basis(point, conf, field, sc, 5, 3, L, unscaled_mode=unscaled)
    ref = _loop_vpar(basis, t)
    assert np.max(np.abs(basis._vpar_matrix(t) - ref)) < 1e-12 * np.max(np.abs(ref))


def test_vpar_matrix_static_well():
    point = scaling.make_point(3, 0.5, 0.5)
    conf = potentials.harmonic_confinement(dimension=1)
    unscaled = transverse.solve_modes(conf, transverse.TransverseGrid(8.0, 481), 2)
    sc = potentials.scale(potentials.uniform_ball(height=0.0), point, d_perp=1)
    ext = potentials.gaussian_well(depth=1.0, width=2.0)
    basis = manybody.build_basis(point, conf, ext, sc, 5, 2, L, unscaled_mode=unscaled)
    h1 = basis.one_body(0.0)
    assert np.max(np.abs(h1 - h1.conj().T)) < 1e-12
    # diagonal well element: (1/L) int V(x) dx over the centered box
    xg = np.linspace(-L / 2, L / 2, 20001)
    mean_v = np.trapezoid(ext.on_axis(0.0, xg), xg) / L
    j = basis.mode_index(0, 0)
    assert h1[j, j].real - basis.energies[j] == pytest.approx(mean_v, rel=1e-4)
    # off-diagonal element against direct quadrature
    a = basis.mode_index(1, 0)
    b = basis.mode_index(-2, 0)
    q = 2.0 * math.pi * (basis.mode_kx[b] - basis.mode_kx[a]) / L
    direct = np.trapezoid(np.exp(1j * q * xg) * ext.on_axis(0.0, xg), xg) / L
    assert h1[a, b] == pytest.approx(direct, rel=1e-4)


from hypothesis import given, settings
from hypothesis import strategies as st


@given(n_modes=st.integers(min_value=2, max_value=6),
       n_particles=st.integers(min_value=1, max_value=5),
       cap=st.integers(min_value=0, max_value=5))
@settings(max_examples=40, deadline=None)
def test_fock_enumeration_properties(n_modes, n_particles, cap):
    fock = manybody.FockBasis(n_modes, n_particles, max_excitations=cap)
    occ = fock.occupations
    assert np.all(occ.sum(axis=1) == n_particles)
    assert np.all(n_particles - occ[:, 0] <= min(cap, n_particles))
    assert fock.dim == manybody.symmetric_dimension(n_modes, n_particles, cap)
    # lookup is a bijection on the enumerated rows
    assert np.array_equal(fock.lookup(occ), np.arange(fock.dim))


def test_product_state_of_a_basis_mode():
    # a coefficient vector with zeros: every row that occupies an empty mode is 0
    fock = manybody.FockBasis(4, 3, max_excitations=2)
    state = manybody.product_state(fock, np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.array_equal(state.amplitudes, condensed(fock).amplitudes)
    mixed = manybody.product_state(fock, np.array([0.8, 0.6, 0.0, 0.0]))
    assert np.all(np.isfinite(mixed.amplitudes))
    row = fock.lookup(np.array([[2, 1, 0, 0]], dtype=np.uint8))[0]
    assert abs(mixed.amplitudes[row]) > 0.0
    assert np.all(mixed.amplitudes[fock.occupations[:, 2:].sum(axis=1) > 0] == 0.0)
