import dataclasses
import functools
import math
import tracemalloc
from itertools import combinations_with_replacement

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import quad
from scipy.sparse.linalg import expm_multiply

from dimred import manybody, potentials, projectors, scaling, transverse
from dimred.errors import DomainError, ResolutionError, SizeError, ToleranceError
from dimred.manybody import FockBasis, ModeBasis

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


def mode_index(basis, kx, my):
    """The flat index of the mode with integer momentum kx and transverse index my."""
    return int(np.flatnonzero((basis.mode_kx == kx) & (basis.mode_my == my))[0])


# ---------------------------------------------------------------------------
# occupation basis
# ---------------------------------------------------------------------------


def test_fock_dimension_formula():
    assert manybody.FockBasis(12, 8, dim_cap=10**6).dim == 75582
    assert manybody.FockBasis(4, 3).dim == 20
    assert manybody.FockBasis(27, 8, max_excitations=3).dim == 3654


@pytest.mark.parametrize("n_modes, n_particles, cap", [
    (5, 4, None), (6, 4, 2), (7, 6, 3), (2, 5, None), (4, 0, None), (192, 2, None)])
def test_fock_occupations_match_reference(n_modes, n_particles, cap):
    # the rows of every multiset of N modes, capped, in byte order; (192, 2) is acceptance 7's
    rows = [np.bincount(np.array(c, dtype=np.int64), minlength=n_modes)
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


def test_fock_vacuum_is_one_empty_row():
    vacuum = manybody.FockBasis(4, 0, max_excitations=2)
    assert vacuum.dim == 1 and np.array_equal(vacuum.occupations, np.zeros((1, 4)))
    with pytest.raises(DomainError):
        manybody.FockBasis(4, -1)


def test_fock_refuses_more_particles_than_a_uint8_row_holds():
    # 256 would wrap the condensate count to 0; from_rows refuses such rows too
    assert manybody.FockBasis(3, 255, max_excitations=2).occupations.max() == 255
    with pytest.raises(DomainError, match="0..255"):
        manybody.FockBasis(3, 256, max_excitations=2)


def test_fock_lookup_roundtrip():
    fock = manybody.FockBasis(5, 3)
    idx = fock.lookup(fock.occupations)
    assert np.array_equal(idx, np.arange(fock.dim))
    missing = np.array([[3, 0, 0, 0, 1]], dtype=np.uint8)  # sums to 4, not in basis
    assert fock.lookup(missing)[0] == -1


def test_packed_rows_are_a_view_of_the_one_table():
    # every constructor sets the occupation table alone; the byte strings that
    # lookup bisects are a view of it, so a sector does not hold its rows twice
    full = manybody.FockBasis(5, 3)
    rows = np.arange(1, full.dim, 3)
    sub = full.subset(rows)
    for fock in (full, FockBasis.from_rows(full.occupations[::-1]), sub):
        assert np.shares_memory(fock._packed, fock.occupations)
        assert np.array_equal(fock.lookup(fock.occupations), np.arange(fock.dim))
    expected = np.full(full.dim, -1)
    expected[rows] = np.arange(len(rows))
    assert np.array_equal(sub.lookup(full.occupations), expected)


def test_from_rows_sorts_only_rows_out_of_order():
    fock = manybody.FockBasis(5, 3, 2)
    shuffled = fock.occupations[np.random.default_rng(3).permutation(fock.dim)]
    for rows in (fock.occupations, shuffled, fock.occupations.astype(np.int64)):
        got = FockBasis.from_rows(rows)
        assert np.array_equal(got.occupations, fock.occupations)
        assert not np.shares_memory(got.occupations, rows)
        assert np.array_equal(got.lookup(shuffled), fock.lookup(shuffled))
    # a repeat among sorted rows is not strictly ascending, so it is found too
    for rows in (np.insert(fock.occupations, 2, fock.occupations[2], axis=0),
                 np.insert(shuffled, 2, shuffled[7], axis=0)):
        with pytest.raises(DomainError, match="repeat"):
            FockBasis.from_rows(rows)


def _brute_force_sector(fock, charges):
    """The rows of `fock` whose totals sum_a n_a q_a equal the given ones
    (modulo the modulus, if any) for every (q, modulus, total) of `charges`,
    summed one row at a time."""
    keep = []
    for row in fock.occupations:
        offs = [sum(int(n) * int(k) for n, k in zip(row, q)) - total
                for q, _, total in charges]
        if all(off == 0 if modulus is None else off % modulus == 0
               for off, (_, modulus, _) in zip(offs, charges)):
            keep.append(row)
    return np.array(keep, dtype=np.uint8).reshape(-1, fock.n_modes)


@pytest.fixture(scope="module")
def default_modes(setup):
    # the default sweep's mode table: m_x = 9 plane waves x m_y = 3 trap modes
    point, conf, unscaled, sc, _ = setup
    return manybody.build_basis(point, conf, None, sc, 9, 3, L, unscaled_mode=unscaled)


def _sector_charges(basis, row):
    """(q, modulus, total) of K and Pi at the totals of one occupation row."""
    return [(q, modulus, int(row.astype(np.int64) @ q))
            for q, modulus in ((basis.mode_kx, basis.momentum_modulus), (basis.mode_parity, 2))]


def condensate_sector(basis, fock):
    """The rows of the (K, Pi) sector of `fock` that holds the condensate row."""
    at = fock.occupations[:, 0] == fock.n_particles
    return fock.subset(next(rows for rows in manybody.sectors(basis, fock) if at[rows].any()))


@pytest.mark.parametrize("n_particles, cap, dim", [(3, 3, 298), (8, 4, 1947)])
def test_momentum_sector_matches_brute_force(default_modes, n_particles, cap, dim):
    # each K = 0 sector is the brute-force filter of the capped rows; the two
    # (even and odd Pi) hold `dim` rows together
    full = manybody.FockBasis(27, n_particles, cap)
    k_zero = 0
    for rows in manybody.sectors(default_modes, full):
        charges = _sector_charges(default_modes, full.occupations[rows[0]])
        if charges[0][2] == 0:
            sector = full.subset(rows)
            assert np.array_equal(sector.occupations, _brute_force_sector(full, charges))
            assert np.array_equal(sector.lookup(sector.occupations), np.arange(sector.dim))
            k_zero += sector.dim
    assert k_zero == dim


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
    for rows in manybody.sectors(basis, full):
        sector = full.subset(rows)
        charges = _sector_charges(basis, sector.occupations[0])
        assert np.array_equal(sector.occupations, _brute_force_sector(full, charges))
        # a total off by the modulus names the same sector
        shifted = [(q, modulus, total - modulus) for q, modulus, total in charges]
        assert np.array_equal(_brute_force_sector(full, shifted), sector.occupations)
        rest = np.setdiff1d(np.arange(full.dim), rows)
        assert np.array_equal(manybody.hamiltonian(basis, sector).toarray(),
                              h_full[rows][:, rows].toarray())
        assert h_full[rest][:, rows].count_nonzero() == 0
        dims.append(sector.dim)
    assert sum(dims) == full.dim


def test_reduced_density_of_a_sector_state(setup):
    _, _, _, _, basis = setup
    full = manybody.FockBasis(basis.n_modes, 3)
    sector = condensate_sector(basis, full)
    amps = np.array([1.0, 1j]) @ np.random.default_rng(3).normal(size=(2, sector.dim))
    amps /= np.linalg.norm(amps)
    embedded = np.zeros(full.dim, dtype=complex)
    embedded[full.lookup(sector.occupations)] = amps
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


@pytest.mark.parametrize("cap, field", [(None, None), (1, None), (None, "well"), (1, "well")],
                         ids=["None", "1", "None-well", "1-well"])
def test_hamiltonian_against_loop_oracle(setup, small_basis, cap, field):
    # the tilted well fills the off-diagonal one-body terms
    basis = small_basis
    if field is not None:
        point, conf, unscaled, sc, _ = setup
        basis = manybody.build_basis(point, conf, potentials.gaussian_well(tilt=0.5), sc,
                                     3, 2, L, unscaled_mode=unscaled)
        h1 = basis.one_body()
        assert np.count_nonzero(h1 - np.diag(np.diag(h1))) > 0
    fock = manybody.FockBasis(basis.n_modes, 3, max_excitations=cap)
    ref = _loop_hamiltonian(basis, fock)
    h = manybody.hamiltonian(basis, fock).toarray()
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


# ---------------------------------------------------------------------------
# the earlier ladder kernel, vq gather and interaction terms, verbatim, as the
# reference
# ---------------------------------------------------------------------------

LADDER_BATCH_BYTES = 1 << 23


def _w_gather(basis: ModeBasis, a, b, c, d) -> np.ndarray:
    """Vectorized <ab|w|cd> for momentum-conserving index arrays, which
    broadcast against each other: vq is read by one fancy index."""
    q = basis.mode_kx[a] - basis.mode_kx[c]
    if basis.momentum_modulus is not None:
        rows = q % basis.momentum_modulus
    else:
        rows = q + (basis.m_x - 1)
    my = basis.mode_my
    return basis.vq[rows, my[a], my[b], my[c], my[d]] / basis.box_length


def _ladder(fock: FockBasis, target: FockBasis, lower: np.ndarray, create: np.ndarray):
    """Nonzero elements of the ladder terms adag_(create[t, k-1]) ... adag_(create[t, 0])
    a_(lower[t, j-1]) ... a_(lower[t, 0]) from `fock` into `target`.

    Returns arrays (term, target row, source row, amplitude); the amplitude is
    sqrt(product of the counts after each creation) * sqrt(product of the
    counts before each annihilation).  Terms that share a `lower` row must be
    adjacent: each such group lowers its source rows once, then applies its
    creations in batches of at most LADDER_BATCH_BYTES of target occupations,
    each resolved by one lookup.
    """
    occ = fock.occupations
    n_terms, m = len(lower), occ.shape[1]
    out = ([], [], [], [])
    starts = np.flatnonzero(np.any(np.diff(lower, axis=0, prepend=-1) != 0, axis=1))
    for lo, hi in zip(starts, np.append(starts[1:], n_terms)):
        modes = lower[lo].tolist()
        # the i-th annihilation of a mode needs i particles in it
        ok = True
        for i, mode in enumerate(modes):
            ok = ok & (occ[:, mode] >= modes[:i + 1].count(mode))
        src = np.flatnonzero(ok)
        if len(src) == 0:
            continue
        base = occ[src]
        amp_lower = 1.0
        for mode in modes:
            amp_lower = amp_lower * base[:, mode]
            base[:, mode] -= 1
        amp_lower = np.sqrt(amp_lower)
        step = max(1, LADDER_BATCH_BYTES // (len(src) * m))
        for j in range(lo, hi, step):
            stop = min(j + step, hi)
            tgt = np.repeat(base[None], stop - j, axis=0)
            term = np.arange(stop - j)[:, None]
            every = np.arange(len(src))
            amp_create = np.ones(tgt.shape[:2])
            for mode in create[j:stop].T:
                at = (term, every, mode[:, None])
                tgt[at] += 1
                amp_create *= tgt[at]
            idx = target.lookup(tgt.reshape(-1, m)).reshape(stop - j, len(src))
            t, s = np.nonzero(idx >= 0)
            out[0].append(j + t)
            out[1].append(idx[t, s])
            out[2].append(src[s])
            out[3].append(np.sqrt(amp_create[t, s]) * amp_lower[s])
    empty = (np.zeros(0, dtype=np.int64),) * 3 + (np.zeros(0),)
    return tuple(np.concatenate(parts) if parts else e for parts, e in zip(out, empty))


def _interaction_terms(basis: ModeBasis):
    """Index arrays (a, b, c, d) and weights W of every nonzero term of
    1/2 sum W_abcd adag_a adag_b a_d a_c, with a <= b and c <= d.

    adag_a adag_b and a_d a_c are symmetric in their two modes, so the weight
    of each term is <ab|w|cd> summed over the distinct orderings of (a, b) and
    of (c, d).  Terms come sorted by (c, d).  Momentum conservation fixes k_b
    given (a, c, d), so m^3 m_y candidates are gathered from vq.
    """
    m, m_y = basis.n_modes, basis.m_y
    mode_kx = basis.mode_kx
    kmin, kmax = int(basis.kx.min()), int(basis.kx.max())
    # both basis builders take every (k, m_y) pair, so every slot is filled
    mode_at = np.empty((kmax - kmin + 1, m_y), dtype=np.int64)
    mode_at[mode_kx - kmin, basis.mode_my] = np.arange(m)
    c, d, a = (g.ravel() for g in np.meshgrid(np.arange(m), np.arange(m), np.arange(m),
                                              indexing="ij"))
    kb = mode_kx[c] + mode_kx[d] - mode_kx[a]
    if basis.momentum_modulus is not None:
        kb = (kb - kmin) % basis.momentum_modulus + kmin
    inside = (kb >= kmin) & (kb <= kmax)
    a, c, d = (np.repeat(x[inside], m_y) for x in (a, c, d))
    b = mode_at[kb[inside] - kmin].ravel()
    w = _w_gather(basis, a, b, c, d)
    nz = w != 0.0
    a, b, c, d, w = a[nz], b[nz], c[nz], d[nz], w[nz]
    a, b = np.minimum(a, b), np.maximum(a, b)
    c, d = np.minimum(c, d), np.maximum(c, d)
    keys, pos = np.unique(((c * m + d) * m + a) * m + b, return_inverse=True)
    weight = np.zeros(len(keys), dtype=w.dtype)
    np.add.at(weight, pos, w)
    keys, weight = keys[weight != 0.0], weight[weight != 0.0]
    keys, b = np.divmod(keys, m)
    keys, a = np.divmod(keys, m)
    c, d = np.divmod(keys, m)
    return a, b, c, d, weight


def reference_hamiltonian(basis, fock):
    """H as the earlier kernel assembled it: one term group per lower set and
    every m^3 m_y momentum-conserving candidate of the pair sum."""
    h = basis.one_body()
    diag = fock.occupations.astype(float) @ np.real(np.diag(h))
    off = (h != 0) & ~np.eye(len(h), dtype=bool)
    b, a = np.nonzero(off.T)
    term, rows, cols, amp = _ladder(fock, fock, b[:, None], a[:, None])
    every = np.arange(fock.dim)
    data = np.concatenate([diag.astype(complex), h[a, b][term] * amp])
    one = sp.csr_matrix((data, (np.concatenate([every, rows]), np.concatenate([every, cols]))),
                        shape=(fock.dim, fock.dim))
    a, b, c, d, weight = _interaction_terms(basis)
    term, rows, cols, amp = _ladder(fock, fock, np.column_stack([c, d]), np.column_stack([a, b]))
    data = (0.5 * weight[term] * amp).astype(complex)
    return one + sp.csr_matrix((data, (rows, cols)), shape=(fock.dim, fock.dim))


def assert_matches_reference(h, ref):
    # the same sparsity pattern, and every element within 1e-12 of the largest
    h, ref = h.tocsr().sorted_indices(), ref.tocsr().sorted_indices()
    assert np.array_equal(h.indptr, ref.indptr) and np.array_equal(h.indices, ref.indices)
    assert np.max(np.abs(h.data - ref.data)) <= 1e-12 * np.max(np.abs(ref.data))


def _default_sweep(external="zero"):
    from dimred import harness
    from dimred.config import DEFAULT_CONFIG_TEXT, ExperimentConfig

    text = DEFAULT_CONFIG_TEXT.replace("external.name = zero", f"external.name = {external}")
    env = ExperimentConfig.from_text(text)
    inputs = harness.sweep_inputs(env)
    return [harness.point_setup(env, point, inputs) for point in env.points()]


def test_hamiltonian_matches_reference_kernel_on_default_sectors():
    # every sweep_default point, N = 2..8, in its (K, Pi) sector
    for setup in _default_sweep():
        assert_matches_reference(setup.h0, reference_hamiltonian(setup.basis, setup.psi0.fock))


def test_hamiltonian_matches_reference_kernel_on_capped_well_basis():
    # the static well breaks translation invariance: all 3654 capped rows at N = 8
    setup = _default_sweep("gaussian_well")[-1]
    assert setup.psi0.fock.dim == 3654 and setup.psi0.fock.n_particles == 8
    assert_matches_reference(setup.h0, reference_hamiltonian(setup.basis, setup.psi0.fock))


def test_hamiltonian_matches_reference_kernel_on_grid_matched_pairs(pair_hamiltonians):
    basis, fock, h = pair_hamiltonians("grid_matched")
    assert_matches_reference(h, reference_hamiltonian(basis, fock))


@pytest.mark.parametrize("sector", [False, True])
def test_lowered_matches_reference_kernel(default_modes, sector):
    m = default_modes.n_modes
    fock = manybody.FockBasis(m, 5, max_excitations=3)
    fock = condensate_sector(default_modes, fock) if sector else fock
    rng = np.random.default_rng(29)
    amps = rng.normal(size=fock.dim) + 1j * rng.normal(size=fock.dim)
    state = manybody.ManyBodyState(fock, amps / np.linalg.norm(amps))
    for lower in (np.arange(m)[:, None], np.column_stack(np.triu_indices(m))):
        sub, vecs = manybody._lowered(state, lower)
        # the reference lowers into every capped row; `sub` holds those it reaches
        capped = manybody.FockBasis(m, 5 - lower.shape[1], max_excitations=3)
        term, rows, cols, amp = _ladder(fock, capped, lower,
                                        np.zeros((len(lower), 0), dtype=np.int64))
        reached = np.unique(rows)
        assert np.array_equal(sub.occupations, capped.occupations[reached])
        ref = np.zeros((len(lower), capped.dim), dtype=complex)
        ref[term, rows] = amp * state.amplitudes[cols]
        assert np.array_equal(vecs != 0, ref[:, reached] != 0)
        assert np.max(np.abs(vecs - ref[:, reached])) <= 1e-12 * np.max(np.abs(ref))


def test_hamiltonian_zero_interaction_is_one_body(setup):
    point, conf, unscaled, _, _ = setup
    sc0 = potentials.scale(potentials.uniform_ball(height=0.0), point, d_perp=1)
    basis0 = manybody.build_basis(point, conf, None, sc0, 3, 2, L, unscaled_mode=unscaled)
    fock = manybody.FockBasis(basis0.n_modes, 3)
    assert manybody.two_body_operator(basis0, fock).nnz == 0
    ref = _loop_hamiltonian(basis0, fock)
    h = manybody.hamiltonian(basis0, fock).toarray()
    assert np.max(np.abs(h - ref)) < 1e-12 * np.max(np.abs(ref))


def test_vq_below_one_scaled_point_per_range_matches_a_fine_grid():
    # what a points-per-range floor would guard: at N = 4096 the 961-point grid
    # puts 0.94 scaled points across the range, and the pair factors vq still
    # match a 16001-point run (3.6e-9 of the largest entry measured)
    point = scaling.make_point(4096, 1.0 / 4096, 0.5)
    conf = potentials.harmonic_confinement(dimension=1)
    sc = potentials.scale(potentials.uniform_ball(height=3.0), point, d_perp=1)
    vqs = []
    for n in (961, 16001):
        unscaled = transverse.solve_modes(conf, transverse.TransverseGrid(8.0, n), 3)
        if n == 961:
            assert sc.range / transverse.rescale(unscaled, point.epsilon).spacing < 1.0
        vqs.append(manybody.build_basis(point, conf, None, sc, 5, 3, L,
                                        unscaled_mode=unscaled).vq)
    coarse, fine = vqs
    assert np.max(np.abs(coarse - fine)) < 1e-7 * np.max(np.abs(fine))


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
    j = mode_index(basis0, 1, 0)
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


@pytest.mark.parametrize("which", ["continuum", "grid_matched"])
def test_prebuilt_hamiltonian_used_at_two_particles(pair_hamiltonians, which, monkeypatch):
    # a given h is cut into the sector blocks, so none is assembled, and the
    # blocks assembled alone give the same state
    basis, fock, h = pair_hamiltonians(which)
    blocks = manybody.evolve(condensed(fock), basis, 0.01, 0.3, n_outputs=1).final
    e_blocks = manybody.renormalized_energy(blocks, basis)

    def no_assembly(*args, **kwargs):
        raise AssertionError("a sector block assembled although h was given")

    monkeypatch.setattr(manybody, "two_body_operator", no_assembly)
    given = manybody.evolve(condensed(fock), basis, 0.01, 0.3, n_outputs=1, h=h).final
    direct = expm_multiply(-1j * 0.3 * h.tocsc(), condensed(fock).amplitudes)
    assert np.linalg.norm(given.amplitudes - direct) < 1e-9
    assert np.linalg.norm(given.amplitudes - blocks.amplitudes) < 1e-9
    assert e_blocks == pytest.approx(manybody.renormalized_energy(blocks, basis, h=h), rel=1e-12)


def test_two_particles_static_well_matches_sparse_hamiltonian(setup):
    # a field couples different momenta, so all rows form one sector
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
    assert [rows.tolist() for rows in manybody.sectors(basis, fock)] == [list(range(fock.dim))]


@pytest.fixture(scope="module")
def grid_basis_10x8():
    # verify-all's grid-matched 10 x 8 problem
    return grid_matched_basis(10, 8)


def grid_matched_basis(n_x, n_y):
    point = scaling.make_point(2, 0.5, 0.5)
    conf = potentials.harmonic_confinement(dimension=1)
    sc = potentials.scale(potentials.gaussian_bump(height=2.0, radius=4.0, width=1.5), point,
                          d_perp=1)
    return manybody.build_grid_matched_basis(point, conf, sc, n_x, n_y, L, 6.0)


@pytest.fixture(scope="module")
def pair_hamiltonians(setup, grid_basis_10x8, oracle_pair):
    # the N = 2 problems with their sparse H, each assembled once when first used
    bases = {"continuum": setup[4], "grid_matched": grid_basis_10x8,
             "oracle_pair": oracle_pair[2]}

    @functools.cache
    def build(which):
        basis = bases[which]
        fock = manybody.FockBasis(basis.n_modes, 2, dim_cap=10**5)
        return basis, fock, manybody.hamiltonian(basis, fock).tocsr()

    return build


@pytest.mark.parametrize("which", ["grid_matched", "continuum", "oracle_pair"])
def test_pair_blocks_match_sparse_hamiltonian(pair_hamiltonians, which):
    # each (K, Pi) sector's block, assembled on its rows alone, against the
    # sparse H of all rows; the blocks hold all of H, so their squared norms
    # add up to its own.  oracle_pair's 12 x 10 basis assembles whole, too.
    basis, fock, h = pair_hamiltonians(which)
    rows_of = manybody.sectors(basis, fock)
    assert np.array_equal(np.sort(np.concatenate(rows_of)), np.arange(fock.dim))
    occ = fock.occupations.astype(np.int64)
    k_row = occ @ basis.mode_kx
    if basis.momentum_modulus is not None:
        k_row %= basis.momentum_modulus
    pi_row = occ @ basis.mode_parity % 2
    assert set(pi_row) == {0, 1}
    # H conserves the transverse parity exactly, not just to quadrature noise
    coo = h.tocoo()
    assert np.array_equal(pi_row[coo.row], pi_row[coo.col])
    # one block per (K, Pi) sector
    assert len(rows_of) == len(set(zip(k_row, pi_row)))
    frob = 0.0
    for rows in rows_of:
        assert len(set(k_row[rows])) == 1 and len(set(pi_row[rows])) == 1
        ref = h[rows][:, rows].toarray()
        # vq is real and an N = 2 block is full, so it is a dense float64 array
        block = manybody._sector_block(basis, fock, rows, None)
        assert block.dtype == np.float64 and block.flags.c_contiguous
        assert np.max(np.abs(block - ref)) <= 1e-12 * np.max(np.abs(ref))
        frob += np.sum(np.abs(ref) ** 2)
    assert frob == pytest.approx(sp.linalg.norm(h) ** 2, rel=1e-12)


def _verify_all_two_body_state(basis, fock):
    # verify-all's orbital: a Gaussian in x on the even transverse ground mode
    conf = potentials.harmonic_confinement(dimension=1)
    oracle = manybody.GridOracle(basis.point, conf, basis.scaled, L, 10, 8, 6.0)
    phi_x = np.exp(-oracle.x**2 / 2.0) * np.exp(0.5j * oracle.x)
    orb = phi_x[:, None] * oracle.tau[None, :]
    orb = orb / math.sqrt(np.sum(np.abs(orb) ** 2) * oracle.weight())
    u = manybody.modes_on_grid(basis, oracle)
    return manybody.product_state(fock, u.conj().T @ (orb.ravel() * math.sqrt(oracle.weight())))


def test_evolve_drops_exactly_the_odd_parity_sectors(pair_hamiltonians):
    # the orbital sits on the even transverse mode, so the odd-Pi sectors hold
    # only quadrature roundoff: they fall below the Krylov floor and read zero,
    # every even sector is propagated, and the state matches expm_multiply on
    # the full sparse H
    basis, fock, h = pair_hamiltonians("grid_matched")
    st0 = _verify_all_two_body_state(basis, fock)
    traj = manybody.evolve(st0, basis, 0.01, 0.2, n_outputs=1, krylov_tol=1e-11)
    odd = fock.occupations.astype(np.int64) @ basis.mode_parity % 2 == 1
    for rows in manybody.sectors(basis, fock):
        assert np.all(traj.final.amplitudes[rows] == 0.0) == odd[rows[0]]
    assert traj.dropped_norm == pytest.approx(np.linalg.norm(st0.amplitudes[odd]), rel=1e-12)
    assert 0.0 < traj.dropped_norm <= 1e-11
    exact = expm_multiply(-0.2j * h.tocsc(), st0.amplitudes)
    assert np.linalg.norm(traj.final.amplitudes - exact) <= 1e-10


def test_evolve_propagates_a_sector_just_above_the_floor(pair_hamiltonians):
    # one heavy sector, one at 1.01 and one at 0.99 times the floor
    # krylov_tol ||psi|| / sqrt(S): only the last is dropped
    basis, fock, h = pair_hamiltonians("continuum")
    rows_of = sorted(manybody.sectors(basis, fock), key=len)
    floor = 1e-10 / math.sqrt(len(rows_of))
    rng = np.random.default_rng(5)
    amps = np.zeros(fock.dim, dtype=complex)
    for rows, norm in zip(rows_of[-3:], (0.99 * floor, 1.01 * floor, 1.0)):
        v = rng.normal(size=len(rows)) + 1j * rng.normal(size=len(rows))
        amps[rows] = norm * v / np.linalg.norm(v)
    state = manybody.ManyBodyState(fock, amps)
    traj = manybody.evolve(state, basis, 0.01, 0.3, n_outputs=2, krylov_tol=1e-10)
    assert traj.dropped_norm == pytest.approx(0.99 * floor, rel=1e-12)
    exact = expm_multiply(-0.3j * h.tocsc(), amps)
    above, below = rows_of[-2], rows_of[-3]
    assert np.linalg.norm(traj.final.amplitudes[above] - exact[above]) <= 1e-9 * floor
    assert np.all(traj.final.amplitudes[below] == 0.0)
    assert np.linalg.norm(traj.final.amplitudes - exact) <= 1e-9


def _transverse_parity_of(basis):
    return np.array([basis.mode_parity[basis.mode_my == m][0] for m in range(basis.m_y)])


@pytest.mark.parametrize("n_x, n_y", [(10, 8), (16, 12)])
def test_grid_matched_parity_keeps_the_nyquist_mode_even(n_x, n_y):
    # on the periodic grid the highest mode is the Nyquist mode, which is
    # even although its index is odd: parity is read from the mode itself
    basis = grid_matched_basis(n_x, n_y)
    expected = [m % 2 for m in range(n_y - 1)] + [0]
    assert _transverse_parity_of(basis).tolist() == expected
    tau = basis.transverse.modes
    mirrored = np.roll(tau[:, ::-1], 1, axis=1)         # y -> -y, wrapped
    overlap = np.sum(tau * mirrored, axis=1) * basis.transverse.weight
    assert np.max(np.abs(overlap - (1 - 2 * np.array(expected)))) < 1e-10


def test_continuum_parity_alternates(setup):
    assert _transverse_parity_of(setup[4]).tolist() == [0, 1, 0]


def test_d_perp_2_modes_are_inversion_eigenfunctions(basis_2d):
    tau = basis_2d.transverse.modes[:basis_2d.m_y]
    overlap = np.sum(tau * tau[:, ::-1, ::-1], axis=(1, 2)) * basis_2d.transverse.weight
    assert np.max(np.abs(np.abs(overlap) - 1.0)) < 1e-10
    assert _transverse_parity_of(basis_2d).tolist() == (overlap < 0).astype(int).tolist()


@pytest.mark.parametrize("which", ["grid_matched", "continuum", "d_perp_2"])
def test_odd_parity_pair_elements_are_exact_zeros(setup, grid_basis_10x8, basis_2d, which):
    basis = {"grid_matched": grid_basis_10x8, "continuum": setup[4], "d_perp_2": basis_2d}[which]
    p = _transverse_parity_of(basis)
    pairs = np.add.outer(p, p)
    odd = np.add.outer(pairs, pairs) % 2 == 1
    assert odd.any()
    assert np.all(basis.vq[:, odd] == 0.0)
    assert np.all(np.any(basis.vq[:, ~odd] != 0.0, axis=0))


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
    assert traj.dropped_norm == 0.0       # a field leaves one sector
    psi = state.amplitudes
    for t_mid in (0.025, 0.075):
        psi = expm_multiply(-0.05j * manybody.hamiltonian(basis, fock, t_mid).tocsc(), psi)
    assert np.linalg.norm(traj.final.amplitudes - psi) < 1e-9
    with pytest.raises(DomainError):
        manybody.evolve(state, basis, 0.03, 0.1)            # 3.33 steps
    for dt in (-0.05, 0.0):         # no positive number of steps
        with pytest.raises(DomainError):
            manybody.evolve(state, basis, dt, 0.1)
    # a prebuilt H(t0) serves a driven field as well
    given = manybody.evolve(state, basis, 0.05, 0.1, n_outputs=1, krylov_tol=1e-12,
                            h=manybody.hamiltonian(basis, fock, 0.0))
    assert np.max(np.abs(given.final.amplitudes - traj.final.amplitudes)) < 1e-13


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
    # an interval one 128-vector space cannot cover (218 matvecs): substeps reuse each basis
    calls = []

    def counted(x):
        calls.append(1)
        return h @ x

    mine = manybody.lanczos_expm(counted, v, 20.0, tol=1e-10)
    ref = expm_multiply(-20.0j * h.tocsc(), v)
    assert np.max(np.abs(mine - ref)) < 1e-10
    assert len(calls) < 592           # a fresh 40-vector basis per halved step costs 592
    with pytest.raises(ToleranceError):
        manybody.lanczos_expm(lambda x: h @ x, v, 0.7, m_max=1)


def list_lanczos_expm(apply_h, v: np.ndarray, dt: float, tol: float = 1e-10,
                      m_max: int = 40, spaces: list | None = None) -> np.ndarray:
    """The earlier kernel: a list of Krylov vectors, one modified Gram-Schmidt
    pass, scipy's eigh_tridiagonal and a convergence test after every matvec.
    `spaces`, if given, gets the size of each Krylov space it builds."""
    from scipy.linalg import eigh_tridiagonal

    def expm_e1(alphas, betas, h):
        # exp(-1j h T) e_1, and whether the estimate |beta_m h y_m| is in budget
        evals, evecs = eigh_tridiagonal(np.asarray(alphas), np.asarray(betas[:-1]))
        y = evecs @ (np.exp(-1j * h * evals) * evecs[0])
        return y, betas[-1] < 1e-14 or abs(betas[-1] * h * y[-1]) < tol * (h / dt)

    if np.linalg.norm(v) == 0.0:
        return v.copy()
    rest = dt
    while True:
        nrm = np.linalg.norm(v)
        vecs = [v / nrm]
        alphas, betas = [], []
        while True:
            w = apply_h(vecs[-1])
            alphas.append(float(np.real(np.vdot(vecs[-1], w))))
            w = w - alphas[-1] * vecs[-1]
            if betas:
                w = w - betas[-1] * vecs[-2]
            # full reorthogonalization: cheap at these Krylov sizes, prevents ghosts
            for u in vecs:
                w = w - np.vdot(u, w) * u
            betas.append(float(np.linalg.norm(w)))
            if len(alphas) == m_max or expm_e1(alphas, betas, rest)[1]:
                break
            vecs.append(w / betas[-1])
        if spaces is not None:
            spaces.append(len(vecs))
        for k in range(31):
            h = rest / 2**k
            y, reached = expm_e1(alphas, betas, h)
            if reached:
                break
        else:
            raise ToleranceError("Lanczos propagator failed to converge after 30 halvings")
        out = np.zeros_like(v)
        for coeff, u in zip(y, vecs):
            out += coeff * u
        v = nrm * out
        if h == rest:
            return v
        rest -= h


def _random_hermitian_problem():
    # spectrum in about [-2, 2]: dt = 20 fits in one space of 72 vectors, so a
    # 40-vector cap makes it halve
    rng = np.random.default_rng(11)
    a = (rng.normal(size=(300, 300)) + 1j * rng.normal(size=(300, 300))) / math.sqrt(300)
    v = rng.normal(size=300) + 1j * rng.normal(size=300)
    return (a + a.conj().T) / 2.0, v / np.linalg.norm(v), [(0.7, 128), (20.0, 128), (20.0, 40)]


def _sweep_default_n8_problem():
    from dimred import harness
    from dimred.config import DEFAULT_CONFIG_TEXT, ExperimentConfig

    env = ExperimentConfig.from_text(DEFAULT_CONFIG_TEXT)
    point = env.points()[-1]
    assert point.n_particles == 8
    setup = harness.point_setup(env, point, harness.sweep_inputs(env))
    return setup.h0, setup.psi0.amplitudes, [(env.t_final, 128)]


def stop_size(m: int, m_max: int) -> int:
    """The first Krylov size >= m at which ``lanczos_expm`` tests its estimate:
    4, 8, 12, 16, then each time the space has grown by a quarter, and m_max."""
    test = 4
    while test < m:
        test += max(4, test // 4)
    return min(test, m_max)


def test_stop_size_follows_the_schedule():
    assert [stop_size(m, 128) for m in (1, 4, 5, 16, 17, 21, 59, 113, 128)] == [
        4, 4, 8, 16, 20, 25, 72, 128, 128]
    assert stop_size(33, 40) == 38 and stop_size(39, 40) == 40


@pytest.mark.parametrize("problem", [_random_hermitian_problem, _sweep_default_n8_problem],
                         ids=["random_hermitian", "sweep_default_n8"])
def test_block_kernel_matches_list_kernel(problem):
    # one Krylov array, DGKS-conditional CGS2 and dstev, its error estimate
    # tested on a schedule, against the list-based kernel that tests it after
    # every matvec, at the same cap: both meet expm_multiply at the tolerance,
    # and each block space stops at the schedule's first test at or after the
    # size the list kernel's space stopped at
    h, v, intervals = problem()
    for dt, m_max in intervals:
        counts, spaces = {"block": 0, "list": 0}, []

        def counted(kind):
            def apply(x):
                counts[kind] += 1
                return h @ x
            return apply

        mine = manybody.lanczos_expm(counted("block"), v, dt, tol=1e-10, m_max=m_max)
        ref = list_lanczos_expm(counted("list"), v, dt, tol=1e-10, m_max=m_max, spaces=spaces)
        exact = expm_multiply(-1j * dt * sp.csc_matrix(h), v)
        for kernel in (mine, ref):
            assert np.linalg.norm(kernel - exact) <= 1e-10 * np.linalg.norm(exact), dt
        assert counts["block"] <= sum(stop_size(m, m_max) for m in spaces), (dt, counts, spaces)
        if m_max == 40:
            assert len(spaces) > 1, spaces    # the halving path


def krylov_inputs(h):
    """(apply, inputs): H's action that keeps every vector it is applied to."""
    inputs = []

    def apply(x):
        inputs.append(x.copy())
        return h @ x
    return apply, inputs


def test_default_n8_step_is_one_krylov_space():
    # transverse energies 2/eps^2 = 128 at N = 8: a 40-vector cap takes 7
    # spaces (280 matvecs), the 128-vector one takes one.  A test after every
    # matvec stops at 68 vectors, the schedule at 72.  The vectors H is
    # applied to are orthonormal, so they belong to one space
    h, v, [(dt, _)] = _sweep_default_n8_problem()
    apply, inputs = krylov_inputs(h)
    mine = manybody.lanczos_expm(apply, v, dt, tol=1e-10)
    q = np.array(inputs)
    assert len(q) <= 72
    assert np.max(np.abs(q.conj() @ q.T - np.eye(len(q)))) < 1e-12
    exact = expm_multiply(-1j * dt * sp.csc_matrix(h), v)
    assert np.linalg.norm(mine - exact) <= 1e-10 * np.linalg.norm(exact)


def test_a_stiff_step_keeps_its_krylov_vectors_orthonormal():
    # eigenvalues in [-1, 1] and one at 1e18, a spread of 1e18, with the
    # start vector's weight 1e-20 on the stiff one: the Lanczos steps cancel
    # below 1/sqrt(2) of w, the DGKS test runs the second Gram-Schmidt pass,
    # and the vectors H is applied to stay orthonormal.  One pass alone lets
    # them drift, and no halving meets the budget (ToleranceError).  Here
    # eps |H| dt = 44, so the step's own rounding, not the kernel, bounds how
    # close it can come to exp(-1j dt H) v; it stays unitary
    rng = np.random.default_rng(1)
    lam = np.append(rng.uniform(-1.0, 1.0, 99), 1e18)
    v = rng.normal(size=100) + 1j * rng.normal(size=100)
    v[-1] = 1e-20 * np.linalg.norm(v)
    apply, inputs = krylov_inputs(sp.diags(lam, format="csr"))
    out = manybody.lanczos_expm(apply, v, 0.2, tol=1e-10)
    q = np.array(inputs)
    assert len(q) <= 100
    assert np.max(np.abs(q.conj() @ q.T - np.eye(len(q)))) < 1e-12
    assert abs(np.linalg.norm(out) - np.linalg.norm(v)) < 1e-12 * np.linalg.norm(v)


def test_a_space_as_large_as_the_vector_is_exact():
    # n = 30 < m_max: the cap is n, and a space of n vectors spans everything,
    # so one space gives the exponential to roundoff
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30)))
    lam = np.linspace(-1e3, 1e3, 30)
    h = (q * lam) @ q.conj().T
    v = rng.normal(size=30) + 1j * rng.normal(size=30)
    apply, inputs = krylov_inputs(h)
    mine = manybody.lanczos_expm(apply, v, 5.0, tol=1e-10)
    exact = q @ (np.exp(-5j * lam) * (q.conj().T @ v))
    assert len(inputs) <= 30
    assert np.linalg.norm(mine - exact) <= 1e-10 * np.linalg.norm(v)


@pytest.mark.parametrize("scale", [1.0, 1e-12, 1e-15, 1e-16, 1e6])
def test_the_lanczos_step_does_not_depend_on_the_scale_of_h(scale):
    # exp(-1j dt (s H)) v with dt = 0.5 / s is exp(-0.5j H) v at every s: a
    # breakdown test on beta in absolute terms stops the space after one
    # vector once every beta of s H falls under it
    rng = np.random.default_rng(5)
    a = rng.normal(size=(50, 50)) + 1j * rng.normal(size=(50, 50))
    h = (a + a.conj().T) / 2.0
    h /= np.linalg.norm(h, 2)
    v = rng.normal(size=50) + 1j * rng.normal(size=50)
    lam, q = np.linalg.eigh(h)
    exact = q @ (np.exp(-0.5j * lam) * (q.conj().T @ v))
    mine = manybody.lanczos_expm(lambda x: scale * (h @ x), v, 0.5 / scale, tol=1e-10)
    assert np.linalg.norm(mine - exact) <= 1e-10 * np.linalg.norm(v)


# ---------------------------------------------------------------------------
# reduced densities
# ---------------------------------------------------------------------------


def test_gamma1_condensed_rank_one(setup):
    _, _, _, _, basis = setup
    fock = manybody.FockBasis(basis.n_modes, 4)
    gamma = manybody.reduced_density(condensed(fock), 1)
    assert np.trace(gamma.matrix).real == pytest.approx(1.0, abs=1e-12)
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
        assert np.trace(g.matrix).real == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(g.matrix - g.matrix.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(g.matrix)[0] > -1e-10


def test_gamma2_trace_and_partial_trace():
    fock = manybody.FockBasis(3, 3)
    rng = np.random.default_rng(13)
    amps = rng.normal(size=fock.dim) + 1j * rng.normal(size=fock.dim)
    state = manybody.ManyBodyState(fock, amps / np.linalg.norm(amps))
    g2 = manybody.reduced_density(state, 2)
    assert np.trace(g2.matrix).real == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.eigvalsh(g2.matrix)[0] > -1e-10
    m = 3
    g2m = g2.matrix.reshape(m, m, m, m)
    partial = np.einsum("aibi->ab", g2m)
    g1 = manybody.reduced_density(state, 1).matrix
    assert partial == pytest.approx(g1, abs=1e-10)


def test_gamma2_of_two_particles_is_the_pair_state():
    # N = 2 lowers both particles into the vacuum: gamma^(2) is the projector on psi
    m = 4
    fock = manybody.FockBasis(m, 2)
    rng = np.random.default_rng(17)
    amps = rng.normal(size=fock.dim) + 1j * rng.normal(size=fock.dim)
    state = manybody.ManyBodyState(fock, amps / np.linalg.norm(amps))
    g2 = manybody.reduced_density(state, 2)
    assert np.trace(g2.matrix).real == pytest.approx(1.0, abs=1e-12)
    evals = np.linalg.eigvalsh(g2.matrix)
    assert evals[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(evals[:-1])) < 1e-12
    partial = np.einsum("aibi->ab", g2.matrix.reshape(m, m, m, m))
    assert partial == pytest.approx(manybody.reduced_density(state, 1).matrix, abs=1e-12)


@pytest.mark.parametrize("sector", [False, True])
def test_two_mode_lowering_is_two_one_mode_lowerings(default_modes, sector):
    m = default_modes.n_modes
    fock = manybody.FockBasis(m, 4, max_excitations=2)
    fock = condensate_sector(default_modes, fock) if sector else fock
    rng = np.random.default_rng(23)
    amps = rng.normal(size=fock.dim) + 1j * rng.normal(size=fock.dim)
    state = manybody.ManyBodyState(fock, amps / np.linalg.norm(amps))
    a, b = np.triu_indices(m)
    sub2, pairs = manybody._lowered(state, np.column_stack([a, b]))
    sub1, singles = manybody._lowered(state, np.arange(m)[:, None])
    for mode in range(m):
        sub, twice = manybody._lowered(manybody.ManyBodyState(sub1, singles[mode]),
                                       np.arange(m)[:, None])
        assert np.array_equal(sub.occupations, sub2.occupations)
        sel = a == mode
        assert np.max(np.abs(twice[b[sel]] - pairs[sel])) <= 1e-15


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
    swapped = psi_t.transpose(2, 3, 0, 1)     # (x1, y1, x2, y2) -> (x2, y2, x1, y1)
    assert np.linalg.norm(psi_t - swapped) < 1e-10 * np.linalg.norm(psi_t)


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



def _literal_strang(oracle, psi, dt, steps):
    kin_phase = np.exp(-1j * dt * oracle.kin)
    for s in range(steps):
        v = oracle.potential((s + 0.5) * dt)
        psi = psi * np.exp(-0.5j * dt * v)
        psi = np.fft.ifftn(np.fft.fftn(psi) * kin_phase)
        psi = psi * np.exp(-0.5j * dt * v)
    return psi


@pytest.mark.parametrize("field", ["bump", "driven_well"])
def test_grid_oracle_evolve_matches_literal_strang_loop(oracle_pair, field):
    # the half-step phase is cached: once for a static field, once per step
    # for a driven one; the caller's psi stays as it was
    point, sc, _, oracle = oracle_pair
    if field == "driven_well":
        conf = potentials.harmonic_confinement(dimension=1)
        ext = potentials.external_by_name("driven_well", depth=0.5, omega=4.0)
        oracle = manybody.GridOracle(point, conf, sc, L, oracle.n_x, oracle.n_y,
                                     oracle.y_span, external=ext)
    psi0 = oracle.product_state(np.exp(-oracle.x**2 / 2.0) * np.exp(0.5j * oracle.x))
    before = psi0.copy()
    psi_t = oracle.evolve(psi0, 5e-3, 0.1)
    assert np.array_equal(psi0, before)
    assert np.max(np.abs(psi_t - _literal_strang(oracle, before, 5e-3, 20))) <= 1e-12


@pytest.mark.parametrize("field", ["bump", "driven_well"])
def test_grid_oracle_evolve_composes_over_a_split_span(oracle_pair, field):
    # the fused static phases end in a half step and a nonzero t0 shifts the
    # driven midpoints, so two legs [0, T] and [T, 2T] equal one run to 2T
    point, sc, _, oracle = oracle_pair
    if field == "driven_well":
        conf = potentials.harmonic_confinement(dimension=1)
        ext = potentials.external_by_name("driven_well", depth=0.5, omega=4.0)
        oracle = manybody.GridOracle(point, conf, sc, L, oracle.n_x, oracle.n_y,
                                     oracle.y_span, external=ext)
    psi0 = oracle.product_state(np.exp(-oracle.x**2 / 2.0) * np.exp(0.5j * oracle.x))
    once = oracle.evolve(psi0, 5e-3, 0.1)
    twice = oracle.evolve(oracle.evolve(psi0, 5e-3, 0.05), 5e-3, 0.1, t0=0.05)
    assert np.max(np.abs(once - twice)) <= 1e-12


def test_grid_oracle_evolve_rejects_empty_span_and_bad_step(oracle_pair):
    _, _, _, oracle = oracle_pair
    psi = oracle.product_state(np.exp(-oracle.x**2 / 2.0))
    for dt, t_final, t0 in [(1e-2, 0.0, 0.0), (1e-2, -0.1, 0.0), (1e-2, 0.1, 0.2),
                            (0.0, 0.1, 0.0), (-1e-2, -0.1, 0.0)]:
        with pytest.raises(DomainError):
            oracle.evolve(psi, dt, t_final, t0)


@pytest.mark.parametrize("n_x, n_y", [(16, 12), (10, 8)])
def test_grid_oracle_axis_propagators_are_the_kinetic_step(n_x, n_y):
    # n_x != n_y and both even (a Nyquist row on each axis); with V = 0 one
    # evolve step is the four per-axis products alone
    point = scaling.make_point(2, 0.5, 0.5)
    conf = potentials.harmonic_confinement(dimension=1)
    sc = potentials.scale(potentials.uniform_ball(height=0.0), point, d_perp=1)
    oracle = manybody.GridOracle(point, conf, sc, L, n_x, n_y, 6.0)
    dt = 0.05
    for prop, n in zip(oracle.axis_propagators(dt), (n_x, n_y)):
        assert prop.shape == (n, n)
        assert np.max(np.abs(prop.conj().T @ prop - np.eye(n))) <= 1e-14
    rng = np.random.default_rng(7)
    psi = rng.normal(size=oracle.kin.shape) + 1j * rng.normal(size=oracle.kin.shape)
    oracle.potential = lambda t: np.zeros(oracle.kin.shape)
    ref = np.fft.ifftn(np.exp(-1j * dt * oracle.kin) * np.fft.fftn(psi))
    assert np.max(np.abs(oracle.evolve(psi, dt, dt) - ref)) <= 1e-13


def test_grid_oracle_is_second_order():
    # verify-all's 10 x 8 problem: against a Krylov reference at tolerance
    # 1e-12 the Strang splitting error of the oracle falls as dt^2
    point = scaling.make_point(2, 0.5, 0.5)
    conf = potentials.harmonic_confinement(dimension=1)
    prof = potentials.gaussian_bump(height=2.0, radius=4.0, width=1.5)
    sc = potentials.scale(prof, point, d_perp=1)
    n_x, n_y, y_span = 10, 8, 6.0
    basis = manybody.build_grid_matched_basis(point, conf, sc, n_x, n_y, L, y_span)
    oracle = manybody.GridOracle(point, conf, sc, L, n_x, n_y, y_span)
    phi_x = np.exp(-oracle.x**2 / 2.0) * np.exp(0.5j * oracle.x)
    orb = phi_x[:, None] * oracle.tau[None, :]
    orb = orb / math.sqrt(np.sum(np.abs(orb) ** 2) * oracle.weight())
    u = manybody.modes_on_grid(basis, oracle)
    coeffs = u.conj().T @ (orb.ravel() * math.sqrt(oracle.weight()))
    st0 = manybody.product_state(manybody.FockBasis(basis.n_modes, 2, dim_cap=10**5), coeffs)
    final = manybody.evolve(st0, basis, 0.01, 0.2, n_outputs=1, krylov_tol=1e-12).final
    g_ref = manybody.gamma_modes_to_grid(
        basis, manybody.reduced_density(final, 1).matrix, oracle)
    psi0 = oracle.product_state(phi_x)
    dists = [projectors.trace_distance(oracle.gamma1(oracle.evolve(psi0, dt, 0.2)), g_ref)
             for dt in (4e-3, 2e-3, 1e-3)]
    orders = np.log2(np.asarray(dists[:-1]) / np.asarray(dists[1:]))
    assert np.all(np.abs(orders - 2.0) < 0.05)

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
    j = mode_index(basis, 0, 1)
    occ = np.zeros((1, basis.n_modes), dtype=np.uint8)
    occ[0, 0] = n - 1
    occ[0, j] = 1
    amps = np.zeros(fock.dim, dtype=complex)
    amps[fock.lookup(occ)[0]] = 1.0
    state = manybody.ManyBodyState(fock, amps)
    gamma = manybody.reduced_density(state, 1).matrix
    assert manybody.transverse_excited_fraction(gamma, basis) == pytest.approx(
        math.sqrt(1.0 / n), rel=1e-12)
    # a spread state: the occupations of the my != 0 modes, weighted by |amplitude|^2
    rng = np.random.default_rng(4)
    amps = rng.normal(size=fock.dim) + 1j * rng.normal(size=fock.dim)
    state = manybody.ManyBodyState(fock, amps / np.linalg.norm(amps))
    excited = fock.occupations[:, basis.mode_my != 0].sum(axis=1) @ np.abs(state.amplitudes) ** 2
    gamma = manybody.reduced_density(state, 1).matrix
    assert manybody.transverse_excited_fraction(gamma, basis) == pytest.approx(
        math.sqrt(excited / n), rel=1e-14)


# ---------------------------------------------------------------------------
# transverse dimension 2 and time dependence
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def basis_2d():
    point = scaling.make_point(4, 0.5, 0.5)
    conf = potentials.harmonic_confinement(dimension=2)
    unscaled = transverse.solve_modes(conf, transverse.TransverseGrid(6.5, 81), 2)
    prof = potentials.uniform_ball(height=2.0, radius=2.0)
    sc = potentials.scale(prof, point, d_perp=2)
    return manybody.build_basis(point, conf, None, sc, 3, 2, L, unscaled_mode=unscaled)


def test_build_basis_d_perp_2(basis_2d):
    basis = basis_2d
    assert basis.n_modes == 6
    # 2-d rescaling: E0/eps^2 = 2/0.25 = 8 (1.7e-6 off on 81^2 points)
    assert basis.e0_scaled == pytest.approx(8.0, abs=5e-6)
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



def test_vq_d_perp_2_against_radial_quadrature(basis_2d):
    # the harmonic ground state has T(rho) = exp(-rho^2/(2 eps^2))/(2 pi eps^2),
    # so V[q, 0, 0, 0, 0] = 2 pi int_0^r What(q, rho) T(rho) rho drho
    basis = basis_2d
    sc, eps = basis.scaled, basis.point.epsilon
    q_ints = sorted(basis.q_of_m)
    q_phys = 2.0 * math.pi * np.asarray(q_ints, dtype=float) / basis.box_length
    for i, q in enumerate(q_ints):
        exact, _ = quad(lambda rho: 2.0 * math.pi * rho
                        * manybody._cosine_transform_x(sc, q_phys, np.array([rho]))[i, 0]
                        * math.exp(-rho * rho / (2.0 * eps * eps)) / (2.0 * math.pi * eps * eps),
                        0.0, sc.range, epsabs=0.0, epsrel=1e-10, limit=200)
        assert basis.vq[basis.q_of_m[q], 0, 0, 0, 0] == pytest.approx(exact, rel=5e-6)  # 1.4e-6

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
    v = np.broadcast_to(basis.external.strength(t)
                        * basis.external.profile(x[:, None], tr.axis[None, :], 0.0),
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
    "off_centre", lambda x, y1, y2: np.exp(-(x - 0.7) ** 2) * (1.0 + 0.3 * y1),
    2.0, 1.0, 0.3, modulation=lambda t: 1.0 + t)


@pytest.mark.parametrize("field, t", [(potentials.gaussian_well(tilt=0.5), 0.0),
                                      (potentials.driven_well(omega=4.0), 0.37),
                                      (OFF_CENTRE, 0.37)])
def test_vpar_matrix_against_loop(setup, field, t):
    point, conf, unscaled, sc, _ = setup
    basis = manybody.build_basis(point, conf, field, sc, 5, 3, L, unscaled_mode=unscaled)
    ref = _loop_vpar(basis, t)
    vpar = field.strength(t) * basis.field_matrix
    assert np.max(np.abs(vpar - ref)) < 1e-12 * np.max(np.abs(ref))


def _counting(field):
    """`field` with a profile that counts its calls in `calls`."""
    calls = []

    def profile(x, y1, y2):
        calls.append(1)
        return field.profile(x, y1, y2)

    return dataclasses.replace(field, profile=profile), calls


@pytest.mark.parametrize("field", [potentials.driven_well(depth=0.5, omega=4.0), OFF_CENTRE])
def test_field_profile_evaluated_once_per_basis(setup, field):
    point, conf, unscaled, sc, _ = setup
    field, calls = _counting(field)
    basis = manybody.build_basis(point, conf, field, sc, 3, 2, L, unscaled_mode=unscaled)
    fock = manybody.FockBasis(basis.n_modes, 2)
    traj = manybody.evolve(condensed(fock), basis, 0.01, 0.2, n_outputs=4)
    for t in (0.0, 0.1, 0.2):
        manybody.hamiltonian(basis, fock, t)
    assert len(traj.states) == 5 and len(calls) == 1


@pytest.mark.parametrize("prebuilt", [False, True], ids=["assembled", "prebuilt"])
@pytest.mark.parametrize("field", [potentials.driven_well(depth=0.5, omega=4.0), OFF_CENTRE,
                                   potentials.gaussian_well(depth=1.0, width=2.0), None],
                         ids=["driven_well", "off_centre", "static_well", "no_field"])
def test_evolve_energies_and_states_against_fresh_hamiltonians(setup, field, prebuilt):
    # evolve's one H(t) = B + (f(t) - f_B) G, from t0 = 0.1 with or without
    # h = H(t0): at every output the energy against <psi, H(t) psi>/N with
    # H(t) assembled afresh, and the state against expm_multiply with a fresh
    # H at each step's midpoint.  A random state fills every field-free sector.
    point, conf, unscaled, sc, _ = setup
    basis = manybody.build_basis(point, conf, field, sc, 5, 3, L, unscaled_mode=unscaled)
    fock = manybody.FockBasis(basis.n_modes, 3, max_excitations=2)
    rng = np.random.default_rng(7)
    amps = rng.normal(size=fock.dim) + 1j * rng.normal(size=fock.dim)
    state = manybody.ManyBodyState(fock, amps / np.linalg.norm(amps), 0.1)
    h = manybody.hamiltonian(basis, fock, 0.1) if prebuilt else None
    traj = manybody.evolve(state, basis, 0.05, 0.3, n_outputs=2, krylov_tol=1e-12, h=h)
    assert len(manybody.sectors(basis, fock)) == (1 if field else 18)
    assert traj.dropped_norm == 0.0 and len(traj.energies) == 3
    step = 0.05 if basis.time_dependent else 0.1
    psi = state.amplitudes
    for j, (t, s) in enumerate(zip(traj.times, traj.states)):
        assert t == pytest.approx(0.1 + 0.1 * j, abs=1e-15)
        if j:
            for t_mid in np.arange(t - 0.1 + step / 2, t, step):
                psi = expm_multiply(-1j * step * manybody.hamiltonian(basis, fock, t_mid).tocsc(),
                                    psi)
            assert np.linalg.norm(s.amplitudes - psi) < 1e-9
        fresh = manybody.expectation(s, manybody.hamiltonian(basis, fock, t)) / 3
        assert traj.energies[j] == pytest.approx(fresh, rel=1e-12)
    if field is OFF_CENTRE:                                      # complex elements in G
        g = manybody.one_body_operator(fock, basis.field_matrix).data
        assert np.max(np.abs(g.imag)) > 1e-3 * np.max(np.abs(g))


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
    mean_v = np.trapezoid(ext.profile(xg, 0.0, 0.0), xg) / L
    j = mode_index(basis, 0, 0)
    assert h1[j, j].real - basis.energies[j] == pytest.approx(mean_v, rel=1e-4)
    # off-diagonal element against direct quadrature
    a = mode_index(basis, 1, 0)
    b = mode_index(basis, -2, 0)
    q = 2.0 * math.pi * (basis.mode_kx[b] - basis.mode_kx[a]) / L
    direct = np.trapezoid(np.exp(1j * q * xg) * ext.profile(xg, 0.0, 0.0), xg) / L
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


@pytest.mark.parametrize("weight, refused", [(0.80, True), (0.82, False)])
def test_product_state_refuses_a_retained_weight_below_081(weight, refused):
    # with no excitation allowed only the row (2, 0) is kept, with amplitude
    # a^2: the retained weight (squared norm) is a^4
    fock = manybody.FockBasis(2, 2, max_excitations=0)
    a = weight**0.25
    coeffs = np.array([a, math.sqrt(1.0 - a * a)])
    if refused:
        with pytest.raises(ResolutionError,
                           match=r"retains only 0\.800 of the product state's weight \(< 0\.81\)"):
            manybody.product_state(fock, coeffs)
    else:
        assert manybody.product_state(fock, coeffs).norm == pytest.approx(1.0, abs=1e-14)


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


# ---------------------------------------------------------------------------
# the Fock kernels against the dense formulas they replace, and their memory
# ---------------------------------------------------------------------------


def _dense_product_state(fock, coeffs):
    """The product state's amplitudes by the earlier dense multinomial formula
    over the whole widened occupation table, not yet renormalized."""
    coeffs = np.asarray(coeffs, dtype=complex)
    coeffs = coeffs / np.linalg.norm(coeffs)
    n = fock.n_particles
    occ = fock.occupations.astype(np.int64)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, n + 1)))))
    log_multinomial = log_fact[n] - log_fact[occ].sum(axis=1)
    mag = np.abs(coeffs)
    log_mag = np.log(np.where(mag > 0, mag, 1.0))
    amp = np.exp(0.5 * log_multinomial + occ @ log_mag) * np.exp(1j * (occ @ np.angle(coeffs)))
    amp[(occ[:, mag == 0] > 0).any(axis=1)] = 0.0
    return amp


@given(n_modes=st.integers(min_value=2, max_value=7),
       n_particles=st.integers(min_value=0, max_value=6),
       cap=st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_product_state_matches_the_dense_multinomial_formula(n_modes, n_particles, cap, seed):
    # random coefficients, about a third of them exactly zero; within 4e-15 of
    # the largest amplitude (the dense formula's occ @ log|phi| adds a row's
    # terms in another order: 2.1e-15 at worst over 2101 draws), or the same
    # ResolutionError below 0.81 retained weight
    fock = manybody.FockBasis(n_modes, n_particles, max_excitations=cap)
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)
    coeffs[rng.random(n_modes) < 0.3] = 0.0
    if not coeffs.any():
        coeffs[0] = 1.0
    ref = _dense_product_state(fock, coeffs)
    retained = np.linalg.norm(ref)
    if retained < 0.9:
        with pytest.raises(ResolutionError):
            manybody.product_state(fock, coeffs)
        return
    ref /= retained
    got = manybody.product_state(fock, coeffs).amplitudes
    assert np.array_equal(got == 0.0, ref == 0.0)
    assert np.max(np.abs(got - ref)) <= 4e-15 * np.max(np.abs(ref))


def _assert_sector_blocks_match_csr(basis, fock, rel):
    """Every field-free (K, Pi) block assembled on its rows against the CSR
    sum of the one- and two-body operators: the same dense-or-sparse choice
    (a real block over a third full is dense), and elements within `rel` of
    the largest (bit for bit at 0).  Returns how many blocks were dense."""
    dense = 0
    for rows in manybody.sectors(basis, fock):
        sector = fock.subset(rows)
        ref = manybody.one_body_operator(sector, basis.one_body()) + \
            manybody.two_body_operator(basis, sector)
        block = manybody._sector_block(basis, fock, rows, None)
        full = 3 * ref.nnz > len(rows) ** 2 and not np.any(ref.data.imag)
        assert isinstance(block, np.ndarray) == full
        if full:
            assert block.dtype == np.float64 and block.flags.c_contiguous
        diff = abs(block - ref.real.toarray() if full else block - ref)
        assert np.max(diff) <= rel * abs(ref).max()
        dense += full
    return dense


@pytest.mark.parametrize("n_x, n_y", [(16, 12), (10, 8)], ids=["acceptance_7", "verify_all"])
def test_dense_pair_blocks_equal_the_csr_sum(n_x, n_y):
    basis = grid_matched_basis(n_x, n_y)
    fock = manybody.FockBasis(basis.n_modes, 2, dim_cap=10**5)
    # N = 2: no element is summed from two terms, so the blocks are bit for bit
    assert _assert_sector_blocks_match_csr(basis, fock, 0.0) == len(manybody.sectors(basis, fock))


def test_sector_blocks_choose_dense_or_sparse_as_the_csr_sum(setup):
    # N = 4 over 15 modes: 16 of the 34 blocks are dense, and in many of the
    # sparse ones the candidate elements alone would fill over a third
    basis = setup[4]
    fock = manybody.FockBasis(basis.n_modes, 4)
    assert _assert_sector_blocks_match_csr(basis, fock, 1e-15) == 16


@pytest.fixture(scope="module")
def acceptance_7_state():
    # acceptance 7's 16 x 12 basis (192 modes, N = 2, 18528 rows) and its initial state
    point = scaling.make_point(2, 0.5, 0.5)
    conf = potentials.harmonic_confinement(dimension=1)
    sc = potentials.scale(potentials.gaussian_bump(height=3.0, radius=4.0, width=1.5), point,
                          d_perp=1)
    basis = manybody.build_grid_matched_basis(point, conf, sc, 16, 12, L, 6.0)
    oracle = manybody.GridOracle(point, conf, sc, L, 16, 12, 6.0)
    phi_x = np.exp(-oracle.x**2 / (2.0 * 1.2**2)) * np.exp(0.5j * oracle.x)
    orb = phi_x[:, None] * oracle.tau[None, :]
    u = manybody.modes_on_grid(basis, oracle)
    coeffs = u.conj().T @ orb.ravel()
    basis.pair_classes    # cached before any peak is read
    fock = manybody.FockBasis(basis.n_modes, 2, dim_cap=10**5)
    return basis, coeffs, manybody.product_state(fock, coeffs)


def _traced_peak(build):
    """(result, the traced peak of the allocations while it is built, in bytes)."""
    tracemalloc.start()
    try:
        result = build()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# traced peaks (MB) on acceptance 7, while each kernel widened or gathered the
# whole 18528 x 192 occupation table -> now, and what each returns:
#   FockBasis(192, 2)           11.2 -> 4.0   the 3.6 MB table
#   product_state               57.4 -> 2.0   0.30 MB of amplitudes
#   _sector_block, 604 rows     17.0 -> 9.3   the 2.9 MB dense block; 7.7 once
#                                             _pair_weights gathers a batch of rows at a time
#   reduced_density(state, 1)   23.7 -> 4.6   the 0.59 MB gamma
@pytest.mark.parametrize("kernel, multiple", [("FockBasis", 1.5), ("product_state", 10),
                                              ("sector_block", 2.75), ("reduced_density", 10)])
def test_fock_kernel_peaks_at_a_small_multiple_of_what_it_returns(acceptance_7_state, kernel,
                                                                 multiple):
    basis, coeffs, state = acceptance_7_state
    fock = state.fock
    rows = max(manybody.sectors(basis, fock), key=len)
    assert len(rows) == 604
    build = {
        "FockBasis": lambda: manybody.FockBasis(192, 2, dim_cap=10**5).occupations,
        "product_state": lambda: manybody.product_state(fock, coeffs).amplitudes,
        "sector_block": lambda: manybody._sector_block(basis, fock, rows, None),
        "reduced_density": lambda: manybody.reduced_density(state, 1).matrix,
    }[kernel]
    result, peak = _traced_peak(build)
    assert peak <= multiple * result.nbytes


def test_evolve_holds_one_sector_block_at_a_time(acceptance_7_state):
    # traced peak of evolve on acceptance 7 (its 604-row block alone peaks at
    # 7.7 MB): 12.9 MB while the previous sector's block was still held while
    # the next was built, now 8.4 MB; the bound is 1.15 x 7.7 MB
    basis, _, state = acceptance_7_state
    traj, peak = _traced_peak(lambda: manybody.evolve(state, basis, 0.01, 0.05, n_outputs=1))
    assert peak <= 8.8e6
    assert traj.final.time == 0.05 and traj.norm_drift < 1e-9
