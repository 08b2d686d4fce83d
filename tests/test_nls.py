import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimred import nls, potentials
from dimred.errors import DomainError, ResolutionError


@pytest.fixture()
def grid():
    return nls.Grid1D(16.0 * math.pi, 256)


def test_plane_wave_dispersion(grid):
    # exact solution: phase omega = k^2 + b/L; splitting reproduces it exactly
    state = nls.plane_wave(grid, 3)
    b = 0.8
    k = 2.0 * math.pi * 3 / grid.length
    traj = nls.evolve(state, None, b, 1e-3, 1.0, n_outputs=2)
    expected = state.values * np.exp(-1j * (k**2 + b / grid.length) * 1.0)
    assert np.max(np.abs(traj.final.values - expected)) < 1e-8


def test_free_gaussian_matches_spectral_propagator(grid):
    state = nls.gaussian_state(grid, width=2.0, momentum=0.5)
    traj = nls.evolve(state, None, 0.0, 1e-2, 0.5, n_outputs=1)
    exact = np.fft.ifft(np.fft.fft(state.values)
                        * np.exp(-1j * grid.wavenumbers**2 * 0.5))
    assert np.max(np.abs(traj.final.values - exact)) < 1e-12


def test_mass_conservation(grid):
    state = nls.gaussian_state(grid, width=2.0)
    traj = nls.evolve(state, None, 1.0, 1e-3, 1.0, n_outputs=10)
    assert max(abs(s.l2 - 1.0) for s in traj.states) < 1e-10


def test_energy_conservation_static_potential(grid):
    ext = potentials.gaussian_well(depth=0.5, width=3.0)
    state = nls.gaussian_state(grid, width=2.0)
    b = 1.0
    traj = nls.evolve(state, ext, b, 1e-3, 1.0, n_outputs=10)
    e0 = nls.effective_energy(traj.states[0], ext, b)
    drift = max(abs(nls.effective_energy(s, ext, b) - e0) for s in traj.states)
    assert drift < 1e-8


def test_effective_energy_plane_wave(grid):
    state = nls.plane_wave(grid, 2)
    k = 2.0 * math.pi * 2 / grid.length
    b = 0.7
    assert nls.effective_energy(state, None, b) == pytest.approx(
        k**2 + b / (2.0 * grid.length), rel=1e-12)


def test_effective_energy_gaussian_kinetic(grid):
    # analytic kinetic integral of a normalized Gaussian exp(-x^2/(2 s^2)): 1/(2 s^2)
    sigma = 2.0
    state = nls.gaussian_state(grid, width=sigma)
    assert nls.effective_energy(state, None, 0.0) == pytest.approx(
        1.0 / (2.0 * sigma**2), rel=1e-8)


def test_strang_self_convergence_order(grid):
    state = nls.gaussian_state(grid, width=1.5, momentum=0.4)
    finals = {}
    for dt in (4e-3, 2e-3, 1e-3, 5e-4):
        finals[dt] = nls.evolve(state, None, 1.0, dt, 0.5, n_outputs=1).final.values
    e1 = np.linalg.norm(finals[4e-3] - finals[1e-3])
    e2 = np.linalg.norm(finals[2e-3] - finals[5e-4])
    order = math.log2(e1 / e2)
    assert order == pytest.approx(2.0, abs=0.1)


def test_envelope_values():
    assert nls.envelope(None, 0.0, 0.0, 5.0) == 1.0
    # the energies enter by magnitude
    assert nls.envelope(None, 1.0, -1.0, 0.0) == pytest.approx(math.sqrt(3.0))
    # the sweep CSVs depend on this summation order
    ext = potentials.external_by_name("driven_well")
    assert nls.envelope(ext, -0.3, 0.2, -2.0) == math.sqrt(
        1.0 + 0.3 + 0.2 + ext.time_derivative_sup * 2.0
        + (ext.transverse_gradient_sup + ext.mixed_derivative_sup))


def test_gronwall_envelope_overflows_to_inf():
    assert nls.gronwall_envelope(1.0, 0.5) == math.exp(1.5)
    # e^2 (1 + t) past ~709 overflows a float: the bound is vacuous, not an error
    assert nls.gronwall_envelope(30.0, 0.5) == math.inf
    assert nls.gronwall_envelope(1.2, 500.0) == math.inf
    assert nls.gronwall_envelope(1e200, 0.5) == math.inf


def test_envelope_constant_for_static_potential():
    ext = potentials.gaussian_well(depth=1.0)
    vals = [nls.envelope(ext, 0.3, 0.2, t) for t in (0.0, 1.0, 7.0)]
    assert max(vals) - min(vals) == 0.0


def test_envelope_grows_for_driven_potential():
    ext = potentials.external_by_name("driven_well")
    e1 = nls.envelope(ext, 0.0, 0.0, 1.0)
    e2 = nls.envelope(ext, 0.0, 0.0, 5.0)
    assert e2 > e1 >= 1.0
    # the sup norms of a field are magnitudes, whatever the signs of depth and omega
    assert nls.envelope(potentials.driven_well(depth=-1.0, omega=-1.0), 0.0, 0.0, 5.0) == e2


def test_norm_report_plane_wave(grid):
    state = nls.plane_wave(grid, 4)
    k = 2.0 * math.pi * 4 / grid.length
    rep = nls.norm_report(state)
    assert rep.l2 == pytest.approx(1.0, abs=1e-12)
    assert rep.h1**2 == pytest.approx(1.0 + k**2, rel=1e-12)
    assert rep.sup == pytest.approx(1.0 / math.sqrt(grid.length), rel=1e-12)


def test_h1_dominates_sup_along_evolution(grid):
    state = nls.gaussian_state(grid, width=1.0)
    traj = nls.evolve(state, None, 1.0, 1e-3, 0.5, n_outputs=10)
    for s in traj.states:
        rep = nls.norm_report(s)
        assert rep.sup <= rep.h1 + 1e-12


def test_h1_bounded_by_envelope_static(grid):
    # |Phi|_H1 <= e(t) with e built from the initial energies
    b = 1.0
    state = nls.gaussian_state(grid, width=2.0)
    e_phi0 = nls.effective_energy(state, None, b)
    env = nls.envelope(None, 0.0, e_phi0, 0.0)
    traj = nls.evolve(state, None, b, 1e-3, 1.0, n_outputs=10)
    for s in traj.states:
        assert nls.norm_report(s).h1 <= env + 1e-9


def test_under_resolved_state_rejected():
    grid = nls.Grid1D(16.0 * math.pi, 32)
    state = nls.gaussian_state(grid, width=0.3)
    with pytest.raises(ResolutionError):
        nls.evolve(state, None, 0.0, 1e-3, 0.1)


def test_defocusing_only():
    grid = nls.Grid1D(16.0 * math.pi, 128)
    with pytest.raises(DomainError):
        nls.evolve(nls.gaussian_state(grid, 2.0), None, -1.0, 1e-3, 0.1)


def test_time_dependent_potential_midpoint_order():
    grid = nls.Grid1D(16.0 * math.pi, 128)
    ext = potentials.external_by_name("driven_well", omega=3.0)
    state = nls.gaussian_state(grid, width=2.0)
    finals = {}
    for dt in (4e-3, 2e-3, 1e-3):
        finals[dt] = nls.evolve(state, ext, 0.5, dt, 0.4, n_outputs=1).final.values
    e1 = np.linalg.norm(finals[4e-3] - finals[2e-3])
    e2 = np.linalg.norm(finals[2e-3] - finals[1e-3])
    # successive-difference ratio for a second-order scheme: 4
    assert e1 / e2 == pytest.approx(4.0, abs=0.8)


@given(width=st.floats(min_value=1.0, max_value=3.0),
       momentum=st.floats(min_value=-0.5, max_value=0.5))
@settings(max_examples=20, deadline=None)
def test_norm_report_sobolev_chain(width, momentum):
    grid = nls.Grid1D(16.0 * math.pi, 128)
    state = nls.gaussian_state(grid, width=width, momentum=momentum)
    rep = nls.norm_report(state)
    assert rep.l2 == pytest.approx(1.0, abs=1e-9)
    assert rep.sup <= rep.h1 + 1e-12
    assert rep.h1 <= rep.h2 + 1e-12


def test_outputs_fall_on_whole_steps():
    # 10 steps: 3 or 20 output intervals are no whole number of steps each
    state = nls.gaussian_state(nls.Grid1D(16.0 * math.pi, 128), 2.0)
    for n_outputs in (3, 20, 0):
        with pytest.raises(DomainError):
            nls.evolve(state, None, 1.0, 1e-3, 0.01, n_outputs=n_outputs)
    traj = nls.evolve(state, None, 1.0, 1e-3, 0.01, n_outputs=5)
    assert traj.times == pytest.approx([0.002 * k for k in range(6)], abs=1e-12)


def test_field_profile_evaluated_once_per_run(grid):
    # V(t, (x, 0)) = f(t) g(x, 0): g once per run, whatever the step count
    calls = []
    ext = potentials.gaussian_well(depth=0.5, width=3.0)

    def profile(x, y1, y2):
        calls.append(1)
        return ext.profile(x, y1, y2)

    counted = dataclasses.replace(ext, profile=profile)
    state = nls.gaussian_state(grid, width=2.0)
    traj = nls.evolve(state, counted, 1.0, 1e-2, 0.2, n_outputs=4)
    ref = nls.evolve(state, ext, 1.0, 1e-2, 0.2, n_outputs=4)
    assert len(calls) == 1 and len(traj.states) == 5
    assert np.array_equal(traj.final.values, ref.final.values)


def _memo_inputs(grid):
    return dict(state=nls.gaussian_state(grid, width=2.0),
                external=potentials.gaussian_well(depth=0.5, width=3.0),
                b=1.0, dt=1e-2, t_final=0.2, n_outputs=4)


def test_a_repeat_call_returns_the_same_trajectory(grid):
    # equal inputs, the values compared by their bytes, get the memoized run
    kw = _memo_inputs(grid)
    first = nls.evolve(**kw)
    twin = nls.CondensateState(grid, kw["state"].values.copy(), 0.0)
    assert nls.evolve(**dict(kw, state=twin)) is first


def _one_bit_off(state):
    values = state.values.copy()
    values.view(np.uint64)[0] ^= 1
    return nls.CondensateState(state.grid, values, state.time)


@pytest.mark.parametrize("change", [
    lambda kw: {"b": math.nextafter(kw["b"], math.inf)},
    lambda kw: {"dt": 5e-3},
    lambda kw: {"t_final": 0.24},
    lambda kw: {"n_outputs": 2},
    lambda kw: {"external": potentials.gaussian_well(depth=0.5, width=3.0)},
    lambda kw: {"state": _one_bit_off(kw["state"])},
    lambda kw: {"state": dataclasses.replace(kw["state"], time=0.04)},
], ids=["b_one_ulp", "dt", "t_final", "n_outputs", "external", "values_one_bit", "time"])
def test_changing_any_one_input_recomputes(grid, change):
    kw = _memo_inputs(grid)
    first = nls.evolve(**kw)
    misses = nls._strang.cache_info().misses
    other = dict(kw, **change(kw))
    again = nls.evolve(**other)
    assert again is not first and nls._strang.cache_info().misses == misses + 1
    assert again.final.time == pytest.approx(other["t_final"])


def test_a_memoized_state_cannot_be_written(grid):
    # the memo hands one Trajectory to every equal call: a write must raise,
    # not corrupt the next caller's state
    traj = nls.evolve(**_memo_inputs(grid))
    with pytest.raises(ValueError, match="read-only"):
        traj.final.values[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        traj.final.values *= 2.0
    assert not any(s.values.flags.writeable for s in traj.states)
