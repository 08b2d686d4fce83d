"""Effective 1D cubic nonlinear Schrödinger solver on a periodic box.

Strang splitting: half-step of the pointwise phase from V(t,(x,0)) + b|Phi|^2,
full kinetic step by FFT, half-step of the phase again, with time-dependent
potentials sampled at the step midpoint.  The box stands in for the full
line; runs check that the density stays below 1e-8 at the seam.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InstabilityError, ResolutionError
from .potentials import ExternalPotential

SPECTRAL_TAIL_OK = 1e-8
SPECTRAL_TAIL_BLOWUP = 1e-3


@dataclass(frozen=True)
class Grid1D:
    length: float
    points: int

    def __post_init__(self):
        if self.length <= 0:
            raise DomainError(f"length must be positive, got {self.length!r}")
        if self.points < 8:
            raise DomainError(f"points must be >= 8, got {self.points!r}")

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.points) * self.length / self.points - self.length / 2.0

    @property
    def spacing(self) -> float:
        return self.length / self.points

    @property
    def wavenumbers(self) -> np.ndarray:
        return 2.0 * math.pi * np.fft.fftfreq(self.points, d=self.spacing)


@dataclass(frozen=True)
class CondensateState:
    grid: Grid1D
    values: np.ndarray
    time: float = 0.0

    @property
    def l2(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.spacing))

    def coefficients(self) -> np.ndarray:
        """DFT coefficients c_k with Phi(x_j) = sum_k c_k e^(i k x_j)."""
        return np.fft.fft(self.values) / self.grid.points

    def spectral_tail(self) -> float:
        c = np.abs(self.coefficients())
        m = self.grid.points
        band = max(1, m // 10)
        half = m // 2
        lo = half - band // 2
        tail = c[lo:lo + band]
        peak = c.max()
        return float(tail.max() / peak) if peak > 0 else 0.0


def normalized(grid: Grid1D, values: np.ndarray) -> CondensateState:
    values = np.asarray(values, dtype=complex)
    nrm = np.sqrt(np.sum(np.abs(values) ** 2) * grid.spacing)
    if nrm == 0:
        raise DomainError("cannot normalize the zero state")
    return CondensateState(grid, values / nrm)


def gaussian_state(grid: Grid1D, width: float = 2.0, momentum: float = 0.0) -> CondensateState:
    if not width > 0.0:
        raise DomainError(f"width must be > 0, got {width}")
    x = grid.x
    psi = np.exp(-(x**2) / (2.0 * width**2)) * np.exp(1j * momentum * x)
    return normalized(grid, psi)


def plane_wave(grid: Grid1D, mode: int = 0) -> CondensateState:
    if 2 * abs(mode) >= grid.points:  # the grid aliases it onto a mode below points/2
        raise DomainError(f"mode {mode} aliases on {grid.points} points: need |mode| < points/2")
    k = 2.0 * math.pi * mode / grid.length
    psi = np.exp(1j * k * grid.x) / math.sqrt(grid.length)
    return CondensateState(grid, psi)


@dataclass
class Trajectory:
    times: list[float] = field(default_factory=list)
    states: list = field(default_factory=list)    # CondensateState or ManyBodyState

    def record(self, state) -> None:
        self.times.append(state.time)
        self.states.append(state)

    @property
    def final(self):
        return self.states[-1]


def whole_steps(span: float, dt: float, t_final: float, message: str) -> int:
    """The positive whole number of dt steps in span, to 1e-9 max(1, t_final);
    else DomainError(message)."""
    steps = int(round(span / dt)) if dt > 0.0 else 0
    if steps < 1 or abs(steps * dt - span) > 1e-9 * max(1.0, t_final):
        raise DomainError(message)
    return steps


def _phase_step(values, v, b, dt_half):
    return values * np.exp(-1j * dt_half * (v + b * np.abs(values) ** 2))


def evolve(
    state: CondensateState,
    external: ExternalPotential | None,
    b: float,
    dt: float,
    t_final: float,
    n_outputs: int = 10,
) -> Trajectory:
    """Propagate to t_final recording n_outputs + 1 equally spaced states.

    One-slot memo: a call with the last call's grid, values (dtype, shape, bytes),
    time, field, b, dt, t_final and n_outputs returns its read-only Trajectory."""
    return _strang(state.grid, state.values.dtype, state.values.shape, state.values.tobytes(),
                   state.time, external, b, dt, t_final, n_outputs)


@functools.lru_cache(maxsize=1, typed=True)
def _strang(grid, dtype, shape, data, t0, external, b, dt, t_final, n_outputs) -> Trajectory:
    state = CondensateState(grid, np.frombuffer(data, dtype).reshape(shape), t0)
    if dt <= 0:
        raise DomainError(f"dt must be positive, got {dt!r}")
    if b < 0:
        raise DomainError(f"defocusing solver requires b >= 0, got {b!r}")
    if t_final <= state.time:
        raise DomainError("t_final must exceed the state time")
    tail = state.spectral_tail()
    if tail > SPECTRAL_TAIL_OK:
        raise ResolutionError(
            f"initial state is under-resolved (spectral tail {tail:.2e} > {SPECTRAL_TAIL_OK})"
        )
    kin = np.exp(-1j * dt * grid.wavenumbers**2)
    total_steps = whole_steps(t_final - state.time, dt, t_final,
                              "t_final - t0 must be an integer number of steps")
    if n_outputs < 1 or total_steps % n_outputs:
        raise DomainError("each output interval must be a whole number of dt steps")
    out_every = total_steps // n_outputs
    # V(t, (x, 0)) = f(t) g(x, 0): the profile once per run, f once per step
    g = None if external is None else np.asarray(external.profile(grid.x, 0.0, 0.0), dtype=float)

    traj = Trajectory()
    traj.record(state)
    values = state.values.copy()
    t = state.time
    for step in range(1, total_steps + 1):
        t_mid = t + 0.5 * dt
        v = 0.0 if g is None else external.strength(t_mid) * g
        values = _phase_step(values, v, b, 0.5 * dt)
        values = np.fft.ifft(np.fft.fft(values) * kin)
        values = _phase_step(values, v, b, 0.5 * dt)
        t += dt
        if not np.all(np.isfinite(values.view(float))):
            raise InstabilityError(f"non-finite amplitude at step {step} (t = {t:.6g})")
        if step % out_every == 0:
            snap = CondensateState(grid, values.copy(), t)
            snap.values.flags.writeable = False
            if snap.spectral_tail() > SPECTRAL_TAIL_BLOWUP:
                raise ResolutionError(
                    f"spectral tail exceeded {SPECTRAL_TAIL_BLOWUP} at t = {t:.6g}; "
                    f"refine the grid"
                )
            traj.record(snap)
    return traj


def effective_energy(state: CondensateState, external: ExternalPotential | None,
                     b: float, t: float | None = None) -> float:
    """<Phi, (-d^2/dx^2 + V(t,(x,0)) + b/2 |Phi|^2) Phi> with spectral kinetic part."""
    grid = state.grid
    t = state.time if t is None else t
    c = state.coefficients()
    kinetic = grid.length * float(np.sum(grid.wavenumbers**2 * np.abs(c) ** 2))
    dens = np.abs(state.values) ** 2
    # V(t, (x, 0)) = f(t) g(x, 0), as evolve reads it
    v = 0.0 if external is None else external.strength(t) * external.profile(grid.x, 0.0, 0.0)
    potential = float(np.sum((v + 0.5 * b * dens) * dens) * grid.spacing)
    return kinetic + potential


def envelope(external: ExternalPotential | None, e_psi0: float, e_phi0: float,
             t: float) -> float:
    """e(t) >= 1 with e^2 = 1 + |E(0)| + |E_eff(0)| + int_0^t ||dV/dt||_inf + mixed sup,
    the mixed sup taken over the transverse and the time/transverse derivatives of V."""
    dot, mixed = 0.0, 0.0
    if external is not None:
        dot = external.time_derivative_sup * abs(t)
        mixed = external.transverse_gradient_sup + external.mixed_derivative_sup
    return math.sqrt(1.0 + abs(e_psi0) + abs(e_phi0) + dot + mixed)


def gronwall_envelope(env: float, t: float) -> float:
    """C(t) = e(t) exp(e(t)^2 + int_0^t e(s)^2 ds) for a time-constant envelope;
    inf once the exponential overflows, where the bound says nothing."""
    try:
        return env * math.exp(env**2 * (1.0 + t))
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class NormReport:
    l2: float
    h1: float
    h2: float
    sup: float


def norm_report(state: CondensateState) -> NormReport:
    c = np.abs(state.coefficients()) ** 2
    k2 = state.grid.wavenumbers**2
    ll = state.grid.length
    l2 = math.sqrt(ll * float(np.sum(c)))
    h1 = math.sqrt(ll * float(np.sum((1.0 + k2) * c)))
    h2 = math.sqrt(ll * float(np.sum((1.0 + k2 + k2**2) * c)))
    return NormReport(l2, h1, h2, float(np.max(np.abs(state.values))))
