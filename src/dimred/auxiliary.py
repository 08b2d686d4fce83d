"""Integration-by-parts toolkit: ball Green's data, smooth steps, the quasi-1D
interaction, its line Green's solution, and the effective-potential discrepancy.

For a radial source the Dirichlet problem Delta h = w on the ball of radius
eps with h = 0 on the boundary collapses to one-dimensional integrals by
the shell theorem:

    h'(r) = M(r)/r^2,   M(r) = int_0^r s^2 w(s) ds,
    h(r)  = u(r) - u(eps),   u(r) = -M(r)/r - int_r^R s w(s) ds,

which is what the image-charge double integral evaluates to.  h vanishes
identically outside the ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InsufficientDataError, RegimeError, ResolutionError
from .nls import CondensateState
from .potentials import ScaledInteraction, gauss_legendre
from .transverse import TransverseMode, offset_rule


@dataclass(frozen=True)
class RadialFunction:
    radii: np.ndarray
    values: np.ndarray
    eps: float

    def __post_init__(self):
        if self.radii[0] != 0.0:
            raise DomainError("radial grids start at 0")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("radial samples must be finite")


@dataclass(frozen=True)
class LineFunction:
    xs: np.ndarray
    values: np.ndarray

    def l1(self) -> float:
        return float(np.trapezoid(np.abs(self.values), self.xs))


def _require_regime(mu: float, eps: float) -> None:
    if mu >= eps:
        raise RegimeError(f"need mu < eps (moderate confinement), got mu={mu}, eps={eps}")


# ---------------------------------------------------------------------------
# h_eps: radial Dirichlet solution on the ball
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BallGreenData:
    """Quadrature-backed radial solution of Delta h = w_scaled, h(eps) = 0."""

    scaled: ScaledInteraction
    eps: float

    def _moment(self, r: np.ndarray, power: int) -> np.ndarray:
        """int_0^r s^power w(s) ds: a 48-node `gauss_legendre` rule on each smooth
        segment of the scaled profile below r (split at its kinks, as
        `shell_integral` does), constant from the range on."""
        edges = self.scaled.point.mu * self.scaled.profile.edges

        def segments(lo, hi):
            s, w = gauss_legendre(lo, hi, 48)
            return np.sum(w * s**power * self.scaled(s), axis=-1)

        below = np.concatenate([[0.0], np.cumsum(segments(edges[:-1], edges[1:]))])
        j = np.clip(np.searchsorted(edges, r, side="right") - 1, 0, len(edges) - 2)
        return below[j] + segments(edges[j], np.minimum(r, edges[-1]))

    def mass(self, r) -> np.ndarray:
        """M(r) = int_0^r s^2 w(s) ds, the exact total from the range on."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        m_tot = self.scaled.integral(3) / (4.0 * math.pi)
        return np.where(r >= self.scaled.range, m_tot, self._moment(r, 2))

    def gradient(self, r) -> np.ndarray:
        r = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.zeros_like(r)
        inside = (r > 0) & (r <= self.eps)
        out[inside] = self.mass(r[inside]) / r[inside] ** 2
        return out

    def value(self, r) -> np.ndarray:
        """h(r) = u(r) - u(eps) inside the ball, u(r) = -M(r)/r - int_r^R s w(s) ds
        (R the range), and 0 from eps on."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        tail = self._moment(np.array([self.scaled.range]), 1) - self._moment(r, 1)
        u = -np.divide(self.mass(r), r, out=np.zeros_like(r), where=r > 0) - tail
        u_eps = -self.scaled.integral(3) / (4.0 * math.pi) / self.eps
        return np.where(r < self.eps, u - u_eps, 0.0)

    def sup_gradient(self) -> float:
        rng = self.scaled.range
        probes = np.concatenate([np.linspace(0.0, rng, 2048), np.geomspace(rng, self.eps, 2048)])
        return float(np.max(self.gradient(probes)))

    def l2_gradient(self) -> float:
        """3-d L2 norm of grad h: a 48-node `gauss_legendre` rule on each smooth
        segment of [0, range], the exact tail from the range to eps."""
        rng = self.scaled.range
        edges = self.scaled.point.mu * self.scaled.profile.edges
        r, w = gauss_legendre(edges[:-1], edges[1:], 48)
        val1 = float(np.sum(w * r**2 * self.gradient(r) ** 2))
        m_tot = self.scaled.integral(3) / (4.0 * math.pi)
        # outside the support the gradient is m_tot/r^2, integrable analytically
        val2 = m_tot**2 * (1.0 / rng - 1.0 / self.eps)
        return math.sqrt(4.0 * math.pi * (val1 + val2))


def build_h_epsilon(scaled: ScaledInteraction, eps: float | None = None,
                    n_samples: int = 2048) -> RadialFunction:
    """Sampled h_eps on equispaced radii over [0, eps] (what the Poisson
    verifier needs)."""
    eps = scaled.point.epsilon if eps is None else eps
    _require_regime(scaled.range, eps)
    radii = np.linspace(0.0, eps, n_samples)
    return RadialFunction(radii, BallGreenData(scaled, eps).value(radii), eps)


def verify_poisson(h: RadialFunction, scaled: ScaledInteraction) -> float:
    """Largest residual of the second-order radial Laplacian of the samples
    against the source, relative to sup|w|; nodes straddling the kinks at the
    support edge (where w jumps) and the two endpoints are excluded."""
    r, v = h.radii, h.values
    dr = np.diff(r)
    if np.max(np.abs(dr - dr[0])) > 1e-9 * dr[0]:
        raise DomainError("verify_poisson needs a uniform radial grid")
    if scaled.range / dr[0] < 16:
        raise ResolutionError("need at least 16 samples across the interaction range")
    step = dr[0]
    lap = np.full_like(v, np.nan)
    lap[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / step**2 \
        + (v[2:] - v[:-2]) / step * (1.0 / r[1:-1])
    w = scaled(r)
    sup_w = float(np.max(np.abs(w))) or 1.0
    window = 3.0 * step
    keep = np.ones(len(r), dtype=bool)
    keep[[0, -1]] = False
    keep &= np.abs(r - scaled.range) > window
    keep &= np.abs(r - h.eps) > window
    return float(np.max(np.abs(lap[keep] - w[keep])) / sup_w)


# ---------------------------------------------------------------------------
# smooth radial step
# ---------------------------------------------------------------------------


def smooth_step_derivative(x, lo: float, hi: float) -> np.ndarray:
    """Derivative of the decreasing C^inf step that is 1 up to lo and 0 from hi
    on, e^a / (e^a + e^b) between them, a = -(hi - lo)/(hi - x), b = -(hi - lo)/(x - lo)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    mid = (x > lo) & (x < hi)
    xm = x[mid]
    span = hi - lo
    a = -span / (hi - xm)
    b = -span / (xm - lo)
    da = -span / (hi - xm) ** 2
    db = span / (xm - lo) ** 2
    ea, eb = np.exp(a), np.exp(b)
    out[mid] = (da * ea * eb - ea * eb * db) / (ea + eb) ** 2
    return out


def theta(mu: float, eps: float) -> float:
    """sup |grad Theta| of the radial cutoff Theta, 1 inside mu and a smooth
    decrease to 0 at eps (`smooth_step_derivative`), on 8192 probes of [mu, eps]."""
    _require_regime(mu, eps)
    probe = np.linspace(mu, eps, 8192)
    return float(np.max(np.abs(smooth_step_derivative(probe, mu, eps))))


# ---------------------------------------------------------------------------
# gradient-scaling regression (ball Green data along a sequence)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalingFit:
    slope: float
    log_constant: float
    r_squared: float


def _loglog_fit(x: np.ndarray, y: np.ndarray) -> ScalingFit:
    spread = (np.max(x) - np.min(x)) / max(abs(float(np.mean(x))), 1e-300)
    if len(x) < 2 or spread < 1e-9:
        raise InsufficientDataError(
            "regression needs at least two distinct predictor values "
            "(predictor spread is degenerate)")
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2)) or 1e-300
    return ScalingFit(float(slope), float(intercept), 1.0 - ss_res / ss_tot)


def gradient_scaling_fit(points, profile) -> ScalingFit:
    """Regress the measured L2 norm of grad h_eps against N^-1 mu^-1/2 eps^2
    along a scaling sequence (expected slope: 1)."""
    from .potentials import scale

    pts = list(points)
    if len(pts) < 4:
        raise InsufficientDataError(f"need >= 4 scaling points, got {len(pts)}")
    l2_vals, l2_pred = [], []
    for p in pts:
        sc = scale(profile, p)
        _require_regime(sc.range, p.epsilon)
        l2_vals.append(BallGreenData(sc, p.epsilon).l2_gradient())
        l2_pred.append(p.epsilon**2 / (p.n_particles * math.sqrt(p.mu)))
    return _loglog_fit(np.asarray(l2_pred), np.asarray(l2_vals))


# ---------------------------------------------------------------------------
# quasi one-dimensional interaction and its line Green's solution
# ---------------------------------------------------------------------------


def quasi1d(scaled: ScaledInteraction, tmode: TransverseMode, n_samples: int = 513) -> LineFunction:
    """w-bar(x) = intint |chi^eps(y1)|^2 |chi^eps(y2)|^2 w(x, y1-y2) dy1 dy2
    at n_samples points of [-1.5 r, 1.5 r], r the range.

    Reduced to int T(u) w(x, u) du over the transverse-offset correlation T,
    by a 64-node `offset_rule` at each x inside the range.
    """
    r = scaled.range
    _require_transverse_match(scaled, tmode)
    xs = np.linspace(-1.5 * r, 1.5 * r, n_samples)
    inside = np.abs(xs) < r
    x = xs[inside, None]
    u, uw = offset_rule(np.sqrt(r**2 - x[:, 0] ** 2), tmode.dimension, 64)
    wv = scaled(np.sqrt(x**2 + u**2))
    vals = np.zeros_like(xs)
    vals[inside] = np.sum(uw * wv * tmode.correlation(u, 1)[0, 0, 0, 0], axis=1)
    vals = 0.5 * (vals + vals[::-1])
    return LineFunction(xs, vals)


def _require_transverse_match(scaled: ScaledInteraction, tmode: TransverseMode) -> None:
    """The interaction lives in the trap's transverse dimension."""
    if scaled.d_perp != tmode.dimension:
        raise DomainError(f"interaction d_perp = {scaled.d_perp} must match the "
                          f"transverse dimension {tmode.dimension}")


@dataclass(frozen=True)
class LineGreenReport:
    residual: float
    wing_slope: float


def build_h_bar(wbar: LineFunction, beta1: float, n_particles: int) -> LineGreenReport:
    """Solve h'' = w-bar on [-a, a], a = N^-beta1, with zero boundary values:

        h(x) = [(x - a) int_-a^x (x'+a) w + (x + a) int_x^a (x'-a) w] / (2a),

    on the w-bar grid itself (no resampling of a possibly discontinuous
    profile; the weighted trapezoid is exact for piecewise-linear data).
    Reports the second difference of h against w-bar and the slope |h'|
    outside the support of w-bar."""
    half = float(n_particles) ** (-beta1)
    support = np.max(np.abs(wbar.xs[np.abs(wbar.values) > 0])) if np.any(wbar.values != 0) else 0.0
    if support >= half:
        raise DomainError(
            f"support of w-bar ({support:.3g}) must lie inside (-{half:.3g}, {half:.3g})"
        )
    src_lo = _cumtrapz(wbar.values * (wbar.xs + half), wbar.xs)
    src_hi = _cumtrapz(wbar.values * (wbar.xs - half), wbar.xs)
    h = ((wbar.xs - half) * src_lo + (wbar.xs + half) * (src_hi[-1] - src_hi)) / (2.0 * half)
    # residual of the second difference against w-bar, interior, off the kinks
    sstep = np.diff(wbar.xs)
    sup_w = float(np.max(np.abs(wbar.values))) or 1.0
    if np.max(np.abs(sstep - sstep[0])) < 1e-9 * sstep[0]:
        step0 = sstep[0]
        lap = (h[2:] - 2.0 * h[1:-1] + h[:-2]) / step0**2
        keep = np.ones(len(wbar.xs) - 2, dtype=bool)
        if support > 0:
            keep &= np.abs(np.abs(wbar.xs[1:-1]) - support) > 3.0 * step0
        residual = float(np.max(np.abs(lap[keep] - wbar.values[1:-1][keep])) / sup_w)
    else:
        residual = math.nan
    # outside the support h' is constant: int (x'+a) w / 2a right, int (x'-a) w / 2a left
    wing = max(abs(src_lo[-1]), abs(src_hi[-1])) / (2.0 * half)
    return LineGreenReport(residual, float(wing))


def _cumtrapz(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))
    return out


# ---------------------------------------------------------------------------
# effective-potential discrepancy Gamma(x1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscrepancyResult:
    gamma: LineFunction
    l2_norm: float


def discrepancy_gamma(scaled: ScaledInteraction, condensate: CondensateState,
                      tmode: TransverseMode) -> DiscrepancyResult:
    """Gamma(x1) = N int |chi^eps|^2 [ (|phi^eps|^2 * w)(z) - |phi^eps(z)|^2 |w|_L1 ] dy.

    Separability reduces this to an integral over the interaction support:

        Gamma(x1) = N intint w(s, u) [ |Phi(x1-s)|^2 T(u) - |Phi(x1)|^2 T(0) ] ds du,

    with T the transverse-density autocorrelation, by 24-node `gauss_legendre`
    rules in s on [-range, range] and in u over the offsets of each s.
    Longitudinal shifts are evaluated spectrally (exact for the band-limited
    grid state), all 24 by one inverse FFT over the (24, points) array of
    shifted spectra, and the difference is taken at each node before the
    weighted sum over nodes, so it survives in floating point.
    """
    r = scaled.range
    grid = condensate.grid
    _require_transverse_match(scaled, tmode)
    t0 = float(tmode.correlation(0.0, 1)[0, 0, 0, 0])
    s_nodes, s_weights = gauss_legendre(-r, r, 24)
    # transverse integrals of w(s, u) against T(u) and T(0), one per s node
    u, uw = offset_rule(np.sqrt(np.maximum(r**2 - s_nodes**2, 0.0)), tmode.dimension, 24)
    wv = uw * scaled(np.sqrt(s_nodes[:, None] ** 2 + u**2))
    wint_t = np.sum(wv * tmode.correlation(u, 1)[0, 0, 0, 0], axis=1)
    wint_0 = np.sum(wv, axis=1) * t0
    # |Phi(x - s)|^2 at every s node, one row each, from one batched transform
    shifts = np.exp(-1j * s_nodes[:, None] * grid.wavenumbers)
    dens_s = np.abs(np.fft.ifft(np.fft.fft(condensate.values) * shifts, axis=1)) ** 2
    dens0 = np.abs(condensate.values) ** 2
    terms = s_weights[:, None] * (dens_s * wint_t[:, None] - dens0 * wint_0[:, None])
    gamma_vals = scaled.point.n_particles * np.sum(terms, axis=0)
    gl2 = math.sqrt(float(np.sum(gamma_vals**2) * grid.spacing))
    return DiscrepancyResult(LineFunction(grid.x, gamma_vals), gl2)
