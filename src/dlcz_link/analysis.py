"""Curve fitting, entanglement-lifetime root finding and the lifetime table.

Fits are damped least squares (scipy's Levenberg-Marquardt) restarted from
a coarse grid of initial guesses; decay rates are fitted as rates (1/tau)
so that flat data lands on the exact infinite-lifetime sentinel instead of
a large float. scipy is imported only by the fits, so importing this
module, and finding lifetime roots by Brent's method, do not load it.

One lifetime root, :func:`entanglement_lifetime`, serves every two-arm
:class:`~dlcz_link.params.LinkConfig`: a two-node link or a pair of modes
in one ensemble. It finds the first zero of the concurrence margin of
:func:`dlcz_link.model.link_curves`, whose tau_0 is
1/(2 pi (mu'_a + mu'_b) sigma_b) for independent supplies and
1/(2 pi |mu'_a - mu'_b| sigma_b) for a shared one.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, replace

import numpy as np

from . import model
from .params import DECAY_LAWS, LinkConfig, NoiseField

__all__ = [
    "DecaySeries",
    "FitResult",
    "FitError",
    "fit_decay",
    "fit_cross_correlation",
    "fit_visibility_dephasing",
    "entanglement_lifetime",
    "link_efficiency",
    "Table1Row",
    "make_table1",
]


class FitError(RuntimeError):
    """A fit or a lifetime root failed to converge, or a fit produced an unphysical parameter."""


def _exp(x):
    # keeps trial steps with absurd rates finite instead of overflowing
    return np.exp(np.clip(x, -700.0, 700.0))


@dataclass(frozen=True)
class DecaySeries:
    """Sampled decay curve: strictly increasing times, finite values."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.ndim != 1 or times.shape != values.shape:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("times must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")

    def __len__(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class FitResult:
    """Named best-fit parameters with their standard errors."""

    parameters: dict[str, float]
    std_errors: dict[str, float]
    residual_norm: float
    flags: tuple[str, ...] = ()


def _multistart_fit(
    fun: Callable,
    times: np.ndarray,
    values: np.ndarray,
    starts: Iterable[Sequence[float]],
) -> tuple[np.ndarray, np.ndarray, float]:
    """Levenberg-Marquardt from several starting points; best residual wins."""
    # imported here: scipy.optimize costs ~0.4 s to load, paid only by fits
    from scipy.optimize import OptimizeWarning, curve_fit

    best = None
    for p0 in starts:
        try:
            with warnings.catch_warnings():
                # exact data makes the covariance singular; expected here
                warnings.simplefilter("ignore", OptimizeWarning)
                popt, pcov = curve_fit(fun, times, values, p0=p0, maxfev=20000)
        except (RuntimeError, ValueError):
            continue
        resid = float(np.linalg.norm(fun(times, *popt) - values))
        if best is None or resid < best[2]:
            best = (popt, pcov, resid)
    if best is None:
        raise FitError("fit did not converge from any starting point")
    return best


def _fit_rate(series: DecaySeries, shape: float | np.ndarray, power: int, a0: float, extra_starts=()) -> tuple:
    """Fit shape a exp(-(r t)^power) by its rate r; returns a, its error, tau = 1/r, its error and the residual.

    ``shape`` is 1.0 or one factor per sample time. The starts are ``a0``
    with seven rates from 0.1 to 100 per time span, then ``extra_starts``.
    A rate within 1e-9 of zero per time span, or negative but within 3
    standard errors of zero, gives the tau = inf sentinel with an infinite
    error; a rate further below zero raises, since the data then grows.
    """
    t_span = float(series.times[-1] - series.times[0])
    fun = lambda tt, a, r: shape * a * _exp(-((r * tt) ** power))  # noqa: E731
    starts = [(a0, r) for r in np.geomspace(0.1 / t_span, 100.0 / t_span, 7)] + list(extra_starts)
    popt, pcov, resid = _multistart_fit(fun, series.times, series.values, starts)
    a, rate = float(popt[0]), float(popt[1])
    a_err, rate_err = (float(e) for e in np.sqrt(np.clip(np.diag(pcov), 0.0, None)))
    # 3 SE, fixed before any data was fitted: data too flat to resolve a decay must not fail on its noise's sign
    if abs(rate) <= 1e-9 / t_span or -3.0 * rate_err <= rate < 0.0:
        return a, a_err, math.inf, math.inf, resid
    if rate < 0.0:
        raise FitError(f"fitted a negative decay rate ({rate:.3g} 1/s): data grows with time")
    try:
        tau_err = rate_err / rate**2
    except (OverflowError, ZeroDivisionError):  # rate**2 leaves the float range
        tau_err = rate_err / rate / rate
    return a, a_err, 1.0 / rate, tau_err, resid


def fit_decay(series: DecaySeries, law: str = "exponential") -> FitResult:
    """Fit A exp(-(t/tau)^p); returns parameters A and tau.

    p is the power of the decay law named ``law``, a key of
    :data:`~dlcz_link.params.DECAY_LAWS`. A constant series yields the
    exact tau = inf sentinel.
    """
    if len(series) < 3:
        raise ValueError("need at least 3 points to fit a decay")
    if law not in DECAY_LAWS:
        raise ValueError(f"law must be one of {tuple(DECAY_LAWS)}, got {law!r}")
    y = series.values

    if np.ptp(y) == 0.0:
        return FitResult(
            parameters={"amplitude": float(y[0]), "tau": math.inf},
            std_errors={"amplitude": 0.0, "tau": math.inf},
            residual_norm=0.0,
        )

    a, a_err, tau, tau_err, resid = _fit_rate(series, 1.0, DECAY_LAWS[law].power, float(np.max(np.abs(y))))
    return FitResult(
        parameters={"amplitude": a, "tau": tau},
        std_errors={"amplitude": a_err, "tau": tau_err},
        residual_norm=resid,
    )


def fit_cross_correlation(
    series: DecaySeries,
    gamma: np.ndarray,
    chi: float,
    z_noise: float,
) -> FitResult:
    """One-parameter fit of the retrieval-noise branching ratio xi_se.

    ``gamma`` is the retrieval efficiency at each sample time, an array
    aligned with the series. The fitted value is clamped to [0, 1];
    leaving the bounds sets the ``clamped`` flag instead of failing.
    """
    if len(series) < 2:
        raise ValueError("need at least 2 points to fit xi_se")
    gam = np.asarray(gamma, dtype=float)
    if gam.shape != series.times.shape:
        raise ValueError("gamma must provide one efficiency per sample time")

    def fun(_t, xi):
        return model.cross_correlation_from_efficiency(gam, chi, xi, z_noise)

    starts = [(x,) for x in (0.05, 0.2, 0.5, 0.8)]
    popt, pcov, resid = _multistart_fit(fun, series.times, series.values, starts)
    xi = float(popt[0])
    err = float(np.sqrt(max(pcov[0, 0], 0.0)))
    flags: tuple[str, ...] = ()
    if not 0.0 <= xi <= 1.0:
        xi = min(max(xi, 0.0), 1.0)
        flags = ("clamped",)
    return FitResult(
        parameters={"xi_se": xi}, std_errors={"xi_se": err}, residual_norm=resid, flags=flags
    )


def fit_visibility_dephasing(
    series: DecaySeries,
    vg: np.ndarray,
    mu_prime: float,
) -> FitResult:
    """Fit V(t) = vg(t) xi' e^{-t/tau_0}; reports xi', tau_0 and sigma_b.

    ``vg`` is the noise-free visibility at the sample times. The implied
    field width is sigma_b = 1/(2 pi mu' tau_0) (zero for the tau_0 = inf
    sentinel), so ``mu_prime``, the sensitivity of the dephasing channel,
    must be > 0; a fitted rate more than 3 standard errors below zero
    raises, since the model has no growing branch.
    """
    if not mu_prime > 0.0:
        raise ValueError(
            f"mu_prime must be > 0 to infer sigma_b from tau_0, got {mu_prime}: "
            "a field-insensitive channel does not dephase"
        )
    if len(series) < 3:
        raise ValueError("need at least 3 points to fit the dephasing")
    vg_vals = np.asarray(vg, dtype=float)
    if vg_vals.shape != series.times.shape:
        raise ValueError("vg must provide one value per sample time")
    xi_p, xi_err, tau_0, tau_err, resid = _fit_rate(series, vg_vals, 1, 1.0, [(1.0, 0.0)])
    sigma_b = 0.0 if math.isinf(tau_0) else 1.0 / (2.0 * math.pi * mu_prime * tau_0)
    return FitResult(
        parameters={"xi_prime": xi_p, "tau_0": tau_0, "sigma_b": sigma_b},
        std_errors={"xi_prime": xi_err, "tau_0": tau_err},
        residual_norm=resid,
    )


def _brent(
    f: Callable[[float], float],
    a: float,
    b: float,
    xtol: float,
    rtol: float = 4.0 * math.ulp(1.0),
    maxiter: int = 100,
) -> float:
    """Root of ``f`` in [a, b] by Brent's method, stopping at a bracket of xtol + rtol |x|.

    R. P. Brent, *Algorithms for Minimization without Derivatives* (1973),
    ch. 4, transcribed step for step from scipy's ``brentq.c`` so that the
    roots equal ``scipy.optimize.brentq``'s bit for bit. A NaN value of
    ``f`` raises ValueError; running out of iterations raises FitError.
    """

    def fx(x: float) -> float:
        y = float(f(x))
        if math.isnan(y):
            raise ValueError(f"the function value at x={x:.6g} is NaN; the root search cannot continue")
        return y

    xpre, xcur = a, b
    fpre, fcur = fx(xpre), fx(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # xcur is the better end
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C gets an infinite or NaN step here, which bisects
                stry = math.inf
            bound = 3.0 * abs(sbis) - delta
            if 2.0 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = fx(xcur)
    raise FitError(f"root search did not converge in {maxiter} iterations (last x = {xcur!r})")


#: s; the lifetime root gives up when the concurrence is still positive beyond it
_LIFETIME_LIMIT = 1e4


def _first_zero(inner: Callable[[float], float], xtol: float) -> float:
    """Smallest positive root of a decreasing sign-changing function.

    Doubles the bracket from 1 ms until it holds the root, or halves it
    onto a root below 1 ms, whose tolerance is then at most 1e-6 of the
    bracket so that an absolute ``xtol`` cannot swamp it. Runs Brent's
    method (:func:`_brent`) on that bracket and verifies the function stays
    non-positive beyond the root up to the end of the doubled bracket.
    """
    f0 = inner(0.0)
    if f0 <= 0.0:
        raise ValueError("link never entangled under these parameters (C(0) = 0)")
    hi = 1e-3
    while inner(hi) > 0.0:
        hi *= 2.0
        if hi > _LIFETIME_LIMIT:
            raise FitError(f"no concurrence zero crossing below {_LIFETIME_LIMIT} s")
    top = hi
    if top == 1e-3:  # never doubled: the root is at most 1 ms
        while inner(hi / 2.0) <= 0.0:
            hi /= 2.0
        xtol = min(xtol, 1e-6 * hi)
    root = _brent(inner, hi / 2.0, hi, xtol=xtol)
    for t in np.linspace(root + xtol, top, 8):
        if inner(float(t)) > 0.0:
            raise FitError("concurrence is not monotone beyond its first zero crossing")
    return root


def entanglement_lifetime(cfg: LinkConfig, *, xtol: float = 1e-4) -> float:
    """Smallest storage time with zero concurrence, to 0.1 ms by default.

    A root below 1 ms is found to within 1e-6 T, where [T/2, T] is the
    power-of-two bracket that holds it, whatever ``xtol`` is: pairs of
    modes in one ensemble, which cross within microseconds, need no finer
    ``xtol``. A link still entangled at 1e4 s raises FitError.

    The root is the first zero of the margin V(t) - 2 sqrt((1 - p_c)/g(t))
    of :func:`dlcz_link.model.link_curves`, p_c = gamma(t) eta. gamma, g, V
    and tau_0 do not depend on eta, so the lifetime depends on eta only
    through p_c in that two-photon threshold: it grows with eta, and
    noticeably so wherever gamma(T_s) eta is not small.
    """
    return _first_zero(lambda t: float(model.link_curves(cfg, t).margin), xtol)


def link_efficiency(t_s: float, t_g: float) -> float:
    """Quantum link efficiency: storage lifetime over generation time."""
    if t_g <= 0.0:
        raise ValueError("t_g must be > 0")
    if t_s < 0.0:
        raise ValueError("t_s must be >= 0")
    return t_s / t_g


@dataclass(frozen=True)
class Table1Row:
    sigma_b: float  # G
    sigma_delta: float  # G
    lifetime: float  # s
    eta_link: float


def make_table1(sigma_b_list: Sequence[float], cfg: LinkConfig, t_g: float) -> list[Table1Row]:
    """Entanglement lifetime and link efficiency per field-noise width.

    Each row re-evaluates the link with the given per-node width under the
    configured supply topology; sigma_b = 0 is the shared-supply limit
    (sigma_delta = 0) either way. The lifetimes are evaluated at the
    configured detection efficiency ``cfg.node_l.eta`` (0.05 in the default
    configuration); see ``entanglement_lifetime`` for how eta enters.
    """
    rows = []
    for sigma_b in sigma_b_list:
        noise = NoiseField(sigma_b=sigma_b, topology=cfg.noise.topology)
        t_s = entanglement_lifetime(replace(cfg, noise=noise))
        rows.append(
            Table1Row(
                sigma_b=sigma_b,
                sigma_delta=noise.sigma_delta,
                lifetime=t_s,
                eta_link=link_efficiency(t_s, t_g),
            )
        )
    return rows
