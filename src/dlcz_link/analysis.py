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
from .params import LinkConfig, NoiseField

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


def _rate_to_lifetime(rate: float, rate_err: float, t_span: float) -> tuple[float, float]:
    """Map a fitted decay rate to a lifetime; ~zero rates are the inf sentinel."""
    floor = 1e-9 / t_span
    if abs(rate) <= floor:
        return math.inf, math.inf
    if rate < 0.0:
        raise FitError(f"fitted a negative decay rate ({rate:.3g} 1/s): data grows with time")
    try:
        return 1.0 / rate, rate_err / rate**2
    except (OverflowError, ZeroDivisionError):  # rate**2 leaves the float range
        return 1.0 / rate, rate_err / rate / rate


def fit_decay(series: DecaySeries, law: str = "exponential") -> FitResult:
    """Fit A e^{-t/tau} or A e^{-t^2/tau^2}; returns parameters A and tau.

    A constant series yields the exact tau = inf sentinel.
    """
    if len(series) < 3:
        raise ValueError("need at least 3 points to fit a decay")
    if law not in ("exponential", "gaussian"):
        raise ValueError("law must be 'exponential' or 'gaussian'")
    t, y = series.times, series.values
    t_span = float(t[-1] - t[0])

    if np.ptp(y) == 0.0:
        return FitResult(
            parameters={"amplitude": float(y[0]), "tau": math.inf},
            std_errors={"amplitude": 0.0, "tau": math.inf},
            residual_norm=0.0,
        )

    if law == "exponential":
        fun = lambda tt, a, r: a * _exp(-r * tt)  # noqa: E731
    else:
        fun = lambda tt, a, r: a * _exp(-((r * tt) ** 2))  # noqa: E731
    a0 = float(np.max(np.abs(y)))
    starts = [(a0, r) for r in np.geomspace(0.1 / t_span, 100.0 / t_span, 7)]
    popt, pcov, resid = _multistart_fit(fun, t, y, starts)
    a_fit, rate = float(popt[0]), float(popt[1])
    errs = np.sqrt(np.clip(np.diag(pcov), 0.0, None))
    tau, tau_err = _rate_to_lifetime(rate, float(errs[1]), t_span)
    return FitResult(
        parameters={"amplitude": a_fit, "tau": tau},
        std_errors={"amplitude": float(errs[0]), "tau": tau_err},
        residual_norm=resid,
    )


def fit_cross_correlation(
    series: DecaySeries,
    gamma: np.ndarray | Callable[[np.ndarray], np.ndarray],
    chi: float,
    z_noise: float,
) -> FitResult:
    """One-parameter fit of the retrieval-noise branching ratio xi_se.

    ``gamma`` supplies the retrieval efficiency at each sample time (array
    aligned with the series, or a callable). The fitted value is clamped to
    [0, 1]; leaving the bounds sets the ``clamped`` flag instead of failing.
    """
    if len(series) < 2:
        raise ValueError("need at least 2 points to fit xi_se")
    gam = np.asarray(gamma(series.times) if callable(gamma) else gamma, dtype=float)
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
    vg: np.ndarray | Callable[[np.ndarray], np.ndarray],
    mu_prime: float,
) -> FitResult:
    """Fit V(t) = vg(t) xi' e^{-t/tau_0}; reports xi', tau_0 and sigma_b.

    ``vg`` is the noise-free visibility at the sample times. The implied
    field width is sigma_b = 1/(2 pi mu' tau_0) (zero for the tau_0 = inf
    sentinel), so ``mu_prime``, the sensitivity of the dephasing channel,
    must be > 0; a clearly negative fitted rate raises, since the model has
    no growing branch.
    """
    if not mu_prime > 0.0:
        raise ValueError(
            f"mu_prime must be > 0 to infer sigma_b from tau_0, got {mu_prime}: "
            "a field-insensitive channel does not dephase"
        )
    if len(series) < 3:
        raise ValueError("need at least 3 points to fit the dephasing")
    vg_vals = np.asarray(vg(series.times) if callable(vg) else vg, dtype=float)
    if vg_vals.shape != series.times.shape:
        raise ValueError("vg must provide one value per sample time")
    t_span = float(series.times[-1] - series.times[0])

    def fun(tt, xi_p, rate):
        return vg_vals * xi_p * _exp(-rate * tt)

    starts = [(1.0, r) for r in np.geomspace(0.1 / t_span, 100.0 / t_span, 7)]
    starts.append((1.0, 0.0))
    popt, pcov, resid = _multistart_fit(fun, series.times, series.values, starts)
    xi_p, rate = float(popt[0]), float(popt[1])
    errs = np.sqrt(np.clip(np.diag(pcov), 0.0, None))
    tau_0, tau_err = _rate_to_lifetime(rate, float(errs[1]), t_span)
    sigma_b = 0.0 if math.isinf(tau_0) else 1.0 / (2.0 * math.pi * mu_prime * tau_0)
    return FitResult(
        parameters={"xi_prime": xi_p, "tau_0": tau_0, "sigma_b": sigma_b},
        std_errors={"xi_prime": float(errs[0]), "tau_0": tau_err},
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


def _first_zero(inner: Callable[[float], float], xtol: float, t_max: float) -> float:
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
        if hi > t_max:
            raise FitError(f"no concurrence zero crossing below {t_max} s")
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


def entanglement_lifetime(cfg: LinkConfig, *, xtol: float = 1e-4, t_max: float = 1e4) -> float:
    """Smallest storage time with zero concurrence, to 0.1 ms by default.

    A root below 1 ms is found to within 1e-6 T, where [T/2, T] is the
    power-of-two bracket that holds it, whatever ``xtol`` is: pairs of
    modes in one ensemble, which cross within microseconds, need no finer
    ``xtol``.

    The root is the first zero of the margin V(t) - 2 sqrt((1 - p_c)/g(t))
    of :func:`dlcz_link.model.link_curves`, p_c = gamma(t) eta. gamma, g, V
    and tau_0 do not depend on eta, so the lifetime depends on eta only
    through p_c in that two-photon threshold: it grows with eta, and
    noticeably so wherever gamma(T_s) eta is not small.
    """
    return _first_zero(lambda t: float(model.link_curves(cfg, t).margin), xtol, t_max)


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
