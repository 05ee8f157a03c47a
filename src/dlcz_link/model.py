"""Closed-form model of heralded single-excitation entanglement decay.

Every function here is a pure formula: spin-wave amplitude/efficiency decay,
the dephasing lifetime set by Lorentzian shot-to-shot field noise, the
Stokes/anti-Stokes detection-probability chain, fringe visibility and
concurrence. All functions accept scalars or numpy arrays for the time
argument and are reentrant (no shared state).

Units follow :mod:`dlcz_link.params`: seconds, Gauss, Hz/G.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import (
    DecayModel,
    EnsembleParams,
    ExponentialEfficiency,
    FromMotion,
    GaussianAmplitude,
    LinkConfig,
    ModePair,
    MotionBroadeningParams,
)

ArrayLike = float | np.ndarray


def _check_time(t: ArrayLike) -> None:
    if np.any(np.asarray(t) < 0.0):
        raise ValueError("storage time t must be >= 0")


def _inverse_or_inf(denominator: float) -> float:
    return math.inf if denominator == 0.0 else 1.0 / denominator


def motion_lifetimes(p: MotionBroadeningParams) -> tuple[float, float, float]:
    """Dephasing lifetimes (tau_1, tau_2, tau_d) from motion and gradient.

    tau_1 = 1/(delta_k * v_s) is set by thermal motion along the spin-wave
    wavevector, tau_2 = 1/(2 pi mu' B' l) by the gradient-induced
    inhomogeneous broadening over the cloud, and the combined Gaussian
    lifetime is tau_d = tau_1 tau_2 / sqrt(tau_1^2 + tau_2^2). A vanishing
    broadening channel yields an infinite lifetime, not an error.
    """
    tau_1 = _inverse_or_inf(p.delta_k * p.v_s)
    tau_2 = _inverse_or_inf(2.0 * math.pi * p.mu_prime * p.b_gradient * p.cloud_length)
    if math.isinf(tau_1) and math.isinf(tau_2):
        tau_d = math.inf
    elif math.isinf(tau_1):
        tau_d = tau_2
    elif math.isinf(tau_2):
        tau_d = tau_1
    else:
        tau_d = tau_1 * tau_2 / math.hypot(tau_1, tau_2)
    return tau_1, tau_2, tau_d


def amplitude_factor(decay: DecayModel, t: ArrayLike) -> ArrayLike:
    """Spin-wave amplitude factor D(t), in (0, 1], for any decay variant."""
    _check_time(t)
    t = np.asarray(t, dtype=float) if isinstance(t, np.ndarray) else float(t)
    if isinstance(decay, GaussianAmplitude):
        return np.exp(-(t**2) / (2.0 * decay.tau_d**2))
    if isinstance(decay, ExponentialEfficiency):
        return np.exp(-t / (2.0 * decay.tau_d))
    if isinstance(decay, FromMotion):
        tau_1, tau_2, _ = motion_lifetimes(decay.motion)
        out = np.exp(-(t**2) / (2.0 * tau_1**2)) * np.exp(-(t**2) / (2.0 * tau_2**2))
        return out
    raise TypeError(f"unknown decay model: {decay!r}")


def retrieval_efficiency(gamma_0: float, decay: DecayModel, t: ArrayLike) -> ArrayLike:
    """Retrieval efficiency gamma(t) = gamma_0 |D(t)|^2."""
    if not 0.0 <= gamma_0 <= 1.0:
        raise ValueError(f"gamma_0: expected a value in [0, 1], got {gamma_0}")
    return gamma_0 * amplitude_factor(decay, t) ** 2


def dephasing_lifetime(mu_prime: float, sigma: float) -> float:
    """Coherence lifetime tau_0 = 1/(2 pi mu' sigma) of the phase-difference channel.

    ``mu_prime`` is the sensitivity of the channel that accumulates the
    phase difference (the common mu' for a two-node link, |mu'_mfs -
    mu'_mfi| for a mixed pair in one ensemble) and ``sigma`` the Lorentzian
    width seen by that channel (sigma_delta for a link, sigma_b for a
    single-ensemble pair). Either factor vanishing gives an infinite
    lifetime exactly.
    """
    if mu_prime < 0.0 or sigma < 0.0:
        raise ValueError("mu_prime and sigma must be >= 0")
    return _inverse_or_inf(2.0 * math.pi * mu_prime * sigma)


def lorentzian_characteristic(mu_prime: float, sigma: float, t: ArrayLike) -> ArrayLike:
    """Fringe-damping factor exp(-2 pi mu' sigma t).

    This is the magnitude of the phase factor exp(i 2 pi mu' dB t) averaged
    over a Lorentzian dB of width sigma (the Cauchy characteristic
    function), equal to exp(-t/tau_0).
    """
    _check_time(t)
    if mu_prime < 0.0 or sigma < 0.0:
        raise ValueError("mu_prime and sigma must be >= 0")
    return np.exp(-2.0 * math.pi * mu_prime * sigma * np.asarray(t, dtype=float)) if isinstance(
        t, np.ndarray
    ) else math.exp(-2.0 * math.pi * mu_prime * sigma * t)


def cross_correlation_from_efficiency(
    gamma: ArrayLike, chi: float, xi_se: float, z_noise: float
) -> ArrayLike:
    """Stokes/anti-Stokes cross-correlation g = 1 + gamma/(chi gamma + chi(1-gamma) xi_se + Z).

    Takes the retrieval efficiency directly so that mode-specific curves
    (different gamma_0 or decay per channel) plug straight in.
    """
    gamma = np.asarray(gamma, dtype=float) if isinstance(gamma, np.ndarray) else float(gamma)
    denom = chi * gamma + chi * (1.0 - gamma) * xi_se + z_noise
    if np.any(np.asarray(denom) == 0.0):
        if np.all(np.asarray(gamma) == 0.0):
            return np.ones_like(gamma) if isinstance(gamma, np.ndarray) else 1.0
        raise ValueError(
            "ill-posed parameters: zero accidental rate (chi, xi_se, z_noise) with "
            "nonzero retrieval"
        )
    return 1.0 + gamma / denom


def cross_correlation(p: EnsembleParams, t: ArrayLike) -> ArrayLike:
    """Cross-correlation g_{S,aS}(t) for one ensemble."""
    _check_time(t)
    gamma = retrieval_efficiency(p.gamma_0, p.decay, t)
    return cross_correlation_from_efficiency(gamma, p.chi, p.xi_se, p.z_noise)


def visibility(
    g: ArrayLike, t: ArrayLike, tau_0: float, zeta: float = 1.0, xi_prime: float = 1.0
) -> ArrayLike:
    """Interference visibility V = zeta xi' (g-1)/(g+1) exp(-t/tau_0).

    Callers use xi_prime = 1 for the two-node link and for a matched
    (MFS-MFS) pair, and tau_0 = inf for a matched pair, which shares its
    stochastic phase and therefore does not dephase.
    """
    _check_time(t)
    if np.any(np.asarray(g) < 1.0):
        raise ValueError("cross-correlation g must be >= 1")
    damping = np.exp(-np.asarray(t, dtype=float) / tau_0) if tau_0 != math.inf else 1.0
    return zeta * xi_prime * (g - 1.0) / (g + 1.0) * damping


@dataclass(frozen=True)
class CoincidenceProbabilities:
    """Detection-probability chain behind one fringe point.

    ``p_s``/``p_as`` are per-ensemble singles, ``p_s1``/``p_as1`` the
    post-beam-splitter singles, ``p_c`` the conditional retrieval fringe and
    ``p_s1_as1`` the Stokes/anti-Stokes coincidence probability.
    """

    p_s: ArrayLike
    p_as: ArrayLike
    p_s1: ArrayLike
    p_as1: ArrayLike
    p_c: ArrayLike
    p_s1_as1: ArrayLike


def coincidence_probability(
    theta: ArrayLike, p: EnsembleParams, tau_0: float, t: ArrayLike
) -> CoincidenceProbabilities:
    """Coincidence probability P_{S1,aS1}(theta) with its intermediates.

    P_{S1,aS1}(theta) = chi gamma eta^2 (1 + e^{-t/tau_0} cos theta)/2
    + P_S1 * P_aS1, with P_S = chi eta and
    P_aS = chi gamma eta + chi (1-gamma) xi_se eta + Z eta. The linear-chi
    truncation is kept exactly as stated; higher orders are the Monte-Carlo
    engine's job.
    """
    _check_time(t)
    gamma = retrieval_efficiency(p.gamma_0, p.decay, t)
    eta = p.eta
    p_s = p.chi * eta
    p_as = p.chi * gamma * eta + p.chi * (1.0 - gamma) * p.xi_se * eta + p.z_noise * eta
    # the 1/2 beam-splitter split and the two-ensemble symmetry factor cancel
    p_s1 = p_s
    p_as1 = p_as
    damping = np.exp(-np.asarray(t, dtype=float) / tau_0) if tau_0 != math.inf else 1.0
    p_c = eta * gamma * (1.0 + damping * np.cos(theta)) / 2.0
    p_s1_as1 = p_s1 * p_c + p_s1 * p_as1
    return CoincidenceProbabilities(p_s=p_s, p_as=p_as, p_s1=p_s1, p_as1=p_as1, p_c=p_c, p_s1_as1=p_s1_as1)


def concurrence_from_probs(
    p00: float, p01: float, p10: float, p11: float, v: float
) -> float:
    """Concurrence of the heralded two-mode state from photon-counting probabilities.

    C = max(0, (V (p01 + p10) - 2 sqrt(p00 p11)) / P) with P the total: the
    standard two-mode single-photon X-state form, where the coherence term
    d = V (p01 + p10) / 2 enters as 2d and the two-photon term is penalized
    by 2 sqrt(p00 p11).
    """
    for name, value in (("p00", p00), ("p01", p01), ("p10", p10), ("p11", p11)):
        if value < 0.0:
            raise ValueError(f"{name}: expected >= 0, got {value}")
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"v: expected a visibility in [0, 1], got {v}")
    total = p00 + p01 + p10 + p11
    if total <= 0.0:
        raise ValueError("all-zero probabilities: concurrence undefined")
    return max(0.0, (v * (p01 + p10) - 2.0 * math.sqrt(p00 * p11)) / total)


def concurrence_margin(p_c: ArrayLike, v: ArrayLike, g: ArrayLike) -> ArrayLike:
    """Margin V - 2 sqrt((1 - p_c)/g) of the coherence over the two-photon term.

    The concurrence is p_c times this margin where it is positive; its first
    zero in t is the entanglement lifetime.
    """
    return v - 2.0 * np.sqrt((1.0 - p_c) / g)


def concurrence_param(p_c: ArrayLike, v: ArrayLike, g: ArrayLike) -> ArrayLike:
    """Parametric concurrence C = max(0, p_c (V - 2 sqrt((1 - p_c)/g))).

    ``p_c`` is the conditional retrieval-detection probability (gamma eta
    for one channel; the mode-averaged variant passes
    p_c = eta (gamma_a + gamma_b)/2 and g = (g_a + g_b)/2).
    """
    p_c = np.asarray(p_c, dtype=float) if isinstance(p_c, np.ndarray) else float(p_c)
    if np.any(np.asarray(p_c) < 0.0) or np.any(np.asarray(p_c) > 1.0):
        raise ValueError("p_c must be in [0, 1]")
    if np.any(np.asarray(g) < 1.0):
        raise ValueError("cross-correlation g must be >= 1")
    return np.maximum(0.0, p_c * concurrence_margin(p_c, v, g))


@dataclass(frozen=True)
class LinkPoint:
    """Closed-form link curves at one or more storage times."""

    time: ArrayLike
    gamma: ArrayLike
    g: ArrayLike
    tau_0: float
    visibility: ArrayLike
    concurrence: ArrayLike


def link_dephasing_lifetime(cfg: LinkConfig) -> float:
    """tau_0 of the inter-node coherence under the configured supplies."""
    mu = 0.5 * (cfg.mode_l.mu_prime + cfg.mode_r.mu_prime)
    return dephasing_lifetime(mu, cfg.noise.sigma_delta)


def link_curves(cfg: LinkConfig, t: ArrayLike) -> LinkPoint:
    """Everything the link's closed-form layer predicts at storage time t.

    Uses the left node's parameters for the single-ensemble quantities
    (gamma, g, p_c); the standard configuration is symmetric. The fringe
    contrast carries zeta, xi_prime and, when configured, the residual
    interferometer-phase jitter as exp(-jitter^2/2).
    """
    _check_time(t)
    node = cfg.node_l
    gamma = retrieval_efficiency(node.gamma_0, node.decay, t)
    g = cross_correlation_from_efficiency(gamma, node.chi, node.xi_se, node.z_noise)
    tau_0 = link_dephasing_lifetime(cfg)
    contrast = cfg.zeta * cfg.xi_prime * math.exp(-0.5 * cfg.residual_phase_jitter**2)
    vis = visibility(g, t, tau_0, zeta=contrast, xi_prime=1.0)
    p_c = gamma * node.eta
    conc = concurrence_param(p_c, vis, g)
    return LinkPoint(time=t, gamma=gamma, g=g, tau_0=tau_0, visibility=vis, concurrence=conc)


@dataclass(frozen=True)
class ModePairPoint:
    """Closed-form curves for two spin-wave modes in one ensemble."""

    time: ArrayLike
    gamma_mfi: ArrayLike
    gamma_mfs: ArrayLike
    g_mfi: ArrayLike
    g_mfs: ArrayLike
    tau_0: float
    v_mixed: ArrayLike  # MFI-MFS pairing, dephased by the shared-field noise
    v_matched: ArrayLike  # MFS-MFS pairing, immune to it
    c_mixed: ArrayLike
    c_matched: ArrayLike


def mode_pair_curves(pair: ModePair, t: ArrayLike) -> ModePairPoint:
    """Visibility and concurrence curves for the two pairings of stored modes.

    The mixed (MFI-MFS) pairing dephases with effective sensitivity
    |mu'_mfs - mu'_mfi| against the single ensemble's own field width
    sigma_b, and carries the empirical contrast factor xi_prime; the
    matched (MFS-MFS) pairing shares its stochastic phase and keeps only
    the overlap zeta.
    """
    _check_time(t)
    gamma_mfi = retrieval_efficiency(pair.mfi.gamma_0, pair.mfi.decay, t)
    gamma_mfs = retrieval_efficiency(pair.mfs.gamma_0, pair.mfs.decay, t)
    g_mfi = cross_correlation_from_efficiency(gamma_mfi, pair.mfi.chi, pair.mfi.xi_se, pair.mfi.z_noise)
    g_mfs = cross_correlation_from_efficiency(gamma_mfs, pair.mfs.chi, pair.mfs.xi_se, pair.mfs.z_noise)
    delta_mu = abs(pair.mode_mfs.mu_prime - pair.mode_mfi.mu_prime)
    tau_0 = dephasing_lifetime(delta_mu, pair.noise.sigma_b)

    g_bar = 0.5 * (g_mfi + g_mfs)
    v_mixed = visibility(g_bar, t, tau_0, zeta=pair.zeta, xi_prime=pair.xi_prime)
    v_matched = visibility(g_mfs, t, math.inf, zeta=pair.zeta, xi_prime=1.0)

    eta = pair.mfs.eta
    p_c_bar = eta * 0.5 * (gamma_mfi + gamma_mfs)
    c_mixed = concurrence_param(p_c_bar, v_mixed, g_bar)
    c_matched = concurrence_param(eta * gamma_mfs, v_matched, g_mfs)
    return ModePairPoint(
        time=t,
        gamma_mfi=gamma_mfi,
        gamma_mfs=gamma_mfs,
        g_mfi=g_mfi,
        g_mfs=g_mfs,
        tau_0=tau_0,
        v_mixed=v_mixed,
        v_matched=v_matched,
        c_mixed=c_mixed,
        c_matched=c_matched,
    )
