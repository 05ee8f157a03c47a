"""Closed-form model of heralded single-excitation entanglement decay.

Every function here is a pure formula: spin-wave amplitude/efficiency decay,
the dephasing lifetime set by Lorentzian shot-to-shot field noise, the
Stokes/anti-Stokes cross-correlation, fringe visibility and concurrence.
All functions accept scalars or numpy arrays for the time argument and are
reentrant (no shared state).

:func:`link_curves` is the one closed form of a two-arm
:class:`~dlcz_link.params.LinkConfig`, whose arms are the nodes of a
two-node link or two modes of one ensemble. It averages gamma and g over
the arms, sets p_c = gamma eta, and takes tau_0 from the phase
2 pi t (mu'_a dB_a - mu'_b dB_b): tau_0 = 1/(2 pi (mu'_a + mu'_b) sigma_b)
for independent supplies and 1/(2 pi |mu'_a - mu'_b| sigma_b) for a shared
one. It alone computes p_c: the lifetime root reads its concurrence margin.

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
    GaussianAmplitude,
    LinkConfig,
    MotionBroadeningParams,
    Topology,
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
    """Spin-wave amplitude factor D(t), in (0, 1], for either decay law."""
    _check_time(t)
    t = np.asarray(t, dtype=float) if isinstance(t, np.ndarray) else float(t)
    if isinstance(decay, GaussianAmplitude):
        return np.exp(-(t**2) / (2.0 * decay.tau_d**2))
    if isinstance(decay, ExponentialEfficiency):
        return np.exp(-t / (2.0 * decay.tau_d))
    raise TypeError(f"unknown decay model: {decay!r}")


def retrieval_efficiency(gamma_0: float, decay: DecayModel, t: ArrayLike) -> ArrayLike:
    """Retrieval efficiency gamma(t) = gamma_0 |D(t)|^2."""
    if not 0.0 <= gamma_0 <= 1.0:
        raise ValueError(f"gamma_0: expected a value in [0, 1], got {gamma_0}")
    return gamma_0 * amplitude_factor(decay, t) ** 2


def dephasing_lifetime(mu_prime: float, sigma: float) -> float:
    """Coherence lifetime tau_0 = 1/(2 pi mu' sigma) of the phase-difference channel.

    ``mu_prime`` is the sensitivity of the channel that accumulates the
    phase difference (mu'_a + mu'_b for arms on independent supplies,
    |mu'_a - mu'_b| for arms on one shared field) and ``sigma`` the
    Lorentzian width sigma_b of one field sample. Either factor vanishing
    gives an infinite lifetime exactly.
    """
    if mu_prime < 0.0 or sigma < 0.0:
        raise ValueError("mu_prime and sigma must be >= 0")
    return _inverse_or_inf(2.0 * math.pi * mu_prime * sigma)


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


def visibility(g: ArrayLike, t: ArrayLike, tau_0: float, zeta: float = 1.0) -> ArrayLike:
    """Interference visibility V = zeta (g-1)/(g+1) exp(-t/tau_0).

    ``zeta`` is the whole contrast multiplier (mode overlap times any extra
    contrast loss). tau_0 = inf gives the undamped visibility, as for a
    matched pair of modes, which shares its stochastic phase and therefore
    does not dephase.
    """
    _check_time(t)
    if np.any(np.asarray(g) < 1.0):
        raise ValueError("cross-correlation g must be >= 1")
    damping = np.exp(-np.asarray(t, dtype=float) / tau_0) if tau_0 != math.inf else 1.0
    return zeta * (g - 1.0) / (g + 1.0) * damping


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

    ``p_c`` is the conditional retrieval-detection probability gamma eta,
    with gamma and g averaged over the two arms (see :func:`link_curves`).
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

    gamma: ArrayLike
    g: ArrayLike
    tau_0: float
    visibility: ArrayLike
    margin: ArrayLike  # concurrence_margin at p_c = gamma eta; its first zero is the lifetime
    concurrence: ArrayLike


def link_curves(cfg: LinkConfig, t: ArrayLike) -> LinkPoint:
    """Everything the two-arm closed-form layer predicts at storage time t.

    gamma and g are the arm averages (gamma_a + gamma_b)/2 and
    (g_a + g_b)/2, and p_c = gamma eta with the detection efficiency of
    arm a (the engine's shared detectors need it equal in both arms).
    tau_0 is set by the phase 2 pi t (mu'_a dB_a - mu'_b dB_b): width
    (mu'_a + mu'_b) sigma_b for independent field samples,
    |mu'_a - mu'_b| sigma_b for one shared sample. The fringe contrast
    carries zeta, xi_prime and, when configured, the residual
    interferometer-phase jitter as exp(-jitter^2/2).
    """
    _check_time(t)
    node_a, node_b = cfg.node_l, cfg.node_r
    gamma_a = retrieval_efficiency(node_a.gamma_0, node_a.decay, t)
    gamma_b = retrieval_efficiency(node_b.gamma_0, node_b.decay, t)
    g_a = cross_correlation_from_efficiency(gamma_a, node_a.chi, node_a.xi_se, node_a.z_noise)
    g_b = cross_correlation_from_efficiency(gamma_b, node_b.chi, node_b.xi_se, node_b.z_noise)
    gamma = 0.5 * (gamma_a + gamma_b)
    g = 0.5 * (g_a + g_b)
    mu_a, mu_b = cfg.mode_l.mu_prime, cfg.mode_r.mu_prime
    shared = cfg.noise.topology is Topology.SHARED
    tau_0 = dephasing_lifetime(abs(mu_a - mu_b) if shared else mu_a + mu_b, cfg.noise.sigma_b)
    jitter = cfg.residual_phase_jitter
    # exp(-jitter^2/2) is 0.0 in floats from jitter ~ 39 on; jitter**2 overflows near 1e154
    contrast = cfg.zeta * cfg.xi_prime * (math.exp(-0.5 * jitter**2) if jitter < 100.0 else 0.0)
    vis = visibility(g, t, tau_0, zeta=contrast)
    p_c = gamma * node_a.eta
    margin = concurrence_margin(p_c, vis, g)
    conc = concurrence_param(p_c, vis, g)
    return LinkPoint(gamma=gamma, g=g, tau_0=tau_0, visibility=vis, margin=margin, concurrence=conc)
