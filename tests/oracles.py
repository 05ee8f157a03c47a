"""Independent numerical oracles and closed forms used only by the tests.

The quadrature oracles deliberately avoid the package's own formulas:
expectations over the Lorentzian field distribution are evaluated by
adaptive Fourier-weight quadrature (QUADPACK QAWF) of the defining
integrals. The closed forms below them (the Cauchy characteristic and the
linear-chi coincidence chain) are what the unit tests and criteria 3 and 4
compare against.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from dlcz_link import EnsembleParams
from dlcz_link.model import retrieval_efficiency


def lorentzian_density(sigma: float):
    return lambda b: (sigma / math.pi) / (b * b + sigma * sigma)


def _fourier_components(sigma: float, c: float) -> tuple[float, float]:
    """(integral P(b) cos(cb) db, integral P(b) sin(cb) db) over the full line."""
    half_cos, _ = quad(lorentzian_density(sigma), 0, np.inf, weight="cos", wvar=c, epsabs=1e-11, limlst=200)
    half_sin_pos, _ = quad(lorentzian_density(sigma), 0, np.inf, weight="sin", wvar=c, epsabs=1e-11, limlst=200)
    # evenness of the density: the cos half doubles, the sin halves cancel
    return 2.0 * half_cos, half_sin_pos - half_sin_pos


def phase_average_quadrature(mu_prime: float, sigma: float, t: float) -> float:
    """<cos(2 pi mu' dB t)> over a single Lorentzian field of width sigma."""
    c = 2.0 * math.pi * mu_prime * t
    if c == 0.0:
        full, _ = quad(lorentzian_density(sigma), -np.inf, np.inf, epsabs=1e-12)
        return full
    cos_part, _ = _fourier_components(sigma, c)
    return cos_part


def difference_phase_average_quadrature(mu_prime: float, sigma_b: float, t: float) -> float:
    """<cos(2 pi mu' (dB_l - dB_r) t)> over two independent node fields.

    The double integral is evaluated by iterated adaptive quadrature: the
    angle-addition identity splits the inner integral over dB_r into
    Fourier cos/sin components, and the outer integral over dB_l reduces to
    the same two components, giving Ic^2 + Is^2.
    """
    c = 2.0 * math.pi * mu_prime * t
    if c == 0.0:
        full, _ = quad(lorentzian_density(sigma_b), -np.inf, np.inf, epsabs=1e-12)
        return full * full
    cos_part, sin_part = _fourier_components(sigma_b, c)
    return cos_part * cos_part + sin_part * sin_part


def lorentzian_characteristic(mu_prime: float, sigma: float, t: float) -> float:
    """Fringe-damping factor exp(-2 pi mu' sigma t).

    This is the magnitude of the phase factor exp(i 2 pi mu' dB t) averaged
    over a Lorentzian dB of width sigma (the Cauchy characteristic
    function), equal to exp(-t/tau_0).
    """
    return math.exp(-2.0 * math.pi * mu_prime * sigma * t)


@dataclass(frozen=True)
class CoincidenceProbabilities:
    """Detection-probability chain behind one fringe point.

    ``p_s``/``p_as`` are per-ensemble singles, ``p_s1``/``p_as1`` the
    post-beam-splitter singles, ``p_c`` the conditional retrieval fringe and
    ``p_s1_as1`` the Stokes/anti-Stokes coincidence probability.
    """

    p_s: float
    p_as: float
    p_s1: float
    p_as1: float
    p_c: float
    p_s1_as1: float


def coincidence_probability(theta: float, p: EnsembleParams, tau_0: float, t: float) -> CoincidenceProbabilities:
    """Coincidence probability P_{S1,aS1}(theta) with its intermediates.

    P_{S1,aS1}(theta) = chi gamma eta^2 (1 + e^{-t/tau_0} cos theta)/2
    + P_S1 * P_aS1, with P_S = chi eta and
    P_aS = chi gamma eta + chi (1-gamma) xi_se eta + Z eta. The linear-chi
    truncation is kept exactly as stated; higher orders are the Monte-Carlo
    engine's job.
    """
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
