"""Closed-form layer: frozen-value examples, identities and oracles.

Derived expectations are cross-checked against independent numerical
oracles (Gaussian/Lorentzian quadrature) rather than against the formulas
under test.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from dlcz_link import (
    BOHR_MAGNETON_HZ_PER_G,
    EnsembleParams,
    ExponentialEfficiency,
    GaussianAmplitude,
    LinkConfig,
    MotionBroadeningParams,
    NoiseField,
    SpinWaveMode,
    Topology,
)
from dlcz_link import model

from conftest import link_at, matched_pairing
from oracles import (
    coincidence_probability,
    difference_phase_average_quadrature,
    lorentzian_characteristic,
    phase_average_quadrature,
)


class TestMotionLifetimes:
    def test_motion_only(self):
        p = MotionBroadeningParams(delta_k=1e5, v_s=0.1)
        tau_1, tau_2, tau_d = model.motion_lifetimes(p)
        assert tau_1 == pytest.approx(100e-6, rel=1e-12)
        assert math.isinf(tau_2)
        assert tau_d == pytest.approx(100e-6, rel=1e-12)

    def test_no_motion(self):
        p = MotionBroadeningParams(delta_k=0.0, v_s=0.3, mu_prime=1.4e6, b_gradient=1e-3, cloud_length=2.5e-3)
        tau_1, tau_2, tau_d = model.motion_lifetimes(p)
        assert math.isinf(tau_1)
        assert tau_d == tau_2

    def test_gradient_lifetime_value(self):
        p = MotionBroadeningParams(mu_prime=1.4e6, b_gradient=1e-3, cloud_length=2.5e-3)
        _, tau_2, _ = model.motion_lifetimes(p)
        assert tau_2 == pytest.approx(1.0 / (2.0 * math.pi * 3.5), rel=1e-12)  # ~45.5 ms

    def test_all_channels_off(self):
        tau_1, tau_2, tau_d = model.motion_lifetimes(MotionBroadeningParams())
        assert math.isinf(tau_1) and math.isinf(tau_2) and math.isinf(tau_d)

    def test_combination_rule(self):
        p = MotionBroadeningParams(delta_k=2e5, v_s=0.05, mu_prime=1.4e6, b_gradient=2e-3, cloud_length=1e-3)
        tau_1, tau_2, tau_d = model.motion_lifetimes(p)
        assert tau_d == pytest.approx(tau_1 * tau_2 / math.hypot(tau_1, tau_2), rel=1e-12)

    def test_quadrature_oracle_for_motion_amplitude(self):
        # |integral f(v) e^{-i dk v t} dv| over a Maxwell-Boltzmann 1-d
        # velocity density must reproduce the amplitude factor
        delta_k, v_s = 1e5, 0.1
        p = MotionBroadeningParams(delta_k=delta_k, v_s=v_s)
        decay = GaussianAmplitude(model.motion_lifetimes(p)[2])
        for t in (2e-5, 1e-4, 2e-4):
            norm = 1.0 / (math.sqrt(2.0 * math.pi) * v_s)
            real, _ = quad(
                lambda v: norm * math.exp(-(v**2) / (2 * v_s**2)) * math.cos(delta_k * v * t),
                -np.inf,
                np.inf,
                epsabs=1e-12,
            )
            assert float(model.amplitude_factor(decay, t)) == pytest.approx(real, abs=1e-9)


class TestAmplitudeFactor:
    @pytest.mark.parametrize(
        "decay",
        [
            GaussianAmplitude(1e-3),
            ExponentialEfficiency(0.410),
            GaussianAmplitude(model.motion_lifetimes(MotionBroadeningParams(delta_k=1e5, v_s=0.1))[2]),
        ],
    )
    def test_identity_at_zero(self, decay):
        assert float(model.amplitude_factor(decay, 0.0)) == 1.0

    def test_gaussian_value(self):
        assert float(model.amplitude_factor(GaussianAmplitude(1e-3), 1e-3)) == pytest.approx(
            math.exp(-0.5), rel=1e-12
        )

    def test_motion_equals_gaussian_with_combined_lifetime(self):
        # equal channel lifetimes tau: the product law e^{-t^2/tau^2} of motion and
        # gradient is the Gaussian of the combined lifetime tau/sqrt(2)
        tau = 2e-4
        p = MotionBroadeningParams(delta_k=1e4, v_s=1.0 / (1e4 * tau), mu_prime=1e6, b_gradient=1e-3,
                                   cloud_length=1.0 / (2 * math.pi * 1e6 * 1e-3 * tau))
        t = np.array([0.0, 5e-5, 2e-4, 6e-4])
        combined = model.amplitude_factor(GaussianAmplitude(tau / math.sqrt(2.0)), t)
        motion = GaussianAmplitude(model.motion_lifetimes(p)[2])
        np.testing.assert_allclose(model.amplitude_factor(motion, t), combined, rtol=1e-9)

    def test_exponential_matches_efficiency_law(self):
        d = ExponentialEfficiency(0.2)
        t = 0.37
        assert float(model.amplitude_factor(d, t)) ** 2 == pytest.approx(math.exp(-t / 0.2), rel=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            model.amplitude_factor(GaussianAmplitude(1e-3), -1e-6)


class TestRetrievalEfficiency:
    def test_zero_delay(self):
        assert float(model.retrieval_efficiency(0.76, ExponentialEfficiency(0.410), 0.0)) == 0.76

    def test_one_lifetime(self):
        got = model.retrieval_efficiency(0.76, ExponentialEfficiency(0.410), 0.410)
        assert float(got) == pytest.approx(0.76 / math.e, rel=1e-12)

    def test_cold_cloud_value(self):
        got = model.retrieval_efficiency(0.22, ExponentialEfficiency(1e-3), 1e-3)
        assert float(got) == pytest.approx(0.22 / math.e, rel=1e-12)
        assert float(got) == pytest.approx(0.080933, abs=1e-6)

    @pytest.mark.parametrize(
        "decay",
        [
            GaussianAmplitude(7e-4),
            ExponentialEfficiency(3e-3),
            GaussianAmplitude(model.motion_lifetimes(MotionBroadeningParams(delta_k=1e5, v_s=0.2))[2]),
        ],
    )
    def test_square_of_amplitude(self, decay):
        t = np.linspace(0.0, 2e-3, 9)
        np.testing.assert_allclose(
            model.retrieval_efficiency(0.9, decay, t),
            0.9 * model.amplitude_factor(decay, t) ** 2,
            rtol=1e-13,
        )


class TestDephasingLifetime:
    def test_link_value(self):
        # mu' = 5 Hz/mG, sigma_delta = 0.4 mG
        assert model.dephasing_lifetime(5000.0, 0.4e-3) == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-12)

    def test_single_ensemble_fitted_value(self):
        tau_0 = model.dephasing_lifetime(BOHR_MAGNETON_HZ_PER_G, 2.25e-3)
        assert tau_0 == pytest.approx(50.5e-6, rel=2e-3)

    def test_shared_supply_limit(self):
        assert math.isinf(model.dephasing_lifetime(5000.0, 0.0))
        assert math.isinf(model.dephasing_lifetime(0.0, 1e-3))

    def test_scaling_invariance_exact(self):
        mu, sigma = 5137.0, 3.3e-3
        assert model.dephasing_lifetime(2.0 * mu, sigma / 2.0) == model.dephasing_lifetime(mu, sigma)


class TestLorentzianCharacteristic:
    def test_zero_width(self):
        assert lorentzian_characteristic(5000.0, 0.0, 0.123) == 1.0

    def test_one_lifetime(self):
        mu, sigma = 5000.0, 2e-3
        t = 1.0 / (2.0 * math.pi * mu * sigma)
        assert lorentzian_characteristic(mu, sigma, t) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_against_single_lorentzian_quadrature(self):
        mu, sigma, t = 5000.0, 2e-3, 10e-3
        got = lorentzian_characteristic(mu, sigma, t)
        assert got == pytest.approx(0.5335, abs=2e-4)
        assert got == pytest.approx(phase_average_quadrature(mu, sigma, t), abs=1e-6)

    def test_against_double_lorentzian_quadrature(self):
        # difference of two independent node fields of width sigma_b: the
        # double integral over both densities equals the characteristic at 2 sigma_b
        mu, sigma_b = 5000.0, 1e-3
        tau_0 = model.dephasing_lifetime(mu, 2.0 * sigma_b)
        for t in (0.0, 0.7 * tau_0, 2.3 * tau_0, 5.0 * tau_0):
            target = difference_phase_average_quadrature(mu, sigma_b, t)
            assert lorentzian_characteristic(mu, 2.0 * sigma_b, t) == pytest.approx(target, abs=1e-6)


class TestCrossCorrelation:
    def test_zero_delay_value(self, lattice_node):
        g = float(model.cross_correlation(lattice_node, 0.0))
        assert g == pytest.approx(1.0 + 0.76 / 0.004412, rel=1e-12)  # ~173.26

    def test_no_retrieval_limit(self):
        p = EnsembleParams(chi=0.005, gamma_0=0.0, decay=ExponentialEfficiency(0.410), xi_se=0.26, z_noise=3e-4)
        assert float(model.cross_correlation(p, 0.0)) == 1.0

    def test_long_storage_value(self, lattice_node):
        g = float(model.cross_correlation(lattice_node, 1.7))
        gamma = 0.76 * math.exp(-1.7 / 0.410)
        denom = 0.005 * gamma + 0.005 * (1 - gamma) * 0.26 + 3e-4
        assert g == pytest.approx(1.0 + gamma / denom, rel=1e-12)
        assert g == pytest.approx(8.312, abs=5e-3)

    def test_nonincreasing_when_gamma_decays(self, lattice_node):
        t = np.linspace(0.0, 2.0, 60)
        g = model.cross_correlation(lattice_node, t)
        assert np.all(np.diff(g) <= 0.0)

    def test_ill_posed_rejected(self):
        with pytest.raises(ValueError):
            model.cross_correlation_from_efficiency(0.5, 0.0, 0.0, 0.0)


class TestVisibility:
    def test_perfect_correlation_limit(self):
        assert model.visibility(1e12, 0.0, math.inf, zeta=0.85) == pytest.approx(0.85, rel=1e-9)

    def test_constant_without_dephasing(self):
        v = model.visibility(50.0, np.array([0.0, 0.1, 10.0]), math.inf, zeta=0.84)
        assert np.ptp(v) == 0.0

    def test_value_at_one_lifetime(self):
        v = model.visibility(173.3, 1.0, 1.0, zeta=0.85)
        assert float(v) == pytest.approx(0.85 * (172.3 / 174.3) * math.exp(-1.0), rel=1e-12)
        assert float(v) == pytest.approx(0.3091, abs=2e-4)

    def test_nonincreasing_in_time(self, lattice_node, clock_mode):
        cfg = link_at(lattice_node, clock_mode, 1e-3, zeta=0.85)
        t = np.geomspace(1e-4, 2.0, 80)
        v = model.link_curves(cfg, t).visibility
        assert np.all(np.diff(v) <= 1e-15)

    def test_invalid_g_rejected(self):
        with pytest.raises(ValueError):
            model.visibility(0.5, 0.0, 1.0)


class TestCoincidenceProbability:
    def test_constructive_port_at_zero_delay(self, lattice_node):
        p = lattice_node
        got = coincidence_probability(0.0, p, 1.0, 0.0)
        expected = (
            p.chi * p.gamma_0 * p.eta**2
            + p.chi**2 * p.gamma_0 * p.eta**2
            + p.chi**2 * (1 - p.gamma_0) * p.xi_se * p.eta**2
            + p.chi * p.z_noise * p.eta**2
        )
        assert float(got.p_s1_as1) == pytest.approx(expected, rel=1e-12)

    def test_destructive_port_keeps_noise_terms(self, lattice_node):
        got = coincidence_probability(math.pi, lattice_node, math.inf, 0.0)
        assert float(got.p_c) == 0.0
        assert float(got.p_s1_as1) == pytest.approx(float(got.p_s1 * got.p_as1), rel=1e-12)

    def test_cosine_parity(self, lattice_node):
        for theta in (0.3, 1.1, 2.9):
            a = coincidence_probability(theta, lattice_node, 5e-3, 2e-3)
            b = coincidence_probability(-theta, lattice_node, 5e-3, 2e-3)
            assert float(a.p_s1_as1) == float(b.p_s1_as1)

    def test_uniform_theta_average_drops_interference(self, lattice_node):
        thetas = (np.arange(360) + 0.5) * (2.0 * np.pi / 360.0)
        vals = np.array(
            [float(coincidence_probability(th, lattice_node, 5e-3, 2e-3).p_s1_as1) for th in thetas]
        )
        flat = coincidence_probability(np.pi / 2.0, lattice_node, math.inf, 2e-3)
        # theta-independent part: set the damping term to zero via cos(pi/2)=0
        base = float(lattice_node.chi * flat.p_c * lattice_node.eta)  # chi*gamma*eta^2/2
        expected = float(flat.p_s1_as1)
        assert vals.mean() == pytest.approx(expected, abs=1e-12)
        assert base > 0.0  # guard: the interference term was actually present

    def test_singles_chain(self, lattice_node):
        p = lattice_node
        got = coincidence_probability(0.7, p, 1.0, 0.2)
        gamma = float(model.retrieval_efficiency(p.gamma_0, p.decay, 0.2))
        assert float(got.p_s) == pytest.approx(p.chi * p.eta, rel=1e-12)
        assert float(got.p_as) == pytest.approx(
            p.chi * gamma * p.eta + p.chi * (1 - gamma) * p.xi_se * p.eta + p.z_noise * p.eta, rel=1e-12
        )
        assert float(got.p_s1) == float(got.p_s)
        assert float(got.p_as1) == float(got.p_as)

    def test_visibility_identity_s9_to_s10(self, lattice_node):
        # fringe extrema of the coincidence chain reproduce the closed
        # visibility law over a parameter grid
        for chi in (0.002, 0.005, 0.02):
            for gamma_0 in (0.17, 0.76):
                for t_over_tau in (0.0, 0.5, 2.0):
                    p = EnsembleParams(
                        chi=chi, gamma_0=gamma_0, decay=ExponentialEfficiency(0.410),
                        xi_se=0.26, z_noise=3e-4, eta=0.4,
                    )
                    tau_0 = 8e-3
                    t = t_over_tau * tau_0
                    pmax = float(coincidence_probability(0.0, p, tau_0, t).p_s1_as1)
                    pmin = float(coincidence_probability(math.pi, p, tau_0, t).p_s1_as1)
                    v_from_chain = (pmax - pmin) / (pmax + pmin)
                    g = float(model.cross_correlation(p, t))
                    v_closed = float(model.visibility(g, t, tau_0))
                    assert v_from_chain == pytest.approx(v_closed, abs=1e-9)


class TestConcurrence:
    def test_maximally_entangled(self):
        assert model.concurrence_from_probs(0.0, 0.5, 0.5, 0.0, 1.0) == 1.0

    def test_no_coherence(self):
        assert model.concurrence_from_probs(0.9, 0.05, 0.05, 0.0, 0.0) == 0.0

    def test_counting_value(self):
        got = model.concurrence_from_probs(0.97, 0.01, 0.01, 1e-6, 0.8)
        expected = (0.8 * 0.02 - 2.0 * math.sqrt(0.97 * 1e-6)) / (0.97 + 0.02 + 1e-6)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.0141719, abs=1e-6)

    def test_two_photon_penalty_dominates(self):
        # the penalty is 2 sqrt(p00 p11): this input is separable
        assert model.concurrence_from_probs(0.97, 0.01, 0.01, 1e-4, 0.8) == 0.0

    def test_scale_invariance(self):
        args = (0.9, 0.04, 0.05, 1e-5)
        base = model.concurrence_from_probs(*args, 0.7)
        for k in (1e-3, 7.0, 1e4):
            scaled = model.concurrence_from_probs(*(k * a for a in args), 0.7)
            assert scaled == pytest.approx(base, rel=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            model.concurrence_from_probs(0.0, 0.0, 0.0, 0.0, 0.5)

    def test_param_form_trivials(self):
        assert model.concurrence_param(0.0, 0.9, 100.0) == 0.0
        # below threshold: V <= 2 sqrt((1-p_c)/g)
        assert model.concurrence_param(0.3, 0.15, 100.0) == 0.0
        assert model.concurrence_param(0.3, 0.9, 100.0) > 0.0

    def test_margin_sets_the_sign_of_the_param_form(self):
        # V - 2 sqrt((1 - p_c)/g): 0.9 - 2 sqrt(0.7/100) and 0.15 - 2 sqrt(0.7/100)
        assert model.concurrence_margin(0.3, 0.9, 100.0) == pytest.approx(0.9 - 2.0 * math.sqrt(0.007), rel=1e-15)
        assert model.concurrence_margin(0.3, 0.15, 100.0) < 0.0
        p_c = np.array([0.0, 0.1, 0.3, 0.7])
        margin = model.concurrence_margin(p_c, 0.9, 100.0)
        np.testing.assert_array_equal(model.concurrence_param(p_c, 0.9, 100.0), np.maximum(0.0, p_c * margin))

    def test_param_against_counting_form(self):
        # small-chi closed probabilities: p01 = p10 = p_c/2, p11 = p_c^2/g,
        # p00 the rest; both formulas must then agree to first order
        p_c, g, v = 0.02, 150.0, 0.8
        p11 = p_c**2 / g
        p01 = p10 = p_c / 2.0
        p00 = 1.0 - p01 - p10 - p11
        counting = model.concurrence_from_probs(p00, p01, p10, p11, v)
        param = float(model.concurrence_param(p_c, v, g))
        assert counting == pytest.approx(param, rel=2e-2)


class TestLinkCurves:
    def test_zero_delay_matches_parts(self, lattice_node, clock_mode):
        cfg = link_at(lattice_node, clock_mode, 2e-3, zeta=0.85)
        pt = model.link_curves(cfg, 0.0)
        assert float(pt.gamma) == 0.76
        assert float(pt.g) == pytest.approx(float(model.cross_correlation(lattice_node, 0.0)), rel=1e-12)
        assert pt.tau_0 == pytest.approx(model.dephasing_lifetime(5000.0, 4e-3), rel=1e-12)

    def test_shared_supply_keeps_visibility(self, lattice_node, clock_mode):
        node = lattice_node
        shared = LinkConfig.symmetric(
            node, NoiseField(sigma_b=4e-3, topology=Topology.SHARED), clock_mode, zeta=0.85
        )
        pt = model.link_curves(shared, np.array([0.0, 0.05, 0.2]))
        assert math.isinf(pt.tau_0)
        v_expected = 0.85 * (pt.g - 1.0) / (pt.g + 1.0)
        np.testing.assert_allclose(pt.visibility, v_expected, rtol=1e-12)

    def test_phase_jitter_damps_contrast(self, lattice_node, clock_mode):
        base = link_at(lattice_node, clock_mode, 1e-3, zeta=0.85)
        jittered = LinkConfig.symmetric(
            lattice_node, NoiseField(sigma_b=1e-3), clock_mode, zeta=0.85, residual_phase_jitter=0.5
        )
        t = 5e-3
        ratio = float(model.link_curves(jittered, t).visibility) / float(model.link_curves(base, t).visibility)
        assert ratio == pytest.approx(math.exp(-0.125), rel=1e-12)


class TestModePairCurves:
    def test_matched_pairing_has_no_dephasing_factor(self, measured_pair):
        t = np.linspace(0.0, 2e-3, 40)
        pt = model.link_curves(matched_pairing(measured_pair), t)
        g_mfs = model.cross_correlation(measured_pair.node_r, t)
        expected = measured_pair.zeta * (g_mfs - 1.0) / (g_mfs + 1.0)
        np.testing.assert_allclose(pt.visibility, expected, rtol=1e-12)

    def test_mixed_pairing_dephases_at_fitted_rate(self, measured_pair):
        pt0 = model.link_curves(measured_pair, 0.0)
        assert pt0.tau_0 == pytest.approx(50.54e-6, rel=1e-3)
        t = pt0.tau_0
        pt = model.link_curves(measured_pair, t)
        g_bar = 0.5 * (
            float(model.cross_correlation(measured_pair.node_l, t))
            + float(model.cross_correlation(measured_pair.node_r, t))
        )
        undamped = measured_pair.zeta * measured_pair.xi_prime * (g_bar - 1.0) / (g_bar + 1.0)
        assert float(pt.visibility) == pytest.approx(undamped * math.exp(-1.0), rel=1e-12)

    def test_zero_delay_efficiencies(self, measured_pair):
        # per-mode gamma_0, and their arm average in the two-arm closed form
        for node, gamma_0 in ((measured_pair.node_l, 0.22), (measured_pair.node_r, 0.17)):
            assert float(model.retrieval_efficiency(node.gamma_0, node.decay, 0.0)) == gamma_0
        assert float(model.link_curves(measured_pair, 0.0).gamma) == 0.5 * (0.22 + 0.17)
