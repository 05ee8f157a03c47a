"""Fitters, lifetime root finding and the lifetime/efficiency table."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from dlcz_link import (
    EnsembleParams,
    ExponentialEfficiency,
    LinkConfig,
    NoiseField,
    Topology,
)
from dlcz_link import analysis, model
from dlcz_link.analysis import DecaySeries, FitError
from dlcz_link.config import config_from_dict

from conftest import link_at, matched_pairing


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


class TestDecaySeries:
    def test_requires_increasing_times(self):
        with pytest.raises(ValueError):
            DecaySeries(np.array([0.0, 1.0, 1.0]), np.array([1.0, 0.5, 0.4]))

    def test_requires_finite_values(self):
        with pytest.raises(ValueError):
            DecaySeries(np.array([0.0, 1.0]), np.array([1.0, np.nan]))


class TestFitDecay:
    def test_noiseless_exponential_recovery(self):
        t = np.linspace(0.0, 3e-3, 20)
        series = DecaySeries(t, 0.22 * np.exp(-t / 1e-3))
        res = analysis.fit_decay(series, law="exponential")
        assert res.parameters["amplitude"] == pytest.approx(0.22, rel=1e-9)
        assert res.parameters["tau"] == pytest.approx(1e-3, rel=1e-9)

    def test_noiseless_gaussian_recovery(self):
        t = np.linspace(0.0, 1e-3, 20)
        series = DecaySeries(t, 0.76 * np.exp(-((t / 4e-4) ** 2)))
        res = analysis.fit_decay(series, law="gaussian")
        assert res.parameters["tau"] == pytest.approx(4e-4, rel=1e-9)

    def test_constant_series_gives_sentinel(self):
        t = np.linspace(0.0, 1.0, 10)
        res = analysis.fit_decay(DecaySeries(t, np.full(10, 0.4)))
        assert math.isinf(res.parameters["tau"])
        assert res.parameters["amplitude"] == 0.4
        assert res.residual_norm == 0.0

    def test_noisy_recovery_within_five_percent(self):
        t = np.linspace(0.05e-3, 3e-3, 30)
        clean = 0.22 * np.exp(-t / 1e-3)
        for seed in range(10):
            noisy = clean * (1.0 + 0.02 * _rng(seed).standard_normal(t.size))
            res = analysis.fit_decay(DecaySeries(t, noisy))
            assert abs(res.parameters["tau"] - 1e-3) / 1e-3 < 0.05

    def test_flat_noisy_series_is_not_growth(self):
        # tau = 100 s seen over 1 ms: the fitted rate is noise around zero, about
        # as often negative as positive; none may read as growth and raise
        t = np.linspace(0.0, 1e-3, 12)
        clean = 0.7 * np.exp(-t / 100.0)
        for seed in range(40):
            noisy = clean * (1.0 + 0.03 * _rng(seed).standard_normal(t.size))
            res = analysis.fit_decay(DecaySeries(t, noisy))
            assert res.parameters["tau"] > 0.0

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            analysis.fit_decay(DecaySeries(np.array([0.0, 1.0]), np.array([1.0, 0.5])))

    def test_unknown_law_names_the_valid_laws(self):
        t = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError, match=r"\('exponential', 'gaussian'\), got 'weibull'$"):
            analysis.fit_decay(DecaySeries(t, np.exp(-t)), law="weibull")


class TestFitCrossCorrelation:
    @staticmethod
    def _series(xi_se: float, noise_frac: float = 0.0, seed: int = 0):
        t = np.linspace(0.0, 3e-3, 25)
        gamma = model.retrieval_efficiency(0.17, ExponentialEfficiency(1e-3), t)
        g = model.cross_correlation_from_efficiency(gamma, 0.005, xi_se, 3.3e-4)
        if noise_frac:
            g = g * (1.0 + noise_frac * _rng(seed).standard_normal(t.size))
        return DecaySeries(t, g), gamma

    def test_exact_recovery(self):
        series, gamma = self._series(0.26)
        res = analysis.fit_cross_correlation(series, gamma, 0.005, 3.3e-4)
        assert res.parameters["xi_se"] == pytest.approx(0.26, abs=1e-9)
        assert res.flags == ()

    def test_zero_branching_recovery(self):
        series, gamma = self._series(0.0)
        res = analysis.fit_cross_correlation(series, gamma, 0.005, 3.3e-4)
        assert res.parameters["xi_se"] == pytest.approx(0.0, abs=1e-9)

    def test_noisy_recovery(self):
        for seed in range(10):
            series, gamma = self._series(0.26, noise_frac=0.05, seed=seed)
            res = analysis.fit_cross_correlation(series, gamma, 0.005, 3.3e-4)
            assert abs(res.parameters["xi_se"] - 0.26) / 0.26 < 0.15

    def test_out_of_bounds_clamped_with_flag(self):
        series, gamma = self._series(0.0)
        # push the data above the xi_se = 0 curve so the unconstrained
        # optimum is negative
        inflated = DecaySeries(series.times, 1.0 + (series.values - 1.0) * 1.15)
        res = analysis.fit_cross_correlation(inflated, gamma, 0.005, 3.3e-4)
        assert res.parameters["xi_se"] == 0.0
        assert "clamped" in res.flags


class TestFitVisibilityDephasing:
    MU = 1.3996e6  # Hz/G

    def _series(self, tau_0: float, xi_prime: float, noise_frac: float = 0.0, seed: int = 0):
        t = np.linspace(0.0, 200e-6, 30)
        gamma = model.retrieval_efficiency(0.2, ExponentialEfficiency(1e-3), t)
        g = model.cross_correlation_from_efficiency(gamma, 0.005, 0.26, 3e-4)
        vg = 0.85 * (g - 1.0) / (g + 1.0)
        v = vg * xi_prime * np.exp(-t / tau_0)
        if noise_frac:
            v = v * (1.0 + noise_frac * _rng(seed).standard_normal(t.size))
        return DecaySeries(t, v), vg

    def test_exact_recovery(self):
        series, vg = self._series(50e-6, 0.88)
        res = analysis.fit_visibility_dephasing(series, vg, self.MU)
        assert res.parameters["xi_prime"] == pytest.approx(0.88, rel=1e-9)
        assert res.parameters["tau_0"] == pytest.approx(50e-6, rel=1e-9)

    def test_width_report_matches_fitted_lifetime(self):
        series, vg = self._series(50.5e-6, 0.88)
        res = analysis.fit_visibility_dephasing(series, vg, self.MU)
        sigma_b = res.parameters["sigma_b"]
        assert sigma_b == pytest.approx(1.0 / (2 * math.pi * self.MU * 50.5e-6), rel=1e-9)
        assert sigma_b == pytest.approx(2.25e-3, rel=1e-2)

    def test_no_dephasing_gives_sentinel(self):
        series, vg = self._series(math.inf, 0.88)
        res = analysis.fit_visibility_dephasing(series, vg, self.MU)
        assert math.isinf(res.parameters["tau_0"])
        assert res.parameters["sigma_b"] == 0.0
        assert res.parameters["xi_prime"] == pytest.approx(0.88, rel=1e-9)

    def test_growth_rejected(self):
        series, vg = self._series(50e-6, 0.88)
        growing = DecaySeries(series.times, np.sort(series.values))
        with pytest.raises(FitError):
            analysis.fit_visibility_dephasing(growing, vg, self.MU)

    def test_insensitive_channel_rejected(self):
        series, vg = self._series(50e-6, 0.88)
        for mu_prime in (0.0, -self.MU):
            with pytest.raises(ValueError, match="mu_prime"):
                analysis.fit_visibility_dephasing(series, vg, mu_prime)

    def test_noisy_recovery(self):
        for seed in range(10):
            series, vg = self._series(50e-6, 0.88, noise_frac=0.02, seed=seed)
            res = analysis.fit_visibility_dephasing(series, vg, self.MU)
            assert abs(res.parameters["tau_0"] - 50e-6) / 50e-6 < 0.05
            assert abs(res.parameters["xi_prime"] - 0.88) / 0.88 < 0.05


class TestEntanglementLifetime:
    def test_never_entangled_is_an_error(self, lattice_node):
        noisy = EnsembleParams(
            chi=0.005, gamma_0=0.76, decay=lattice_node.decay, xi_se=0.26, z_noise=0.5, eta=0.4, mu_prime=5000.0
        )
        with pytest.raises(ValueError, match="never entangled"):
            analysis.entanglement_lifetime(link_at(noisy, 1e-3, zeta=0.85))

    def test_unequal_eta_raises(self, lattice_node):
        # the closed form models the detectors both arms share: a link whose
        # arms disagree on their efficiency has no such detector, for the
        # curves as for the root
        cfg = LinkConfig(lattice_node, replace(lattice_node, eta=0.2), NoiseField(sigma_b=1e-3), zeta=0.85)
        with pytest.raises(ValueError, match="per-arm detection efficiencies must be equal"):
            model.link_curves(cfg, 1e-3)
        with pytest.raises(ValueError, match="per-arm detection efficiencies must be equal"):
            analysis.entanglement_lifetime(cfg)
        assert model.shared_detector_eta(link_at(lattice_node, 1e-3)) == lattice_node.eta

    def test_monotone_in_field_width(self, lattice_node):
        widths = np.linspace(0.0, 3e-3, 10)
        lifetimes = [
            analysis.entanglement_lifetime(link_at(lattice_node, float(w), zeta=0.85))
            for w in widths
        ]
        assert all(a >= b - 1e-4 for a, b in zip(lifetimes, lifetimes[1:]))

    @pytest.mark.parametrize("sigma_b", [1000.0, 10.0, 0.1])
    def test_sub_millisecond_root_to_a_part_per_million(self, sigma_b):
        # an absolute 0.1 ms xtol once gave 51.4 us for both 1000 G and 10 G,
        # whose first zeros are 27.5 ns and 2.75 us
        link = replace(config_from_dict({}).link, noise=NoiseField(sigma_b=sigma_b))
        eta = link.node_l.eta

        def positive(t: float) -> bool:
            pt = model.link_curves(link, t)
            return float(pt.visibility - 2.0 * np.sqrt((1.0 - pt.gamma * eta) / pt.g)) > 0.0

        lo, hi = 0.0, 1e-3
        while lo < (mid := 0.5 * (lo + hi)) < hi:  # bisect to the last float
            lo, hi = (mid, hi) if positive(mid) else (lo, mid)
        assert analysis.entanglement_lifetime(link) == pytest.approx(hi, rel=1e-6, abs=0.0)

    def test_root_brackets_concurrence_sign(self, lattice_node):
        cfg = link_at(lattice_node, 1e-3, zeta=0.85)
        t_s = analysis.entanglement_lifetime(cfg)
        delta = 1e-3
        assert float(model.link_curves(cfg, t_s - delta).concurrence) > 0.0
        assert float(model.link_curves(cfg, t_s + delta).concurrence) == 0.0

    def test_default_table1_lifetimes_are_the_margin_zeros(self):
        # every default row has a finite lifetime above 1 ms, so its root is found to the default xtol
        cfg, xtol = config_from_dict({}), 1e-4
        for row in analysis.make_table1(cfg.sigma_b_list, cfg.link, cfg.t_generation):
            link = replace(cfg.link, noise=NoiseField(sigma_b=row.sigma_b, topology=cfg.link.noise.topology))
            t_s = row.lifetime
            assert 1e-3 < t_s < math.inf
            assert model.link_curves(link, t_s - xtol).margin > 0.0 >= model.link_curves(link, t_s + xtol).margin
            # the concurrence is gamma eta times the margin where that is positive
            pt = model.link_curves(link, np.linspace(0.0, 2.0 * t_s, 41))
            np.testing.assert_array_equal(pt.concurrence, np.maximum(0.0, pt.gamma * link.node_l.eta * pt.margin))


class TestLinkEfficiency:
    def test_values(self):
        assert analysis.link_efficiency(1.7, 0.63) == pytest.approx(2.698, abs=2e-3)
        assert analysis.link_efficiency(0.0, 0.63) == 0.0
        assert analysis.link_efficiency(0.135, 0.63) == pytest.approx(0.2143, abs=2e-4)

    def test_requires_positive_generation_time(self):
        with pytest.raises(ValueError):
            analysis.link_efficiency(1.0, 0.0)


class TestTable:
    def test_empty_list(self, lattice_node):
        cfg = link_at(lattice_node, 2e-3, zeta=0.85)
        assert analysis.make_table1([], cfg, 0.63) == []

    def test_shared_topology_rows_ignore_width(self, lattice_node):
        node = lattice_node
        shared = LinkConfig(node, node, NoiseField(sigma_b=2e-3, topology=Topology.SHARED), zeta=0.85)
        rows = analysis.make_table1([2e-3], shared, 0.63)
        assert rows[0].sigma_delta == 0.0
        assert rows[0].lifetime == pytest.approx(1.675, abs=5e-3)

    def test_row_structure(self, lattice_node):
        cfg = link_at(lattice_node, 2e-3, zeta=0.85)
        rows = analysis.make_table1([2e-3, 0.0], cfg, 0.63)
        assert rows[0].sigma_delta == pytest.approx(4e-3)
        assert rows[1].sigma_delta == 0.0
        for row in rows:
            assert row.eta_link == pytest.approx(row.lifetime / 0.63, rel=1e-12)


class TestModePairLifetime:
    def test_mixed_crosses_far_earlier_than_matched(self, measured_pair):
        mixed = analysis.entanglement_lifetime(measured_pair, xtol=1e-7)
        matched = analysis.entanglement_lifetime(matched_pairing(measured_pair), xtol=1e-7)
        assert 20e-6 < mixed < 200e-6
        assert matched > 1e-3
        assert matched / mixed > 10.0


def _scipy_brent(f, a, b, xtol, maxiter=100):
    from scipy.optimize import brentq  # the package itself never loads it for a root

    return brentq(f, a, b, xtol=xtol, maxiter=maxiter)


def _outcome(root, f, a: float, b: float, xtol: float) -> str:
    try:
        return root(f, a, b, xtol=xtol).hex()
    except ValueError:
        return "ValueError"
    except RuntimeError:  # scipy's non-convergence; FitError is one too
        return "RuntimeError"


# f(r) == 0 for each shape, so r = a or r = b puts an exact zero on an end
_SHAPES = {
    "cubic": lambda r, c: lambda x: (x - r) * (1.0 + c * x * x) + c * (x - r) ** 3,
    "exp": lambda r, c: lambda x: math.expm1(c * (x - r)),
    "kink": lambda r, c: lambda x: (x - r) * abs(x - r) ** 0.5 - c * (x - r),
    "step": lambda r, c: lambda x: math.tanh(c * (x - r)) * (1.0 + x * x),
}


class TestBrent:
    """``_brent`` against the installed ``scipy.optimize.brentq``, bit for bit."""

    @staticmethod
    def lifetimes() -> list[str]:
        # every default Table-1 row, the criterion-9 eta grid, the mode-pair roots
        cfg = config_from_dict({})
        links = [replace(cfg.link, noise=NoiseField(sigma_b=s)) for s in cfg.sigma_b_list]
        roots = [analysis.entanglement_lifetime(link) for link in links]
        for link in links:
            for eta in (0.1, 0.3, 0.5, 0.7, 0.9):
                node_l, node_r = replace(link.node_l, eta=eta), replace(link.node_r, eta=eta)
                roots.append(analysis.entanglement_lifetime(replace(link, node_l=node_l, node_r=node_r)))
        pair = cfg.mode_pair
        for arms in (pair, matched_pairing(pair)):
            roots.append(analysis.entanglement_lifetime(arms, xtol=1e-7))
        return [t.hex() for t in roots]

    def test_lifetimes_match_scipy(self, monkeypatch):
        ours = self.lifetimes()
        monkeypatch.setattr(analysis, "_brent", _scipy_brent)
        assert self.lifetimes() == ours

    @settings(max_examples=300, deadline=None)
    @given(
        shape=hs.sampled_from(sorted(_SHAPES)),
        c=hs.floats(0.0, 5.0),
        a=hs.floats(-10.0, 10.0),
        b=hs.floats(-10.0, 10.0),
        root_at=hs.sampled_from(["a", "b", "free"]),
        r=hs.floats(-12.0, 12.0),
        log_xtol=hs.floats(-14.0, 0.0),
    )
    @example(shape="cubic", c=1.0, a=-1.0, b=2.0, root_at="a", r=0.0, log_xtol=-8.0)
    @example(shape="exp", c=1.0, a=-1.0, b=2.0, root_at="b", r=0.0, log_xtol=-8.0)
    @example(shape="cubic", c=1.0, a=1.0, b=2.0, root_at="free", r=0.0, log_xtol=-8.0)
    @example(shape="exp", c=1.3, a=-9.8, b=6.5, root_at="free", r=-0.5, log_xtol=-5.0)
    @example(shape="cubic", c=4.5, a=-9.8, b=5.7, root_at="free", r=-2.9, log_xtol=-10.0)
    @example(shape="step", c=1.3e-177, a=-1.0, b=2.0, root_at="free", r=0.0, log_xtol=0.0)  # 0 / 0
    def test_random_brackets_match_scipy(self, shape, c, a, b, root_at, r, log_xtol):
        r = {"a": a, "b": b}.get(root_at, r)
        f = _SHAPES[shape](r, c)
        xtol = 10.0**log_xtol
        ours = _outcome(analysis._brent, f, a, b, xtol)
        assert ours == _outcome(_scipy_brent, f, a, b, xtol)
        fa, fb = f(a), f(b)
        if fa == 0.0:
            assert ours == a.hex()
        elif fb == 0.0:
            assert ours == b.hex()
        elif (fa > 0.0) == (fb > 0.0):
            assert ours == "ValueError"

    def test_nan_value_is_a_value_error_naming_x(self):
        with pytest.raises(ValueError, match=r"x=0\.5 is NaN"):
            analysis._brent(lambda x: math.nan if x == 0.5 else x - 0.25, 0.0, 0.5, xtol=1e-9)

    def test_running_out_of_iterations_is_a_fit_error(self):
        with pytest.raises(FitError, match="did not converge in 1 iterations"):
            analysis._brent(lambda x: x**3 - 0.3, 0.0, 1.0, xtol=1e-12, maxiter=1)
