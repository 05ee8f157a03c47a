"""Monte-Carlo engine: determinism, chunk invariance, protocol statistics
and estimator behaviour. Statistical assertions run at pinned seeds with
3-standard-error tolerances.
"""

import dataclasses
import math

import numpy as np
import pytest

from dlcz_link import (
    EnsembleParams,
    ExponentialEfficiency,
    LinkConfig,
    NoiseField,
    SpinWaveMode,
    Topology,
)
from dlcz_link import model
from dlcz_link import stochastic as st

from conftest import assert_within_se, link_at


@pytest.fixture()
def plain_link(lattice_node, clock_mode) -> LinkConfig:
    return link_at(lattice_node, clock_mode, 1e-3)  # sigma_delta = 2 mG


class TestTrialStreams:
    def test_rows_are_pure_functions_of_index(self):
        full = st.trial_uniforms(99, 0, 500)
        for start, count in [(0, 500), (0, 3), (17, 41), (250, 250), (499, 1)]:
            np.testing.assert_array_equal(st.trial_uniforms(99, start, count), full[start : start + count])

    def test_streams_are_distinct(self):
        a = st.trial_uniforms(99, 0, 4, stream=st.STREAM_FRINGE)
        b = st.trial_uniforms(99, 0, 4, stream=st.STREAM_PAIRS)
        assert not np.array_equal(a, b)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            st.trial_uniforms(1, -1, 1)

    @pytest.mark.parametrize("chunk_size", [0, -1])
    def test_nonpositive_chunk_size_rejected(self, plain_link, chunk_size):
        for run in (
            lambda: st.simulate_link_fringe(plain_link, 0.0, trials_per_theta=10, seed=1, chunk_size=chunk_size),
            lambda: st.simulate_link_pairs(plain_link, 0.0, trials=10, seed=1, chunk_size=chunk_size),
            lambda: st.simulate_link_correlation(plain_link, 0.0, trials=10, seed=1, chunk_size=chunk_size),
        ):
            with pytest.raises(ValueError, match="chunk_size"):
                run()


class TestLorentzianSampling:
    def test_zero_width(self):
        u = st.trial_uniforms(1, 0, 100)[:, 6]
        np.testing.assert_array_equal(st.lorentzian_from_uniform(0.0, u), np.zeros(100))

    def test_quantile_at_three_quarters(self):
        # tan(pi/4) = 1, so u = 0.75 maps to sigma itself
        np.testing.assert_allclose(st.lorentzian_from_uniform(2.5e-3, np.array([0.75])), [2.5e-3], rtol=1e-12)

    def test_median_absolute_value(self):
        # half of all draws fall within one width of zero (Cauchy CDF)
        sigma = 3e-3
        u = st.trial_uniforms(2024, 0, 1_000_000, stream=3)[:, 6]  # a stream no mode uses
        frac = float(np.mean(np.abs(st.lorentzian_from_uniform(sigma, u)) <= sigma))
        assert frac == pytest.approx(0.5, abs=2e-3)


class TestLinkPhases:
    @staticmethod
    def fringe_at_widths(node, mode, topology, t):
        return [
            st.simulate_link_fringe(
                LinkConfig.symmetric(node, NoiseField(sigma_b=sigma_b, topology=topology), mode),
                t,
                trials_per_theta=20_000,
                seed=7,
            )
            for sigma_b in (0.0, 4e-3)
        ]

    def test_shared_supply_equal_every_trial(self, lattice_node, clock_mode):
        # one draw feeds both nodes, so the phase difference is exactly zero
        # every trial and the record does not depend on the field width
        a, b = self.fringe_at_widths(lattice_node, clock_mode, Topology.SHARED, 0.02)
        assert a == b

    def test_zero_time_zero_phase(self, lattice_node, clock_mode):
        # no phase accumulates at t = 0, even from independent supplies
        a, b = self.fringe_at_widths(lattice_node, clock_mode, Topology.INDEPENDENT, 0.0)
        assert a == b

    def test_independent_difference_dephases_like_double_width(self, plain_link):
        # mean cos(phase difference) at t = tau_0 is e^{-1}: the difference
        # of two node fields is Lorentzian with twice the width
        tau_0 = model.link_curves(plain_link, 0.0).tau_0
        u = st.trial_uniforms(31, 0, 100_000)
        db_l = st.lorentzian_from_uniform(1e-3, u[:, 6])
        db_r = st.lorentzian_from_uniform(1e-3, u[:, 7])
        vals = np.cos(2.0 * np.pi * 5000.0 * (db_l - db_r) * tau_0)
        se = float(vals.std() / math.sqrt(vals.size))
        assert_within_se(float(vals.mean()), math.exp(-1.0), se)


class TestLinkTrial:
    def test_no_excitation_never_heralds(self, lattice_node, clock_mode):
        node = EnsembleParams(chi=0.0, gamma_0=0.76, decay=lattice_node.decay, xi_se=0.26, z_noise=3e-4, eta=0.4)
        cfg = link_at(node, clock_mode, 1e-3)
        fringe = st.simulate_link_fringe(cfg, 0.0, trials_per_theta=1000, seed=3)
        assert fringe.n_heralds == 0
        assert sum(b.n_heralds for b in fringe.theta_bins_alt) == 0
        assert st.simulate_link_pairs(cfg, 0.0, trials=12_000, seed=3).pair_heralds == 0

    def test_single_trial_matches_batch_rows(self, plain_link):
        # each trial owns its uniform block, so one trial per chunk is the
        # same run as the default chunking
        kw = dict(trials_per_theta=4000, seed=17, thetas=np.array([0.7]))
        batch = st.simulate_link_fringe(plain_link, 5e-3, **kw)
        assert batch.n_heralds > 0
        assert st.simulate_link_fringe(plain_link, 5e-3, chunk_size=1, **kw) == batch

    def test_herald_rate(self, plain_link, lattice_node):
        rec = st.simulate_link_fringe(plain_link, 0.0, trials_per_theta=50_000, seed=23)
        rate = rec.n_heralds / rec.n_trials
        p = lattice_node.chi * lattice_node.eta
        assert_within_se(rate, p, math.sqrt(p * (1 - p) / rec.n_trials))

    def test_ideal_destructive_port(self, clock_mode):
        node = EnsembleParams(chi=1e-4, gamma_0=1.0, decay=ExponentialEfficiency(1.0), xi_se=0.0, z_noise=0.0, eta=1.0)
        cfg = link_at(node, clock_mode, 0.0)
        rec = st.simulate_link_fringe(cfg, 0.0, trials_per_theta=1_000_000, seed=3, thetas=np.array([np.pi]))
        assert rec.n_heralds > 50
        assert rec.theta_bins[0].n_coincidence <= 2  # multi-pair residue is O(chi)

    def test_determinism_and_chunk_independence(self, plain_link):
        a = st.simulate_link_fringe(plain_link, 1e-2, trials_per_theta=3000, seed=5)
        b = st.simulate_link_fringe(plain_link, 1e-2, trials_per_theta=3000, seed=5, chunk_size=911)
        c = st.simulate_link_fringe(plain_link, 1e-2, trials_per_theta=3000, seed=5, chunk_size=36_000)
        assert a == b == c

    def test_pair_counts_partition_heralds(self, plain_link):
        rec = st.simulate_link_pairs(plain_link, 0.0, trials=200_000, seed=29)
        assert rec.pij_counts.total == rec.pair_heralds

    def test_doubling_chi_quadruples_unconditional_p11(self, clock_mode):
        # with the noise channels off, both-channel coincidences need two
        # pairs, so their unconditional rate scales as chi^2
        rates, ses = [], []
        for chi in (0.02, 0.04):
            node = EnsembleParams(chi=chi, gamma_0=0.76, decay=ExponentialEfficiency(1.0), xi_se=0.0, z_noise=0.0, eta=1.0)
            cfg = link_at(node, clock_mode, 0.0)
            rec = st.simulate_link_pairs(cfg, 0.0, trials=1_000_000, seed=41)
            rate = rec.pij_counts.n11 / rec.pair_trials
            rates.append(rate)
            ses.append(math.sqrt(max(rec.pij_counts.n11, 1)) / rec.pair_trials)
        ratio = rates[1] / rates[0]
        se_ratio = ratio * math.sqrt((ses[0] / rates[0]) ** 2 + (ses[1] / rates[1]) ** 2)
        assert_within_se(ratio, 4.0, se_ratio)

    def test_fringe_detectors_must_match(self, lattice_node, clock_mode):
        other = EnsembleParams(chi=0.005, gamma_0=0.76, decay=lattice_node.decay, xi_se=0.26, z_noise=3e-4, eta=0.2)
        cfg = LinkConfig(node_l=lattice_node, node_r=other, noise=NoiseField(sigma_b=1e-3),
                         mode_l=clock_mode, mode_r=clock_mode)
        with pytest.raises(ValueError):
            st.simulate_link_fringe(cfg, 0.0, trials_per_theta=10, seed=1)


def dense_records(setup: LinkConfig, t: float, *, trials_per_theta: int, trials: int, seed: int, thetas: np.ndarray):
    """Fringe, pair and correlation records from the row kernels applied to every trial.

    The dense driver, one chunk with every trial through the full click
    logic, is the oracle of the engine's herald-first drivers.
    """
    proto = st._protocol(setup, t)
    n_bins = thetas.size
    total = n_bins * trials_per_theta
    idx = np.arange(total) // trials_per_theta
    s1, s2, c1 = st._fringe_batch(proto, thetas[idx], st.trial_uniforms(seed, 0, total, st.STREAM_FRINGE))
    alt = s2 & ~s1
    her, coin, her_alt, coin_alt = (
        np.bincount(idx[flags], minlength=n_bins).tolist() for flags in (s1, s1 & c1, alt, alt & c1)
    )
    th = thetas.tolist()
    fringe = st.CountsRecord(
        n_trials=total,
        n_heralds=sum(her),
        n_as1_clicks=int(c1.sum()),
        theta_bins=list(map(st.ThetaBin, th, coin, her)),
        theta_bins_alt=list(map(st.ThetaBin, th, coin_alt, her_alt)),
    )

    heralded, click_a, click_b = st._pair_batch(proto, st.trial_uniforms(seed, 0, trials, st.STREAM_PAIRS))
    n00, n01, n10, n11 = np.bincount(2 * click_a[heralded] + click_b[heralded], minlength=4).tolist()
    pairs = st.CountsRecord(
        pair_trials=trials, pair_heralds=n00 + n01 + n10 + n11, pij_counts=st.PairCounts(n00, n01, n10, n11)
    )

    channels = st._correlation_batch(proto, st.trial_uniforms(seed, 0, trials, st.STREAM_CORRELATION))
    correlation = st.CountsRecord(
        correlation_trials=trials,
        correlation=tuple(
            st.ChannelTallies(trials, int(s.sum()), int(a.sum()), int((s & a).sum())) for s, a in channels
        ),
    )
    return fringe, pairs, correlation


class TestHeraldFirst:
    """Running the click logic only on trials that hold a pair changes no tally."""

    @staticmethod
    def link(chi_a: float, chi_b: float, topology: Topology, jitter: float) -> LinkConfig:
        def node(chi):
            # background raised tenfold so that trials without a pair click often
            return EnsembleParams(chi=chi, gamma_0=0.76, decay=ExponentialEfficiency(0.41), xi_se=0.26,
                                  z_noise=3e-3, eta=0.4)

        mode = SpinWaveMode(mu_prime=5000.0)
        return LinkConfig(node_l=node(chi_a), node_r=node(chi_b), mode_l=mode, mode_r=mode,
                          noise=NoiseField(sigma_b=2e-3, topology=topology), zeta=0.85,
                          residual_phase_jitter=jitter)

    # chi = 0.3 leaves the closed form's regime on purpose: a third of the
    # trials hold a pair, so every branch of the kernels is populated
    @pytest.mark.filterwarnings("ignore:chi = .* is outside:UserWarning")
    @pytest.mark.parametrize("jitter", [0.0, 0.3])
    @pytest.mark.parametrize("topology", [Topology.INDEPENDENT, Topology.SHARED])
    @pytest.mark.parametrize("chi_a, chi_b", [(0.0, 0.0), (0.005, 0.005), (0.3, 0.3), (0.002, 0.05)])
    def test_records_equal_dense_oracle(self, chi_a, chi_b, topology, jitter):
        setup = self.link(chi_a, chi_b, topology, jitter)
        t, seed, thetas = 5e-3, 61, st.default_thetas(12)
        # a chunk size that divides neither the bin width nor the total, so
        # chunk starts fall inside theta bins
        kw = dict(seed=seed, chunk_size=7001)
        fringe, pairs, correlation = dense_records(
            setup, t, trials_per_theta=4000, trials=30_000, seed=seed, thetas=thetas
        )
        assert fringe.n_as1_clicks > 0 and correlation.correlation[0].n_anti_stokes > 0
        assert st.simulate_link_fringe(setup, t, trials_per_theta=4000, thetas=thetas, **kw) == fringe
        assert st.simulate_link_pairs(setup, t, trials=30_000, **kw) == pairs
        assert st.simulate_link_correlation(setup, t, trials=30_000, **kw) == correlation


class TestSingleEnsembleTrial:
    def test_matched_pairing_immune_to_field_noise(self, measured_pair):
        # same magnetic character in both modes: the shared field cancels
        # exactly, so runs at different widths are bit-identical
        records = []
        for sigma_b in (0.0, 4e-3):
            pair = LinkConfig.symmetric(
                measured_pair.node_r, NoiseField(sigma_b=sigma_b, topology=Topology.SHARED),
                SpinWaveMode.mfs(), zeta=0.85,
            )
            records.append(st.simulate_link_fringe(pair, 50e-6, trials_per_theta=20_000, seed=13))
        assert records[0] == records[1]

    def test_mixed_pairing_damps_by_e_at_tau0(self, measured_pair, lattice_node):
        # the mode pair, and a shared-supply link whose arms differ in mu':
        # one field sample dephases both with |mu'_a - mu'_b| sigma_b
        shared_link = LinkConfig(
            node_l=lattice_node, node_r=lattice_node,
            noise=NoiseField(sigma_b=2e-3, topology=Topology.SHARED),
            mode_l=SpinWaveMode(mu_prime=0.0), mode_r=SpinWaveMode(mu_prime=5000.0), zeta=0.85,
        )
        for setup in (measured_pair, shared_link):
            tau_0 = model.link_curves(setup, 0.0).tau_0
            delta_mu = abs(setup.mode_l.mu_prime - setup.mode_r.mu_prime)
            assert tau_0 == 1.0 / (2.0 * math.pi * delta_mu * setup.noise.sigma_b)
            rec = st.simulate_link_fringe(setup, tau_0, trials_per_theta=150_000, seed=37)
            vis = st.estimate_visibility(rec)
            expected = float(model.link_curves(setup, tau_0).visibility)
            assert_within_se(vis.value, expected, vis.std_error)

    def test_zero_time_pairings_identical(self, measured_pair):
        # at t = 0 no phase has accumulated: with equal contrast the mixed
        # and matched pairings generate identical statistics (same draws)
        mixed = dataclasses.replace(measured_pair, xi_prime=1.0)
        matched = dataclasses.replace(measured_pair, mode_l=SpinWaveMode.mfs(), xi_prime=1.0)
        a = st.simulate_link_fringe(mixed, 0.0, trials_per_theta=20_000, seed=2)
        b = st.simulate_link_fringe(matched, 0.0, trials_per_theta=20_000, seed=2)
        assert a == b


class TestEstimators:
    @staticmethod
    def synthetic_record(v: float, n_per_bin: int = 10**14, offset: float = 0.25) -> st.CountsRecord:
        thetas = st.default_thetas(12)
        bins = []
        for th in thetas:
            rate = offset * (1.0 + v * math.cos(th))
            bins.append(st.ThetaBin(float(th), int(round(rate * n_per_bin)), n_per_bin))
        return st.CountsRecord(
            n_trials=12 * n_per_bin, n_heralds=12 * n_per_bin, theta_bins=bins
        )

    def test_noiseless_fit_recovers_exactly(self):
        vis = st.estimate_visibility(self.synthetic_record(0.8))
        assert abs(vis.value - 0.8) < 1e-12

    def test_flat_counts_give_zero(self):
        vis = st.estimate_visibility(self.synthetic_record(0.0))
        assert abs(vis.value) < 1e-12

    def test_requires_enough_bins(self):
        rec = self.synthetic_record(0.5)
        short = st.CountsRecord(
            n_trials=rec.n_trials,
            n_heralds=sum(b.n_heralds for b in rec.theta_bins[:4]),
            theta_bins=rec.theta_bins[:4],
        )
        with pytest.raises(ValueError):
            st.estimate_visibility(short)

    @staticmethod
    def record_with_empty_bin() -> st.CountsRecord:
        bins = [st.ThetaBin(float(th), 0, 1 if i else 0) for i, th in enumerate(st.default_thetas(12))]
        return st.CountsRecord(n_trials=11, n_heralds=11, theta_bins=bins)

    def test_empty_bin_rejected(self):
        with pytest.raises(ValueError):
            st.estimate_visibility(self.record_with_empty_bin())

    @pytest.mark.parametrize(
        "kw, message",
        [
            (dict(port="s3"), "port must be"),
        ],
    )
    def test_arguments_checked_before_bins(self, kw, message):
        # the arguments are named even on a record no estimator could use
        with pytest.raises(ValueError, match=message):
            st.estimate_visibility(self.record_with_empty_bin(), **kw)
        with pytest.raises(ValueError, match=message):
            st.estimate_visibility(self.synthetic_record(0.5), **kw)

    def test_mc_against_closed_form(self, plain_link, lattice_node):
        t = 8e-3
        counts = st.merge_counts(
            st.simulate_link_fringe(plain_link, t, trials_per_theta=100_000, seed=19),
            st.merge_counts(
                st.simulate_link_pairs(plain_link, t, trials=400_000, seed=19),
                st.simulate_link_correlation(plain_link, t, trials=400_000, seed=19),
            ),
        )
        stats = st.estimate_statistics(counts)
        pt = model.link_curves(plain_link, t)
        assert_within_se(stats.visibility.value, float(pt.visibility), stats.visibility.std_error)
        assert_within_se(stats.g, float(pt.g), stats.g_std_error)
        assert stats.p00 + stats.p01 + stats.p10 + stats.p11 == pytest.approx(1.0, abs=1e-15)
        p_c = float(pt.gamma) * lattice_node.eta
        assert_within_se(stats.p01 + stats.p10, p_c, math.sqrt(p_c / counts.pair_heralds))

    def test_herald_port_symmetry(self, plain_link):
        rec = st.simulate_link_fringe(plain_link, 4e-3, trials_per_theta=150_000, seed=43)
        v1 = st.estimate_visibility(rec, port="s1")
        v2 = st.estimate_visibility(rec, port="s2")
        # opposite fringe phase, same magnitude
        assert v1.amplitude * v2.amplitude < 0.0
        assert_within_se(v1.value, v2.value, math.hypot(v1.std_error, v2.std_error))

    def test_statistics_requires_heralded_pairs(self, plain_link):
        rec = st.simulate_link_fringe(plain_link, 0.0, trials_per_theta=2000, seed=1)
        with pytest.raises(ValueError):
            st.estimate_statistics(rec)


class TestPhaseAverage:
    def test_characteristic_value(self):
        # one Lorentzian field of width sigma dephases <cos(2 pi mu' dB t)>
        # to e^{-1} at t = 1/(2 pi mu' sigma)
        mu, sigma = 5000.0, 2e-3
        t = 1.0 / (2.0 * math.pi * mu * sigma)
        u = st.trial_uniforms(5, 0, 1_000_000)[:, 6]
        vals = np.cos(2.0 * np.pi * mu * st.lorentzian_from_uniform(sigma, u) * t)
        se = float(vals.std() / math.sqrt(vals.size))
        assert_within_se(float(vals.mean()), math.exp(-1.0), se)


class TestCountsRecord:
    def test_bin_invariants_enforced(self):
        with pytest.raises(ValueError):
            st.CountsRecord(n_trials=10, n_heralds=20)
        with pytest.raises(ValueError):
            st.CountsRecord(
                n_trials=10,
                n_heralds=2,
                theta_bins=[st.ThetaBin(0.0, 3, 1), st.ThetaBin(3.14, 0, 1)],
            )

    def test_merge_doubles_counts(self, plain_link):
        rec = st.simulate_link_fringe(plain_link, 0.0, trials_per_theta=5000, seed=3)
        merged = st.merge_counts(rec, rec)
        assert merged.n_trials == 2 * rec.n_trials
        assert merged.n_heralds == 2 * rec.n_heralds
        assert merged.theta_bins[0].n_coincidence == 2 * rec.theta_bins[0].n_coincidence

    def test_merge_rejects_mismatched_grids(self, plain_link):
        a = st.simulate_link_fringe(plain_link, 0.0, trials_per_theta=1000, seed=3, theta_points=12)
        b = st.simulate_link_fringe(plain_link, 0.0, trials_per_theta=1000, seed=3, theta_points=8)
        with pytest.raises(ValueError):
            st.merge_counts(a, b)
