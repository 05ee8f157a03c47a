"""Monte-Carlo engine: determinism, chunk invariance, protocol statistics
and estimator behaviour. Statistical assertions run at pinned seeds with
3-standard-error tolerances.
"""

import dataclasses
import math
import os
import sys
import threading

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


def use_cpus(monkeypatch: pytest.MonkeyPatch, n: int) -> None:
    """Show the engine an affinity mask of n CPUs, so a large chunk runs on n threads."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


# a stream no mode uses: its screen keys are 24-29 and its row key 31
FREE_STREAM = 3


def philox_words(seed: int, key_high: int, count: int) -> np.ndarray:
    """The first count doubles of the plain Philox stream keyed (key_high << 64) | seed."""
    return np.random.Generator(np.random.Philox(key=(key_high << 64) | seed)).random(count)


class TestTrialStreams:
    def test_rows_are_pure_functions_of_index(self):
        full = st.trial_uniforms(99, 0, 500, FREE_STREAM)
        for start, count in [(0, 500), (0, 3), (17, 41), (250, 250), (499, 1)]:
            np.testing.assert_array_equal(
                st.trial_uniforms(99, start, count, FREE_STREAM), full[start : start + count]
            )

    @pytest.mark.parametrize("cpus", [1, 3, 5, 7])
    def test_split_fill_is_one_philox_stream(self, monkeypatch, cpus):
        # an odd start puts each stream's first word inside a Philox block;
        # a pool of 3, 5 or 6 threads (7 CPUs, more than the six streams),
        # more threads than cores and a short switch interval interleave the fills
        use_cpus(monkeypatch, cpus)
        seed, start, count = 99, 1001, 327_687
        assert count >= st._MIN_POOL
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            screens = st.trial_uniforms(seed, start, count, st.STREAM_PAIRS)
        finally:
            sys.setswitchinterval(interval)
        assert screens.shape == (count, st.WORDS_PER_TRIAL)
        for c in range(st.WORDS_PER_TRIAL):
            expected = philox_words(seed, 8 * st.STREAM_PAIRS + c, start + count)[start:]
            np.testing.assert_array_equal(screens[:, c], expected)

    def test_candidate_rows_known_answer(self):
        # candidates 13..17 of a pair-mode run: words 16k..16k+15 of the row
        # stream fill columns 2-16 and 21, the screens columns 0, 1 and 17-20
        seed, rank = 99, 13
        screens = st.trial_uniforms(seed, 40, 5, st.STREAM_PAIRS)
        rows = st._candidate_rows(screens, seed, st.STREAM_PAIRS, rank)
        words = philox_words(seed, 8 * st.STREAM_PAIRS + 7, 16 * (rank + 5))[16 * rank :].reshape(5, 16)
        np.testing.assert_array_equal(rows[:, [0, 1, 17, 18, 19, 20]], screens)
        np.testing.assert_array_equal(rows[:, 2:17], words[:, :15])
        np.testing.assert_array_equal(rows[:, 21], words[:, 15])

    def test_every_mode_column_has_its_own_key(self):
        # 3 modes x (6 screen columns + 1 row stream) = 21 keys, none shared
        # with each other or with the free stream the tests draw from
        seed = 99
        firsts = [
            st._generator(seed, m, c, 0).random()
            for m in (st.STREAM_FRINGE, st.STREAM_PAIRS, st.STREAM_CORRELATION, FREE_STREAM)
            for c in (*range(st.WORDS_PER_TRIAL), st._ROW_KEY)
        ]
        assert len(set(firsts)) == 28

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
        u = st.trial_uniforms(1, 0, 100, FREE_STREAM)[:, 0]
        np.testing.assert_array_equal(st.lorentzian_from_uniform(0.0, u), np.zeros(100))

    def test_quantile_at_three_quarters(self):
        # tan(pi/4) = 1, so u = 0.75 maps to sigma itself
        np.testing.assert_allclose(st.lorentzian_from_uniform(2.5e-3, np.array([0.75])), [2.5e-3], rtol=1e-12)

    def test_median_absolute_value(self):
        # half of all draws fall within one width of zero (Cauchy CDF)
        sigma = 3e-3
        u = st.trial_uniforms(2024, 0, 1_000_000, FREE_STREAM)[:, 0]
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
        u = st.trial_uniforms(31, 0, 100_000, FREE_STREAM)
        db_l = st.lorentzian_from_uniform(1e-3, u[:, 0])
        db_r = st.lorentzian_from_uniform(1e-3, u[:, 1])
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
        # screen words are addressed by trial and candidate rows by rank
        # over the run, so one trial per chunk is the same run as the
        # default chunking
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

    @pytest.mark.parametrize(
        "run",
        [
            lambda cfg, n: st.simulate_link_fringe(cfg, 0.0, trials_per_theta=n // 12, seed=1),
            lambda cfg, n: st.simulate_link_pairs(cfg, 0.0, trials=n, seed=1),
        ],
        ids=["fringe", "pairs"],
    )
    def test_unequal_eta_raises_on_the_caller(self, lattice_node, clock_mode, monkeypatch, run):
        # a pooled chunk: the error comes from the kernel on the calling
        # thread, and the fill's pool leaves no thread behind
        use_cpus(monkeypatch, 4)
        other = dataclasses.replace(lattice_node, eta=0.2)
        cfg = LinkConfig(node_l=lattice_node, node_r=other, noise=NoiseField(sigma_b=1e-3),
                         mode_l=clock_mode, mode_r=clock_mode)
        threads = threading.active_count()
        with pytest.raises(ValueError, match="per-arm detection efficiencies must be equal"):
            run(cfg, 4 * st._MIN_POOL)
        assert threading.active_count() == threads

    def test_mask_and_kernels_run_on_the_caller(self, plain_link, monkeypatch):
        # 4 CPUs and a pooled chunk: only the screen fill may leave the calling thread
        use_cpus(monkeypatch, 4)
        idents = []
        for name in ("_candidates", "_fringe_batch", "_pair_batch"):
            def traced(*args, _fn=getattr(st, name), _name=name):
                idents.append((_name, threading.get_ident()))
                return _fn(*args)

            monkeypatch.setattr(st, name, traced)
        st.simulate_link_fringe(plain_link, 0.0, trials_per_theta=st._MIN_POOL // 4, thetas=np.zeros(8), seed=1)
        st.simulate_link_pairs(plain_link, 0.0, trials=2 * st._MIN_POOL, seed=1)
        assert {name for name, _ in idents} == {"_candidates", "_fringe_batch", "_pair_batch"}
        assert {ident for _, ident in idents} == {threading.main_thread().ident}


def dense_rows(proto, seed: int, stream: int, count: int) -> np.ndarray:
    """Full rows of trials [0, count), laid out here from the raw Philox streams.

    Columns 0, 1 and 17-20 are the screen words. A trial holding a pair, or
    with a noise word below the largest noise click probability, is a
    candidate: candidate k takes words 16k..16k+15 of the row stream in
    columns 2-16 and 21. Every other trial's 16 words come from a stream no
    mode uses, which no tally may read.
    """
    screens = st.trial_uniforms(seed, 0, count, stream)
    a, b = proto.arm_a, proto.arm_b
    noise_max = max(p * arm.eta for arm in (a, b) for p in (arm.se_noise, arm.z_noise))
    candidate = screens[:, 0] >= 1.0 / (1.0 + a.chi + a.chi * a.chi)
    candidate |= screens[:, 1] >= 1.0 / (1.0 + b.chi + b.chi * b.chi)
    candidate |= (screens[:, 2:] < noise_max).any(axis=1)
    n_cand = int(candidate.sum())
    rest = np.empty((count, 16))
    rest[candidate] = philox_words(seed, 8 * stream + 7, 16 * n_cand).reshape(n_cand, 16)
    rest[~candidate] = philox_words(seed, 8 * FREE_STREAM + 7, 16 * (count - n_cand)).reshape(-1, 16)
    return np.column_stack([screens[:, :2], rest[:, :15], screens[:, 2:], rest[:, 15]])


def dense_records(setup: LinkConfig, t: float, *, trials_per_theta: int, trials: int, seed: int, thetas: np.ndarray):
    """Fringe, pair and correlation records from the row kernels applied to every trial.

    The dense driver, one chunk with every trial's full row through the
    click logic, is the oracle of the engine's herald-first drivers.
    """
    proto = st._protocol(setup, t)
    n_bins = thetas.size
    total = n_bins * trials_per_theta
    idx = np.arange(total) // trials_per_theta
    s1, s2, c1 = st._fringe_batch(proto, thetas[idx], dense_rows(proto, seed, st.STREAM_FRINGE, total))
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

    heralded, click_a, click_b = st._pair_batch(proto, dense_rows(proto, seed, st.STREAM_PAIRS, trials))
    n00, n01, n10, n11 = np.bincount(2 * click_a[heralded] + click_b[heralded], minlength=4).tolist()
    pairs = st.CountsRecord(
        pair_trials=trials, pair_heralds=n00 + n01 + n10 + n11, pij_counts=st.PairCounts(n00, n01, n10, n11)
    )

    channels = st._correlation_batch(proto, dense_rows(proto, seed, st.STREAM_CORRELATION, trials))
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


def below(x: float) -> float:
    return float(np.nextafter(x, 0.0))


class TestClickThresholds:
    """Hand-built rows at, and one float below, each click threshold of the three kernels.

    Every comparison is a strict <: a uniform at its threshold does not
    click and the float below it does. The dense oracle of TestHeraldFirst
    runs these same kernels, so only rows with known answers pin the
    thresholds and which port probability (eta/2 mixed, eta unmixed) each
    mode uses.
    """

    ETA = 0.5
    # chi = 0.01: P(n = 0) = 0.99010 and P(n <= 1) = 0.99990
    PAIRS = {1: 0.995, 2: 0.99995}
    # literal row columns of arm a and arm b: pair number, then slot k = 0, 1
    # of the Stokes, retrieval and anti-Stokes port words, then the noise words
    COLS = {
        "a": dict(n=0, stokes=(2, 3), retrieve=(9, 10), port=(13, 14), se=17, bg=19),
        "b": dict(n=1, stokes=(4, 5), retrieve=(11, 12), port=(15, 16), se=18, bg=20),
    }

    @pytest.fixture()
    def proto(self):
        node = EnsembleParams(chi=0.01, gamma_0=0.6, decay=ExponentialEfficiency(1.0), xi_se=0.5,
                              z_noise=3e-3, eta=self.ETA)
        return st._protocol(link_at(node, SpinWaveMode(mu_prime=0.0), 0.0), 0.0)

    @staticmethod
    def rows(cells: list[dict[int, float]]) -> np.ndarray:
        """One row per {column: uniform}; every other word clicks nothing and both arms hold no pair."""
        u = np.full((len(cells), st._ROW_WIDTH), 0.99)
        u[:, [0, 1]] = 0.0
        for row, cell in zip(u, cells):
            row[list(cell)] = list(cell.values())
        return u

    @staticmethod
    def kernels(proto, u: np.ndarray):
        """Fringe (s1, s2, D_aS1), the pair herald, and per arm the pair and correlation clicks."""
        fringe = st._fringe_batch(proto, np.zeros(len(u)), u)
        herald, click_a, click_b = st._pair_batch(proto, u)
        return fringe, herald, (click_a, click_b), st._correlation_batch(proto, u)

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("arm", ["a", "b"])
    def test_stokes_ports(self, proto, arm, k):
        c, eta = self.COLS[arm], self.ETA
        pair = {c["n"]: self.PAIRS[k + 1]}
        u = self.rows([{**pair, c["stokes"][k]: v} for v in (below(eta / 2), eta / 2, below(eta), eta)])
        (s1, s2, _), herald, _, channels = self.kernels(proto, u)
        np.testing.assert_array_equal(s1, [True, False, False, False])
        np.testing.assert_array_equal(s2, [False, True, True, False])
        np.testing.assert_array_equal(herald, [True, False, False, False])
        i = "ab".index(arm)
        np.testing.assert_array_equal(channels[i][0], [True, True, True, False])
        assert not channels[1 - i][0].any()

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("arm", ["a", "b"])
    def test_retrieved_photon(self, proto, arm, k):
        # no Stokes click, so in fringe mode the photon is incoherent and picks a port
        c, eta, gamma = self.COLS[arm], self.ETA, proto.arm_a.gamma
        pair = {c["n"]: self.PAIRS[k + 1]}
        ports = (below(eta / 2), eta / 2, below(eta), eta)
        cells = [{**pair, c["retrieve"][k]: 0.0, c["port"][k]: v} for v in ports]
        cells += [{**pair, c["retrieve"][k]: v, c["port"][k]: 0.0} for v in (below(gamma), gamma)]
        (_, _, c1), herald, clicks, channels = self.kernels(proto, self.rows(cells))
        assert not herald.any()
        np.testing.assert_array_equal(c1, [True, False, False, False, True, False])
        i = "ab".index(arm)
        for unmixed in (clicks, [a for _, a in channels]):
            np.testing.assert_array_equal(unmixed[i], [True, True, True, False, True, False])
            assert not unmixed[1 - i].any()

    @pytest.mark.parametrize("channel", ["se", "bg"])
    @pytest.mark.parametrize("arm", ["a", "b"])
    def test_noise_photon(self, proto, arm, channel):
        p = proto.arm_a.se_noise if channel == "se" else proto.arm_a.z_noise
        thr = p * self.ETA
        u = self.rows([{self.COLS[arm][channel]: v} for v in (below(thr / 2), thr / 2, below(thr), thr)])
        (_, _, c1), _, clicks, channels = self.kernels(proto, u)
        np.testing.assert_array_equal(c1, [True, False, False, False])
        i = "ab".index(arm)
        for unmixed in (clicks, [a for _, a in channels]):
            np.testing.assert_array_equal(unmixed[i], [True, True, True, False])
            assert not unmixed[1 - i].any()

    def test_heralded_single_excitation_ignores_its_port(self, proto):
        # a D_S1-heralded lone pair is coherent: fringe mode reads only its
        # coherent word, while the unmixed modes still read the port word
        c = self.COLS["a"]
        cell = {c["n"]: self.PAIRS[1], c["stokes"][0]: 0.0, c["retrieve"][0]: 0.0, c["port"][0]: 0.0}
        u = self.rows([{**cell, st._COL_COHERENT: v} for v in (0.99, 0.0)])
        (s1, _, c1), _, (click_a, _), _ = self.kernels(proto, u)
        np.testing.assert_array_equal(s1, [True, True])
        np.testing.assert_array_equal(c1, [False, True])
        np.testing.assert_array_equal(click_a, [True, True])


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
        u = st.trial_uniforms(5, 0, 1_000_000, FREE_STREAM)[:, 0]
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
