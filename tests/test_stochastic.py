"""Monte-Carlo engine: determinism, chunk invariance, protocol statistics
and estimator behaviour. Statistical assertions run at pinned seeds with
3-standard-error tolerances.
"""

import dataclasses
import inspect
import math
import threading

import numpy as np
import pytest
from scipy.stats import fisher_exact

from dlcz_link import (
    BOHR_MAGNETON_HZ_PER_G,
    EnsembleParams,
    ExponentialEfficiency,
    LinkConfig,
    NoiseField,
    Topology,
)
from dlcz_link import model
from dlcz_link import stochastic as st

from conftest import assert_within_se, link_at


@pytest.fixture()
def plain_link(lattice_node) -> LinkConfig:
    return link_at(lattice_node, 1e-3)  # sigma_delta = 2 mG


# Philox keys, apart from the modes' PCG64DXSM streams: one for sampling
# tests, and from DENSE_KEY on one per mode for the dense oracle
FREE_STREAM = 3
DENSE_KEY = 8


def philox_words(seed: int, key_high: int, count: int) -> np.ndarray:
    """The first count doubles of the plain Philox stream keyed (key_high << 64) | seed."""
    return np.random.Generator(np.random.Philox(key=(key_high << 64) | seed)).random(count)


def mode_stream(seed: int, stream: int) -> np.random.PCG64DXSM:
    """A mode's word stream, built here from numpy: PCG64DXSM seeded by SeedSequence(seed, spawn_key=(stream,))."""
    return np.random.PCG64DXSM(np.random.SeedSequence(seed, spawn_key=(stream,)))


def mode_words(seed: int, stream: int, count: int) -> np.ndarray:
    """The first count doubles of a mode's word stream."""
    return np.random.Generator(mode_stream(seed, stream)).random(count)


def layout_oracle(proto, seed: int, total: int):
    """Trial indices, rows and first live screen columns of a pair-mode run, transcribed word by word.

    Candidate k reads words 24k..24k+23 of the pair stream. Word 0 is its gap
    G = floor(ln(1 - u) / ln(1 - q)), so it falls G + 1 trials after the
    previous one; word 1 picks its first live screen column J; words 2-23
    are its row, in which each screen word before J is squeezed onto its
    dead region and the one at J onto its live region.
    """
    a, b = proto.arms[0], proto.arms[1]
    noise_max = max(p * arm.eta for arm in (a, b) for p in (arm.se_noise, arm.z_noise))
    p0 = [1.0 / (1.0 + arm.chi + arm.chi * arm.chi) for arm in (a, b)]
    # (row column, live region, dead region) of each screen word, in screen order
    screens = [(0, (p0[0], 1.0), (0.0, p0[0])), (1, (p0[1], 1.0), (0.0, p0[1]))]
    screens += [(col, (0.0, noise_max), (noise_max, 1.0)) for col in (17, 18, 19, 20)]
    live = [hi - lo for _, (lo, hi), _ in screens]
    weights = [x * math.prod(1.0 - y for y in live[:j]) for j, x in enumerate(live)]
    q = 1.0 - math.prod(1.0 - x for x in live)
    trials, rows, firsts = [], [], []
    trial = -1
    for block in mode_words(seed, st.STREAM_PAIRS, 24 * total).reshape(total, 24):
        trial += 1 + math.floor(math.log1p(-block[0]) / math.log1p(-q))
        if trial >= total:
            break
        first, acc = 0, weights[0]
        while block[1] * q >= acc:
            first += 1
            acc += weights[first]
        row = block[2:].copy()
        for j, (col, live_region, dead_region) in enumerate(screens[: first + 1]):
            lo, hi = live_region if j == first else dead_region
            row[col] = lo + row[col] * (hi - lo)
        trials.append(trial)
        rows.append(row)
        firsts.append(first)
    return np.array(trials), np.array(rows), firsts


class TestTrialStreams:
    def test_rows_are_pure_functions_of_index(self):
        full = st.trial_uniforms(99, 0, 500, FREE_STREAM)
        for start, count in [(0, 500), (0, 3), (17, 41), (250, 250), (499, 1)]:
            np.testing.assert_array_equal(
                st.trial_uniforms(99, start, count, FREE_STREAM), full[start : start + count]
            )

    @pytest.mark.parametrize("parts", [1, 3, 5, 7])
    def test_split_fill_is_one_mode_stream(self, parts):
        # candidate k reads words 24k..24k+23 of its mode's stream, however the
        # run's candidates are split into calls, whatever integer type the
        # first rank has, and wherever the calls' fill sub-blocks end; one
        # call returns a column-major block
        seed, start = 99, 1001
        for count in (1, st._FILL_ROWS, st._FILL_ROWS + 3, 3 * st._FILL_ROWS + 7):
            cuts = np.linspace(start, start + count, parts + 1).astype(np.int64)
            calls = [st.trial_uniforms(seed, lo, hi - lo, st.STREAM_PAIRS) for lo, hi in zip(cuts, cuts[1:])]
            blocks = np.vstack(calls)
            assert blocks.shape == (count, st.WORDS_PER_TRIAL)
            assert all(call.flags.f_contiguous for call in calls)
            words = mode_words(seed, st.STREAM_PAIRS, 24 * (start + count))[24 * start :]
            np.testing.assert_array_equal(blocks, words.reshape(count, 24))

    @pytest.mark.parametrize("start", [2**40, np.int64(2**40)], ids=["int", "int64"])
    def test_far_rank_is_one_advance(self, start):
        # a candidate far past any block reads the words that one advance of
        # the stream reaches, whether its rank is a Python or a numpy integer
        words = np.random.Generator(mode_stream(99, st.STREAM_PAIRS).advance(24 * 2**40)).random((3, 24))
        np.testing.assert_array_equal(st.trial_uniforms(99, start, 3, st.STREAM_PAIRS), words)

    def test_candidate_rows_known_answer(self):
        # every trial index and row the kernels see, against a scalar
        # transcription of the layout from the raw words of the pair stream;
        # loud noise and unequal chi make every screen column the first live one
        def node(chi):
            return EnsembleParams(chi=chi, gamma_0=0.76, decay=ExponentialEfficiency(0.41), xi_se=0.26,
                                  z_noise=0.4, eta=0.5, mu_prime=5000.0)

        proto = st._protocol(LinkConfig(node_l=node(0.05), node_r=node(0.09), noise=NoiseField(sigma_b=1e-3)), 2e-3)
        seed, total = 99, 1000
        seen = []

        def part(trials, rows):
            seen.append((trials.copy(), rows.copy()))
            return np.zeros(1, dtype=np.int64)

        st._tally(proto, seed, st.STREAM_PAIRS, total, 64, part)
        trials = np.concatenate([t for t, _ in seen])
        rows = np.vstack([r for _, r in seen])
        expected_trials, expected_rows, firsts = layout_oracle(proto, seed, total)
        assert len(seen) > 2 and set(firsts) == set(range(6))
        np.testing.assert_array_equal(trials, expected_trials)
        np.testing.assert_array_equal(rows, expected_rows)

    def test_kernels_read_contiguous_columns(self, plain_link, monkeypatch):
        # every driver hands its kernels column-major rows: each of the 22
        # row columns is one contiguous run of words
        seen = []
        original = st._tally

        def tally(proto, seed, stream, total, chunk_size, part):
            def checked(trials, rows):
                seen.append((len(rows), [rows[:, c].flags.c_contiguous for c in range(rows.shape[1])]))
                return part(trials, rows)

            return original(proto, seed, stream, total, chunk_size, checked)

        monkeypatch.setattr(st, "_tally", tally)
        st.simulate_link_fringe(plain_link, 0.0, trials_per_theta=1 << 13, theta_points=8, seed=1, chunk_size=300)
        st.simulate_link_pairs(plain_link, 0.0, trials=1 << 16, seed=1)
        st.simulate_link_correlation(plain_link, 0.0, trials=1 << 16, seed=1)
        assert len(seen) > 3 and min(n for n, _ in seen) > 1
        assert all(flags == [True] * 22 for _, flags in seen)

    def test_every_mode_column_has_its_own_key(self):
        # each mode draws from its own stream, none shared with the Philox
        # keys the sampling tests and the dense oracle draw from
        seed = 99
        firsts = [st.trial_uniforms(seed, 0, 1, m)[0, 0] for m in (st.STREAM_FRINGE, st.STREAM_PAIRS, st.STREAM_CORRELATION)]
        firsts += [philox_words(seed, key, 1)[0] for key in (FREE_STREAM, DENSE_KEY, DENSE_KEY + 1, DENSE_KEY + 2)]
        assert len(set(firsts)) == 7

    def test_streams_are_distinct(self):
        a = st.trial_uniforms(99, 0, 4, stream=st.STREAM_FRINGE)
        b = st.trial_uniforms(99, 0, 4, stream=st.STREAM_PAIRS)
        assert not np.array_equal(a, b)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            st.trial_uniforms(1, -1, 1, st.STREAM_PAIRS)

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
        u = philox_words(1, FREE_STREAM, 100)
        np.testing.assert_array_equal(st._lorentzian(0.0, u), np.zeros(100))

    def test_quantile_at_three_quarters(self):
        # tan(pi/4) = 1, so u = 0.75 maps to sigma itself
        np.testing.assert_allclose(st._lorentzian(2.5e-3, np.array([0.75])), [2.5e-3], rtol=1e-12)

    def test_median_absolute_value(self):
        # half of all draws fall within one width of zero (Cauchy CDF)
        sigma = 3e-3
        u = philox_words(2024, FREE_STREAM, 1_000_000)
        frac = float(np.mean(np.abs(st._lorentzian(sigma, u)) <= sigma))
        assert frac == pytest.approx(0.5, abs=2e-3)


class TestLinkPhases:
    @staticmethod
    def fringe_at_widths(node, topology, t):
        return [
            st.simulate_link_fringe(
                LinkConfig(node, node, NoiseField(sigma_b=sigma_b, topology=topology)),
                t,
                trials_per_theta=20_000,
                seed=7,
            )
            for sigma_b in (0.0, 4e-3)
        ]

    def test_shared_supply_equal_every_trial(self, lattice_node):
        # one draw feeds both nodes, so the phase difference is exactly zero
        # every trial and the record does not depend on the field width
        a, b = self.fringe_at_widths(lattice_node, Topology.SHARED, 0.02)
        assert a == b

    def test_zero_time_zero_phase(self, lattice_node):
        # no phase accumulates at t = 0, even from independent supplies
        a, b = self.fringe_at_widths(lattice_node, Topology.INDEPENDENT, 0.0)
        assert a == b

    def test_independent_difference_dephases_like_double_width(self, plain_link):
        # mean cos(phase difference) at t = tau_0 is e^{-1}: the difference
        # of two node fields is Lorentzian with twice the width
        tau_0 = model.link_curves(plain_link, 0.0).tau_0
        u = philox_words(31, FREE_STREAM, 200_000).reshape(-1, 2)
        db_l = st._lorentzian(1e-3, u[:, 0])
        db_r = st._lorentzian(1e-3, u[:, 1])
        vals = np.cos(2.0 * np.pi * 5000.0 * (db_l - db_r) * tau_0)
        se = float(vals.std() / math.sqrt(vals.size))
        assert_within_se(float(vals.mean()), math.exp(-1.0), se)


class TestLinkTrial:
    def test_no_excitation_never_heralds(self, lattice_node):
        node = EnsembleParams(chi=0.0, gamma_0=0.76, decay=lattice_node.decay, xi_se=0.26, z_noise=3e-4, eta=0.4,
                              mu_prime=5000.0)
        cfg = link_at(node, 1e-3)
        fringe = st.simulate_link_fringe(cfg, 0.0, trials_per_theta=1000, seed=3)
        assert fringe.n_heralds == 0
        assert sum(b.n_heralds for b in fringe.theta_bins_alt) == 0
        assert st.simulate_link_pairs(cfg, 0.0, trials=12_000, seed=3).pair_heralds == 0

    def test_single_trial_matches_batch_rows(self, plain_link):
        # every candidate's words are addressed by its rank over the run, so
        # one candidate per kernel call is the same run as the default chunking
        kw = dict(trials_per_theta=4000, seed=17, theta_points=1)
        batch = st.simulate_link_fringe(plain_link, 5e-3, **kw)
        assert batch.n_heralds > 0
        assert st.simulate_link_fringe(plain_link, 5e-3, chunk_size=1, **kw) == batch

    def test_herald_rate(self, plain_link, lattice_node):
        rec = st.simulate_link_fringe(plain_link, 0.0, trials_per_theta=50_000, seed=23)
        rate = rec.n_heralds / rec.n_trials
        p = lattice_node.chi * lattice_node.eta
        assert_within_se(rate, p, math.sqrt(p * (1 - p) / rec.n_trials))

    def test_ideal_destructive_port(self):
        node = EnsembleParams(chi=1e-4, gamma_0=1.0, decay=ExponentialEfficiency(1.0), xi_se=0.0, z_noise=0.0, eta=1.0,
                              mu_prime=5000.0)
        cfg = link_at(node, 0.0)
        # bin 1 of two scans theta = pi
        rec = st.simulate_link_fringe(cfg, 0.0, trials_per_theta=1_000_000, seed=3, theta_points=2)
        destructive = rec.theta_bins[1]
        assert destructive.theta == np.pi
        assert destructive.n_heralds > 50
        assert destructive.n_coincidence <= 2  # multi-pair residue is O(chi)

    def test_determinism_and_chunk_independence(self, plain_link):
        a = st.simulate_link_fringe(plain_link, 1e-2, trials_per_theta=3000, seed=5)
        b = st.simulate_link_fringe(plain_link, 1e-2, trials_per_theta=3000, seed=5, chunk_size=911)
        c = st.simulate_link_fringe(plain_link, 1e-2, trials_per_theta=3000, seed=5, chunk_size=36_000)
        assert a == b == c

    def test_pair_counts_partition_heralds(self, plain_link):
        rec = st.simulate_link_pairs(plain_link, 0.0, trials=200_000, seed=29)
        assert rec.pij_counts.total == rec.pair_heralds

    def test_doubling_chi_quadruples_unconditional_p11(self):
        # with the noise channels off, both-channel coincidences need two
        # pairs, so their unconditional rate scales as chi^2
        rates, ses = [], []
        for chi in (0.02, 0.04):
            node = EnsembleParams(chi=chi, gamma_0=0.76, decay=ExponentialEfficiency(1.0), xi_se=0.0, z_noise=0.0,
                                  eta=1.0, mu_prime=5000.0)
            cfg = link_at(node, 0.0)
            rec = st.simulate_link_pairs(cfg, 0.0, trials=1_000_000, seed=41)
            rate = rec.pij_counts.n11 / rec.pair_trials
            rates.append(rate)
            ses.append(math.sqrt(max(rec.pij_counts.n11, 1)) / rec.pair_trials)
        ratio = rates[1] / rates[0]
        se_ratio = ratio * math.sqrt((ses[0] / rates[0]) ** 2 + (ses[1] / rates[1]) ** 2)
        assert_within_se(ratio, 4.0, se_ratio)

    def test_fringe_detectors_must_match(self, lattice_node):
        other = EnsembleParams(chi=0.005, gamma_0=0.76, decay=lattice_node.decay, xi_se=0.26, z_noise=3e-4, eta=0.2,
                               mu_prime=5000.0)
        cfg = LinkConfig(node_l=lattice_node, node_r=other, noise=NoiseField(sigma_b=1e-3))
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
    def test_unequal_eta_raises_on_the_caller(self, lattice_node, run, monkeypatch):
        # the shared-detector rule is checked once per run, before any word
        # is drawn: on a link with candidates and on one without (chi = 0 and
        # no noise, so q = 0) the error comes from the calling thread, no
        # word is drawn, and the run leaves no thread behind
        drawn = []
        original = st.trial_uniforms
        monkeypatch.setattr(st, "trial_uniforms", lambda *a: drawn.append(a[2]) or original(*a))
        quiet = EnsembleParams(chi=0.0, gamma_0=0.76, decay=lattice_node.decay, eta=0.4, mu_prime=5000.0)
        for node in (lattice_node, quiet):
            cfg = LinkConfig(node_l=node, node_r=dataclasses.replace(node, eta=0.2), noise=NoiseField(sigma_b=1e-3))
            threads = threading.active_count()
            with pytest.raises(ValueError, match="per-arm detection efficiencies must be equal"):
                run(cfg, 1 << 17)
            assert threading.active_count() == threads
        assert drawn == []

    def test_correlation_mode_runs_on_unequal_eta(self, lattice_node):
        # unmixed, each arm has its own detectors: each channel clicks with its own eta
        cfg = LinkConfig(node_l=lattice_node, node_r=dataclasses.replace(lattice_node, eta=0.2),
                         noise=NoiseField(sigma_b=1e-3))
        trials = 400_000
        rec = st.simulate_link_correlation(cfg, 0.0, trials=trials, seed=7)
        chi = lattice_node.chi
        for channel, eta in zip(rec.correlation, (lattice_node.eta, 0.2)):
            # a Stokes click: one of the arm's pairs is detected
            p = (chi * eta + chi**2 * (1.0 - (1.0 - eta) ** 2)) / (1.0 + chi + chi**2)
            assert_within_se(channel.n_stokes / trials, p, math.sqrt(p * (1 - p) / trials))

    def test_mask_and_kernels_run_on_the_caller(self, plain_link, monkeypatch):
        # the word draw, the screen conditioning and the kernels all run on the calling thread
        idents = []
        for owner, name in ((st, "trial_uniforms"), (st._ScreenLaw, "condition"), (st, "_fringe_batch"),
                            (st, "_pair_batch")):
            def traced(*args, _fn=getattr(owner, name), _name=name):
                idents.append((_name, threading.get_ident()))
                return _fn(*args)

            monkeypatch.setattr(owner, name, traced)
        st.simulate_link_fringe(plain_link, 0.0, trials_per_theta=1 << 13, theta_points=8, seed=1)
        st.simulate_link_pairs(plain_link, 0.0, trials=1 << 16, seed=1)
        assert {name for name, _ in idents} == {"trial_uniforms", "condition", "_fringe_batch", "_pair_batch"}
        assert {ident for _, ident in idents} == {threading.main_thread().ident}


class TestCandidateLaw:
    """Edge cases of the gap and screen-word law."""

    @staticmethod
    def link(chi: float, z_noise: float, eta: float) -> LinkConfig:
        node = EnsembleParams(chi=chi, gamma_0=0.76, decay=ExponentialEfficiency(0.41), z_noise=z_noise, eta=eta,
                              mu_prime=5000.0)
        return link_at(node, 1e-3)

    def test_no_candidates_when_q_is_zero(self, monkeypatch):
        # chi = 0 and no noise: no trial can click, so no word is drawn
        drawn = []
        original = st.trial_uniforms
        monkeypatch.setattr(st, "trial_uniforms", lambda *a: drawn.append(a[2]) or original(*a))
        rec = st.simulate_link_correlation(self.link(0.0, 0.0, 0.4), 0.0, trials=10**9, seed=1)
        assert st._screen_law(st._protocol(self.link(0.0, 0.0, 0.4), 0.0)).q == 0.0
        assert drawn == [0]
        assert rec.correlation == (st.ChannelTallies(10**9, 0, 0, 0),) * 2

    def test_every_trial_is_a_candidate_when_q_is_one(self):
        # a background photon in every pulse, detected with certainty: every
        # trial clicks in both channels, so none may be skipped
        setup = self.link(0.0, 1.0, 1.0)
        assert st._screen_law(st._protocol(setup, 0.0)).q == 1.0
        rec = st.simulate_link_correlation(setup, 0.0, trials=70_001, seed=1, chunk_size=7001)
        assert rec.correlation == (st.ChannelTallies(70_001, 0, 70_001, 0),) * 2

    def test_gap_words(self):
        law = st._screen_law(st._protocol(self.link(0.005, 3e-4, 0.4), 0.0))
        # u = 0 is a gap of 0: consecutive trials from the first one free
        np.testing.assert_array_equal(law.trials(np.zeros(3), 5, 100), [5, 6, 7])
        # u = 1/2 is a gap of floor(ln(1/2) / ln(1 - q))
        gap = math.floor(math.log(0.5) / math.log1p(-law.q))
        np.testing.assert_array_equal(law.trials(np.full(2, 0.5), 0, 10**6), [gap, 2 * gap + 1])

    def test_gap_past_the_run_is_clamped(self):
        # at a subnormal q the largest word's gap overflows to inf: it is
        # clamped to the run's end before the int64 cast, without a warning
        setup = self.link(0.0, 1e-320, 0.4)
        law = st._screen_law(st._protocol(setup, 0.0))
        assert 0.0 < law.q < 1e-300
        top = 1.0 - 2.0**-53
        np.testing.assert_array_equal(law.trials(np.array([top, 0.0]), 3, 1000), [1003, 1004])
        assert st.simulate_link_pairs(setup, 0.0, trials=10**6, seed=1).pair_heralds == 0

    @pytest.mark.parametrize("u", [0.0, 1.0 - 2.0**-53])
    def test_conditioned_words_stay_in_their_region(self, u):
        # p0 + u (1 - p0) and noise_max + u (1 - noise_max) round up to 1 at
        # u = 1 - 2^-53; each conditioned word must stay inside [lo, hi)
        law = st._screen_law(st._protocol(self.link(0.05, 0.4, 0.5), 2e-3))
        cum = np.concatenate(([0.0], law.cum))
        for first in range(6):
            block = np.full((1, st.WORDS_PER_TRIAL), u)
            block[0, 1] = 0.5 * (cum[first] + cum[first + 1]) / law.q
            row = law.condition(block)[0]
            for j, col in enumerate(st._SCREEN_COLS):
                lo, hi = law.lo[first, j], law.hi[first, j]
                assert lo <= row[col] < hi, (first, j, row[col], lo, hi)
                if j > first:
                    assert row[col] == u

    def test_conditioning_a_mixed_block(self):
        # one block whose rows cover every first live column J and screen
        # words at 0, 1/2 and 1 - 2^-53, against the map written per element;
        # screen words past J and every other word keep their drawn value
        law = st._screen_law(st._protocol(self.link(0.05, 0.4, 0.5), 2e-3))
        cum = np.concatenate(([0.0], law.cum))
        values = [0.0, 0.5, 1.0 - 2.0**-53]
        combos = np.array(np.meshgrid(*[values] * 6, indexing="ij")).reshape(6, -1).T
        firsts = np.repeat(np.arange(6), len(combos))
        block = philox_words(5, FREE_STREAM, len(firsts) * st.WORDS_PER_TRIAL).reshape(-1, st.WORDS_PER_TRIAL)
        block[:, 1] = 0.5 * (cum[firsts] + cum[firsts + 1]) / law.q
        block[:, st._BLOCK_SCREENS] = np.tile(combos, (6, 1))
        drawn = block.copy()
        row = law.condition(np.asfortranarray(block))
        expected = drawn[:, 2:].copy()
        for r, first in enumerate(firsts.tolist()):
            for j, col in enumerate(st._SCREEN_COLS):
                u, lo, hi = float(drawn[r, 2 + col]), float(law.lo[first, j]), float(law.hi[first, j])
                expected[r, col] = min(lo + u * (hi - lo), math.nextafter(hi, lo))
                if j > first:
                    assert expected[r, col] == u
        np.testing.assert_array_equal(row, expected)


class TestBenchmarkSurface:
    """The engine names the benchmark in perfbench/ wraps, reads or calls."""

    def test_trial_uniforms_returns_word_blocks(self):
        u = st.trial_uniforms(1, 0, 3, st.STREAM_PAIRS)
        assert u.ndim == 2 and u.dtype == np.float64 and u.shape == (3, st.WORDS_PER_TRIAL)

    def test_drivers_draw_through_the_module_attribute(self, plain_link, monkeypatch):
        rows = []
        original = st.trial_uniforms
        monkeypatch.setattr(st, "trial_uniforms", lambda *a: rows.append(a[2]) or original(*a))
        for run in (
            lambda: st.simulate_link_fringe(plain_link, 0.0, trials_per_theta=10_000, seed=1),
            lambda: st.simulate_link_pairs(plain_link, 0.0, trials=120_000, seed=1),
            lambda: st.simulate_link_correlation(plain_link, 0.0, trials=120_000, seed=1),
        ):
            rows.clear()
            run()
            assert sum(rows) > 0

    @pytest.mark.parametrize("name", ["simulate_link_fringe", "simulate_link_pairs", "simulate_link_correlation"])
    def test_drivers_keep_an_int_chunk_size_default(self, name):
        default = inspect.signature(getattr(st, name)).parameters["chunk_size"].default
        assert type(default) is int and default >= 1


def dense_rows(seed: int, key: int, count: int) -> np.ndarray:
    """Full rows of trials [0, count): every trial's 22 words, straight from the raw Philox stream of ``key``."""
    width = st.WORDS_PER_TRIAL - 2  # a row is words 2-23 of a candidate's block
    return philox_words(seed, key, width * count).reshape(count, width)


def mode_records(setup: LinkConfig, t: float, *, trials_per_theta: int, theta_points: int, trials: int, **kw):
    """Fringe, pair and correlation records of one setup; kw (seed, chunk_size) goes to every driver."""
    return (
        st.simulate_link_fringe(setup, t, trials_per_theta=trials_per_theta, theta_points=theta_points, **kw),
        st.simulate_link_pairs(setup, t, trials=trials, **kw),
        st.simulate_link_correlation(setup, t, trials=trials, **kw),
    )


def dense_records(setup: LinkConfig, t: float, **kw):
    """``mode_records`` with every trial a candidate: the dense oracle of the engine's candidate-only drivers.

    Each driver runs as it is, except that ``_tally`` makes one call of its
    kernels and tallies, on a full row for every trial, with no candidate
    screening. The rows come from keys no mode uses.
    """

    def dense_tally(proto, seed, stream, total, chunk_size, part):
        return part(np.arange(total), dense_rows(seed, DENSE_KEY + stream, total))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(st, "_tally", dense_tally)
        return mode_records(setup, t, **kw)


def tally_cells(fringe: st.CountsRecord, pairs: st.CountsRecord, correlation: st.CountsRecord) -> dict:
    """Every tally cell of the three records as (count, trials); each count is a sum of per-trial indicators."""
    per_bin = fringe.n_trials // len(fringe.theta_bins)
    cells = {"as1": (fringe.n_as1_clicks, fringe.n_trials)}
    for i, (b, alt) in enumerate(zip(fringe.theta_bins, fringe.theta_bins_alt)):
        for name, k in (("her", b.n_heralds), ("coin", b.n_coincidence), ("her_alt", alt.n_heralds),
                        ("coin_alt", alt.n_coincidence)):
            cells[f"bin{i}.{name}"] = (k, per_bin)
    for name, k in dataclasses.asdict(pairs.pij_counts).items():
        cells[name] = (k, pairs.pair_trials)
    for c, channel in enumerate(correlation.correlation):
        for name in ("n_stokes", "n_anti_stokes", "n_coincidence"):
            cells[f"channel{c}.{name}"] = (getattr(channel, name), channel.n_pulses)
    return cells


class TestHeraldFirst:
    """Drawing words only for candidate trials leaves every tally's law as the dense oracle's.

    Engine and oracle draw from different keys, so each of the 59 tally
    cells (49 fringe, 4 pair, 6 correlation) of each of the 16 configs is
    compared by the exact conditional test of two binomial counts over equal
    trials: Fisher's, given their sum. The family-wise level of the 944
    tests is alpha = erfc(3/sqrt(2)) = 0.0027, fixed before the test was run
    and split by Bonferroni: every test has p >= alpha/944.
    """

    ALPHA = math.erfc(3.0 / math.sqrt(2.0))
    TESTS = 16 * 59
    PER_THETA, TRIALS = 4000, 30_000  # fringe trials per theta bin; pair and correlation trials

    @staticmethod
    def link(chi_a: float, chi_b: float, topology: Topology, jitter: float) -> LinkConfig:
        def node(chi):
            # background raised tenfold so that trials without a pair click often
            return EnsembleParams(chi=chi, gamma_0=0.76, decay=ExponentialEfficiency(0.41), xi_se=0.26,
                                  z_noise=3e-3, eta=0.4, mu_prime=5000.0)

        return LinkConfig(node_l=node(chi_a), node_r=node(chi_b),
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
        t = 5e-3
        runs = dict(trials_per_theta=self.PER_THETA, theta_points=12, trials=self.TRIALS, seed=61)
        dense = dense_records(setup, t, **runs)
        assert dense[0].n_as1_clicks > 0 and dense[2].correlation[0].n_anti_stokes > 0
        # at most 7001 candidates per kernel call, so calls end inside theta bins
        engine = mode_records(setup, t, chunk_size=7001, **runs)
        cells, oracle = tally_cells(*engine), tally_cells(*dense)
        assert len(cells) == self.TESTS // 16
        p = {name: fisher_exact([[k, n - k], [oracle[name][0], n - oracle[name][0]]]).pvalue
             for name, (k, n) in cells.items()}
        worst = min(p, key=p.get)
        assert p[worst] >= self.ALPHA / self.TESTS, (worst, cells[worst], oracle[worst], p[worst])


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
                              z_noise=3e-3, eta=self.ETA, mu_prime=0.0)
        return st._protocol(link_at(node, 0.0), 0.0)

    @staticmethod
    def rows(cells: list[dict[int, float]]) -> np.ndarray:
        """One row per {column: uniform}; every other word clicks nothing and both arms hold no pair."""
        u = np.full((len(cells), st.WORDS_PER_TRIAL - 2), 0.99)  # words 2-23 of a block
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
        c, eta, gamma = self.COLS[arm], self.ETA, proto.arms[0].gamma
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
        p = proto.arms[0].se_noise if channel == "se" else proto.arms[0].z_noise
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

    @pytest.mark.parametrize("pairs", [{"a": 2}, {"a": 1, "b": 1}], ids=["n_a=2", "n_a=n_b=1"])
    def test_heralded_two_pairs_are_incoherent(self, proto, pairs):
        # two pairs behind a D_S1 click are not the single-excitation
        # superposition: fringe mode reads the retrieved photon's port word
        # and ignores the coherent word
        c = self.COLS["a"]
        cell = {self.COLS[arm]["n"]: self.PAIRS[n] for arm, n in pairs.items()}
        cell |= {c["stokes"][0]: 0.0, c["retrieve"][0]: 0.0}
        u = self.rows([{**cell, c["port"][0]: port, st._COL_COHERENT: coh} for port, coh in ((0.0, 0.99), (0.99, 0.0))])
        (s1, _, c1), herald, _, _ = self.kernels(proto, u)
        np.testing.assert_array_equal(s1, [True, True])
        np.testing.assert_array_equal(herald, [True, True])
        np.testing.assert_array_equal(c1, [True, False])


class TestSingleEnsembleTrial:
    def test_matched_pairing_immune_to_field_noise(self, measured_pair):
        # same magnetic character in both modes: the shared field cancels
        # exactly, so runs at different widths are bit-identical
        records = []
        for sigma_b in (0.0, 4e-3):
            node = measured_pair.node_r
            pair = LinkConfig(node, node, NoiseField(sigma_b=sigma_b, topology=Topology.SHARED), zeta=0.85)
            records.append(st.simulate_link_fringe(pair, 50e-6, trials_per_theta=20_000, seed=13))
        assert records[0] == records[1]

    def test_mixed_pairing_damps_by_e_at_tau0(self, measured_pair, lattice_node):
        # the mode pair, and a shared-supply link whose arms differ in mu':
        # one field sample dephases both with |mu'_a - mu'_b| sigma_b
        shared_link = LinkConfig(
            node_l=dataclasses.replace(lattice_node, mu_prime=0.0),
            node_r=dataclasses.replace(lattice_node, mu_prime=5000.0),
            noise=NoiseField(sigma_b=2e-3, topology=Topology.SHARED), zeta=0.85,
        )
        for setup in (measured_pair, shared_link):
            tau_0 = model.link_curves(setup, 0.0).tau_0
            delta_mu = abs(setup.node_l.mu_prime - setup.node_r.mu_prime)
            assert tau_0 == 1.0 / (2.0 * math.pi * delta_mu * setup.noise.sigma_b)
            rec = st.simulate_link_fringe(setup, tau_0, trials_per_theta=150_000, seed=37)
            vis = st.estimate_visibility(rec)
            expected = float(model.link_curves(setup, tau_0).visibility)
            assert_within_se(vis.value, expected, vis.std_error)

    def test_zero_time_pairings_identical(self, measured_pair):
        # at t = 0 no phase has accumulated: with equal contrast the mixed
        # and matched pairings generate identical statistics (same draws)
        mixed = dataclasses.replace(measured_pair, xi_prime=1.0)
        # arm a keeps its own write/read parameters and stores an MFS coherence
        mfs_a = dataclasses.replace(measured_pair.node_l, mu_prime=BOHR_MAGNETON_HZ_PER_G)
        matched = dataclasses.replace(measured_pair, node_l=mfs_a, xi_prime=1.0)
        a = st.simulate_link_fringe(mixed, 0.0, trials_per_theta=20_000, seed=2)
        b = st.simulate_link_fringe(matched, 0.0, trials_per_theta=20_000, seed=2)
        assert a == b


class TestEstimators:
    @staticmethod
    def synthetic_record(v: float, n_per_bin: int = 10**14, offset: float = 0.25) -> st.CountsRecord:
        thetas = st._thetas(12)
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
        bins = [st.ThetaBin(float(th), 0, 1 if i else 0) for i, th in enumerate(st._thetas(12))]
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
        u = philox_words(5, FREE_STREAM, 1_000_000)
        vals = np.cos(2.0 * np.pi * mu * st._lorentzian(sigma, u) * t)
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
