"""Shot-by-shot Monte-Carlo engine for the heralded-entanglement protocols.

The engine simulates the write/herald/store/read cycle trial by trial and
estimates visibility, cross-correlation, conditional pair probabilities and
concurrence from the resulting counts. It is deliberately independent of
the closed-form layer in :mod:`dlcz_link.model`: the only physics it shares
are the per-trial ingredient probabilities (thermal pair statistics
truncated at two pairs per node, retrieval/noise/background channels,
Lorentzian field samples), so the two layers cross-check each other.

Only candidate trials draw randomness. A candidate is a trial whose row
can add to a tally: one holding a pair in either arm (n_a >= 1 or n_b >= 1)
or with a noise uniform below ``noise_max``, the largest noise click
probability of any kernel. Any other trial can neither herald nor retrieve
and clicks nowhere, so skipping it changes no tally. With a_c the live
probability of screen word c (1 - P(n = 0) for the two pair numbers,
``noise_max`` for the four noise words), a trial is a candidate with
probability q = 1 - prod_c (1 - a_c), about 2 chi, independently of the
others.

Candidate k of a run reads words 24k..24k+23 of its mode's PCG64DXSM stream
(``trial_uniforms``; the DXSM output function of O'Neill's PCG family,
HMC-CS-2014-0905, 2014, whose ``advance`` reaches word 24k in O(log k)
steps). Word 0 is its gap G ~ Geometric(q) past the previous candidate, so
candidates fall on the trials of iid Bernoulli(q) screens (geometric
skipping; Devroye, *Non-Uniform Random Variate Generation*, 1986). Word 1
picks its first live screen word J, with probability a_J prod_{i<J}
(1 - a_i) / q. Words 2-23 are its row: screen words before J are mapped
onto their dead region, the one at J onto its live region, and the rest
used as drawn, so the row has the law of a full row given that the trial
is a candidate. Records are bit-identical for a given seed whatever the
chunk size, and the engine runs on the calling thread.

A block of candidates is column-major: each word column is contiguous, so
the conditioning and the kernels read whole columns at unit stride. The
layout is in memory only: every word keeps its value in the stream order.

Three measurement modes mirror the three detector configurations of the
experiment, one ``simulate_link_*`` function each:

* fringe mode - both Stokes and anti-Stokes outputs mixed on beam
  splitters; conditional coincidences versus the scanned phase (the
  ``_thetas`` grid) give V;
* pair-count mode - Stokes mixed (heralding), anti-Stokes per channel;
  conditional two-channel tallies give p_ij;
* correlation mode - nothing mixed; per-channel singles and coincidences
  give the cross-correlation g.

Each takes one two-arm :class:`~dlcz_link.params.LinkConfig`, whose arms
are two nodes or two modes of one cloud, and evaluates each arm once per
run into one ``_Arm``: its physics at the storage time, the thresholds of
its pair number and its word columns, which is all a kernel reads of an
arm. The stochastic phase is 2 pi t (mu'_a dB_a - mu'_b dB_b) with
Lorentzian field samples (``_lorentzian``) of width sigma_b: independent
per arm for independent supplies (the coherence decays with
tau_0 = 1/(2 pi (mu'_a + mu'_b) sigma_b)), one shared sample for a shared
supply or one ensemble (tau_0 = 1/(2 pi |mu'_a - mu'_b| sigma_b)).

Only the heralded single-excitation component interferes coherently;
multi-pair components, retrieval noise and backgrounds pick beam-splitter
ports at random (phase-incoherent, additive), and the retrieval-noise
channel fires per node with the trial-averaged probability
chi (1 - gamma(t)) xi_se, uncorrelated with the herald. Every mode applies
one anti-Stokes click rule to these photons: a photon clicks with its
probability times that of reaching the detector, eta per channel unmixed
and eta/2 behind the fringe-mode splitter.

scipy is imported only by the path that needs it: the Gaussian quantile of
the phase jitter, in fringe runs with ``jitter_rms > 0``.
"""

from __future__ import annotations

import copy
import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass, field, fields

import numpy as np

from . import model
from .params import EnsembleParams, LinkConfig, Topology

__all__ = [
    "WORDS_PER_TRIAL",
    "ThetaBin",
    "PairCounts",
    "ChannelTallies",
    "CountsRecord",
    "VisibilityEstimate",
    "CorrelationEstimate",
    "CountsStatistics",
    "trial_uniforms",
    "simulate_link_fringe",
    "simulate_link_pairs",
    "simulate_link_correlation",
    "merge_counts",
    "estimate_visibility",
    "estimate_cross_correlation",
    "estimate_statistics",
]

#: Words per candidate: its gap, its first live screen column and its row,
#: the columns ``trial_uniforms`` returns.
WORDS_PER_TRIAL = 24


@dataclass(frozen=True)
class _Cols:
    """One arm's columns of a candidate's row, words 2-23 of its block; a pair's words are indexed by its slot k."""

    n: int  # pair number
    stokes: tuple[int, int]  # Stokes port
    field: int  # Lorentzian field sample
    retrieve: tuple[int, int]
    port: tuple[int, int]  # anti-Stokes port
    se: int  # retrieval noise
    bg: int  # background


# column map of a candidate's row: each arm's words, then the coherent-click and jitter words
_ARM_COLS = (
    _Cols(n=0, stokes=(2, 3), field=6, retrieve=(9, 10), port=(13, 14), se=17, bg=19),
    _Cols(n=1, stokes=(4, 5), field=7, retrieve=(11, 12), port=(15, 16), se=18, bg=20),
)
_COL_COHERENT = 8
_COL_JITTER = 21
# the screen columns, in the order of the first-live-column law
_SCREEN_COLS = tuple(getattr(cols, name) for name in ("n", "se", "bg") for cols in _ARM_COLS)
# a candidate's block: gap word, first-live-column word, then its row
_WORD_GAP = 0
_WORD_FIRST = 1
_BLOCK_SCREENS = [2 + c for c in _SCREEN_COLS]

# stream ids: mode m draws from the stream _bit_generator(seed, m)
STREAM_FRINGE = 0
STREAM_PAIRS = 1
STREAM_CORRELATION = 2

_MAX_ROWS = 1 << 13  # candidates per block (1.5 MB); bounds a run's peak memory and the kernels' temporaries
_FILL_ROWS = 1 << 10  # candidates per fill; bounds the row-major staging buffer


def _bit_generator(seed: int, stream: int) -> np.random.PCG64DXSM:
    """Start of the word stream of mode ``stream``: PCG64DXSM seeded by SeedSequence(seed, spawn_key=(stream,))."""
    return np.random.PCG64DXSM(np.random.SeedSequence(seed, spawn_key=(stream,)))


def trial_uniforms(seed: int, start: int, count: int, stream: int) -> np.ndarray:
    """Word blocks of candidates [start, start+count) of a run, shape (count, 24), column-major.

    Candidate k reads words 24k..24k+23 of its mode's stream, reached by one
    ``advance(24 start)``, so any split of a run into calls reproduces the
    same blocks bit for bit. The block is Fortran-ordered, each word column
    contiguous; it is filled from one generator ``_FILL_ROWS`` rows at a
    time, so the values are those of one row-major draw and the staging
    buffer stays small.
    """
    if start < 0 or count < 0:
        raise ValueError("start and count must be >= 0")
    # int(): PCG64DXSM.advance overflows on a numpy integer
    gen = np.random.Generator(_bit_generator(seed, stream).advance(WORDS_PER_TRIAL * int(start)))
    out = np.empty((count, WORDS_PER_TRIAL), order="F")
    for lo in range(0, count, _FILL_ROWS):
        hi = min(lo + _FILL_ROWS, count)
        out[lo:hi] = gen.random((hi - lo, WORDS_PER_TRIAL))
    return out


@dataclass(frozen=True)
class _ScreenLaw:
    """Where candidates fall and what their screen words are, for one protocol.

    ``q`` is the candidate probability, and ``cum`` the cumulative weights
    a_j prod_{i<j} (1 - a_i) of the first live screen column, which sum
    to q. Row J of ``lo``/``hi`` is the region [lo, hi) each
    screen word is mapped onto when J is the first live column: the dead
    region before J, the live region at J, and [0, 1) after it. ``width``
    (hi - lo) and ``guard`` (the largest double below hi) are tabulated
    with them, so ``condition`` gathers them per candidate.
    """

    q: float
    cum: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    width: np.ndarray
    guard: np.ndarray

    def trials(self, gap_words: np.ndarray, first: int, total: int) -> np.ndarray:
        """Trial indices of consecutive candidates from trial ``first`` on, given their gap words."""
        log_miss = math.log1p(-self.q) if self.q < 1.0 else -math.inf  # ln(1 - q)
        # G = floor(ln(1 - u) / ln(1 - q)) ~ Geometric(q), clamped before the int64 cast;
        # at a subnormal q the quotient overflows to inf, which the clamp takes
        with np.errstate(over="ignore"):
            gaps = np.minimum(np.floor(np.log1p(-gap_words) / log_miss), total).astype(np.int64)
        return first - 1 + np.cumsum(gaps + 1)

    def condition(self, block: np.ndarray) -> np.ndarray:
        """Map each candidate's screen words onto their law given its first live column; returns its row.

        Screen word j is rewritten only in the rows whose first live column
        J is at least j: past J its region is [0, 1), where 0 + u 1 is u and
        the guard 1 - 2^-53 never binds, so the drawn word is its own image.
        """
        # u q at or above q would pick a column past the last one of positive weight
        u = np.minimum(block[:, _WORD_FIRST] * self.q, np.nextafter(self.q, 0.0))
        # J counts cum[:-1] at or below u, which is searchsorted(cum, u, "right") as u <= nextafter(q, 0) < q = cum[-1]
        first = np.sum([u >= c for c in self.cum[:-1]], axis=0, dtype=np.intp)
        for j, col in enumerate(_BLOCK_SCREENS):
            rows = np.flatnonzero(first >= j) if j else slice(None)
            at, words = first[rows], block[:, col]  # words: a view of the column, written in place
            # 1-D gathers from column j's tables; the guard keeps a product rounded up to hi inside [lo, hi)
            words[rows] = np.minimum(self.lo[:, j][at] + words[rows] * self.width[:, j][at], self.guard[:, j][at])
        return block[:, 2:]


def _screen_law(proto: _Protocol) -> _ScreenLaw:
    """Live and dead regions of the six screen words, and the law of the first live one.

    A pair-number word is live at or above P(n = 0), a noise word below
    ``noise_max``, the largest noise click probability of any kernel.
    """
    a, b = proto.arms
    noise_max = max(p * arm.eta for arm in proto.arms for p in (arm.se_noise, arm.z_noise))
    live = np.array([(a.p0, 1.0), (b.p0, 1.0)] + [(0.0, noise_max)] * 4)
    dead = np.array([(0.0, a.p0), (0.0, b.p0)] + [(noise_max, 1.0)] * 4)
    width = live[:, 1] - live[:, 0]  # a_c
    cum = np.cumsum(width * np.cumprod(np.concatenate(([1.0], 1.0 - width[:-1]))))
    first, j = np.indices((len(_SCREEN_COLS),) * 2)  # [J, j]: screen word j when J is the first live one
    region = np.where((j < first)[..., None], dead, np.where((j == first)[..., None], live, [0.0, 1.0]))
    lo, hi = region[..., 0], region[..., 1]
    return _ScreenLaw(float(cum[-1]), cum, lo, hi, hi - lo, np.nextafter(hi, lo))


def _tally(
    proto: _Protocol,
    seed: int,
    stream: int,
    total: int,
    chunk_size: int,
    part: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Sum of the int64 tallies part(trial indices, rows) over the candidates among trials [0, total).

    part sees at most min(chunk_size, 2^13) candidates per call, and runs at
    least once, even on a run without candidates. Each call draws about the
    candidates expected in the trials left, plus four standard deviations.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    law = _screen_law(proto)
    cap = min(chunk_size, _MAX_ROWS)
    tally = 0
    rank, first = 0, 0  # the next candidate's rank, and the first trial it may fall on
    while True:
        mean = law.q * (total - first)
        count = min(cap, math.ceil(mean + 4.0 * math.sqrt(mean)))
        block = trial_uniforms(seed, rank, count, stream)
        trials = law.trials(block[:, _WORD_GAP], first, total)
        n = int(np.searchsorted(trials, total))  # candidates before the run's end
        tally += part(trials[:n], law.condition(block[:n]))
        del block  # free this block before the next one is drawn
        if n < count or count == 0:
            return tally
        rank, first = rank + count, int(trials[-1]) + 1


@dataclass(frozen=True)
class _Arm:
    """One arm of a protocol at a fixed storage time: its physics, its pair-number thresholds and its word columns."""

    chi: float
    p0: float  # P(n = 0) of its pair number n, P(n) proportional to chi^n up to n = 2
    p1: float  # P(n <= 1)
    gamma: float
    se_noise: float  # trial-averaged retrieval-noise emission probability chi (1 - gamma) xi_se, additive per node
    z_noise: float
    eta: float
    mu_prime: float
    cols: _Cols  # its words of a candidate's row


def _arm(node: EnsembleParams, t: float, cols: _Cols) -> _Arm:
    gamma = float(model.retrieval_efficiency(node.gamma_0, node.decay, t))
    norm = 1.0 + node.chi + node.chi * node.chi
    return _Arm(
        chi=node.chi,
        p0=1.0 / norm,
        p1=1.0 / norm + node.chi / norm,
        gamma=gamma,
        se_noise=node.chi * (1.0 - gamma) * node.xi_se,
        z_noise=node.z_noise,
        eta=node.eta,
        mu_prime=node.mu_prime,
        cols=cols,
    )


@dataclass(frozen=True)
class _Protocol:
    """Fully evaluated two-arm trial description at one storage time: ``arms`` is arm a and arm b, one ``_Arm`` each."""

    arms: tuple[_Arm, _Arm]
    sigma_b: float
    shared_field: bool
    time: float
    contrast: float  # fringe-contrast multiplier zeta xi'
    jitter_rms: float  # rad


def _protocol(setup: LinkConfig, t: float, *, shared_detectors: bool = False) -> _Protocol:
    """Two-arm protocol of a link (arms = nodes or modes of one ensemble).

    ``shared_detectors`` marks a mode whose arms share detectors (fringe
    and pair-count modes); their per-arm detection efficiencies must agree.
    """
    if t < 0.0:
        raise ValueError("storage time t must be >= 0")
    if shared_detectors:
        model.shared_detector_eta(setup)
    return _Protocol(
        arms=tuple(_arm(node, t, cols) for node, cols in zip((setup.node_l, setup.node_r), _ARM_COLS)),
        sigma_b=setup.noise.sigma_b,
        shared_field=setup.noise.topology is Topology.SHARED,
        time=t,
        contrast=setup.zeta * setup.xi_prime,
        jitter_rms=setup.residual_phase_jitter,
    )


# ---------------------------------------------------------------------------
# vectorized trial kernels


def _lorentzian(sigma: float, u: np.ndarray) -> np.ndarray:
    """Quantile transform: sigma * tan(pi (u - 1/2)) for u uniform in (0, 1).

    Samples are never truncated: downstream use is through bounded
    trigonometric functions, so the heavy tails are harmless. The width is
    a :class:`~dlcz_link.params.NoiseField`'s, which rejects negative ones.
    """
    return sigma * np.tan(np.pi * (u - 0.5))


def _stokes_side(arm: _Arm, u: np.ndarray):
    """One arm's pair number and its Stokes clicks at the two ports of the 50/50 splitter (threshold detectors)."""
    u_n = u[:, arm.cols.n]
    n = (u_n >= arm.p0).astype(np.int8) + (u_n >= arm.p1).astype(np.int8)
    half = 0.5 * arm.eta
    s1 = np.zeros(n.shape, dtype=bool)
    s2 = np.zeros(n.shape, dtype=bool)
    for k, col in enumerate(arm.cols.stokes):
        exists = n > k
        uu = u[:, col]
        s1 |= exists & (uu < half)
        s2 |= exists & (uu >= half) & (uu < arm.eta)
    return n, s1, s2


def _anti_stokes(arm: _Arm, n: np.ndarray, u: np.ndarray, port: float, live=True):
    """One arm's anti-Stokes clicks through a detector port of probability ``port`` (eta, or eta/2 mixed).

    A retrieved photon (per pair, retrieval uniform below gamma) clicks when
    its port uniform is below ``port``, a noise photon when its uniform is
    below its emission probability times ``port``. ``live`` masks the
    retrieved photons that click this way; the noise channels always count.
    """
    cols = arm.cols
    click = np.zeros(n.shape, dtype=bool)
    for k in range(2):
        click |= live & (n > k) & (u[:, cols.retrieve[k]] < arm.gamma) & (u[:, cols.port[k]] < port)
    for col, emit_prob in ((cols.se, arm.se_noise), (cols.bg, arm.z_noise)):
        click |= u[:, col] < emit_prob * port
    return click


def _fringe_batch(proto: _Protocol, theta: np.ndarray, u: np.ndarray):
    """Interference-mode trials; returns the Stokes port flags and D_aS1 clicks."""
    a, b = proto.arms
    eta = a.eta  # equal in both arms, checked once per run by _protocol
    (n_a, s1, s2), (n_b, s1_b, s2_b) = (_stokes_side(arm, u) for arm in proto.arms)
    s1 |= s1_b
    s2 |= s2_b
    heralded_any = s1 | s2

    # Lorentzian field offsets from each arm's field word; one shared draw when wired in series
    db_a = _lorentzian(proto.sigma_b, u[:, a.cols.field])
    db_b = db_a if proto.shared_field else _lorentzian(proto.sigma_b, u[:, b.cols.field])
    phase = 2.0 * np.pi * proto.time * (a.mu_prime * db_a - b.mu_prime * db_b) + theta
    if proto.jitter_rms > 0.0:
        # imported here: scipy.special costs ~0.2 s to load, paid only by jittered runs
        from scipy.special import ndtri

        phase = phase + proto.jitter_rms * ndtri(u[:, _COL_JITTER])

    total = n_a + n_b
    # only a heralded single excitation is projected onto the two-arm
    # superposition and interferes with itself; an unheralded one sits in a
    # definite arm and splits incoherently like every other photon
    coherent = heralded_any & (total == 1)
    incoherent = ~coherent
    sign = np.where(s1, 1.0, -1.0)
    w_a = a.chi * a.gamma
    w_b = b.chi * b.gamma
    w_sum = max(a.chi + b.chi, np.finfo(float).tiny)
    base = w_a + w_b
    cross = 2.0 * proto.contrast * math.sqrt(w_a * w_b)
    p1 = eta * (base + sign * cross * np.cos(phase)) / (2.0 * w_sum)
    click1 = coherent & (u[:, _COL_COHERENT] < p1)

    # every other retrieved photon, and every noise photon, picks a port at random
    for arm, n in zip(proto.arms, (n_a, n_b)):
        click1 |= _anti_stokes(arm, n, u, 0.5 * eta, incoherent)
    return s1, s2, click1


def _unmixed(proto: _Protocol, u: np.ndarray):
    """Per arm, no output mixing: its two Stokes port clicks and its anti-Stokes click."""
    out = []
    for arm in proto.arms:
        n, s1, s2 = _stokes_side(arm, u)
        out.append((s1, s2, _anti_stokes(arm, n, u, arm.eta)))
    return out


def _pair_batch(proto: _Protocol, u: np.ndarray):
    """Pair-count mode: mixed Stokes herald, per-channel anti-Stokes clicks."""
    (s1_a, _, click_a), (s1_b, _, click_b) = _unmixed(proto, u)
    return s1_a | s1_b, click_a, click_b


def _correlation_batch(proto: _Protocol, u: np.ndarray):
    """Correlation mode: per-channel Stokes and anti-Stokes clicks."""
    # unmixed, a channel's Stokes click is either port's: u < eta
    return [(s1 | s2, click) for s1, s2, click in _unmixed(proto, u)]


# ---------------------------------------------------------------------------
# counts containers


@dataclass(frozen=True)
class ThetaBin:
    """One fringe bin: scanned phase, coincidences and heralds behind them."""

    theta: float
    n_coincidence: int
    n_heralds: int


@dataclass(frozen=True)
class PairCounts:
    """Conditional (i, j) anti-Stokes tallies over the two retrieval channels."""

    n00: int
    n01: int
    n10: int
    n11: int

    @property
    def total(self) -> int:
        return self.n00 + self.n01 + self.n10 + self.n11


@dataclass(frozen=True)
class ChannelTallies:
    """Unconditional per-channel tallies for the cross-correlation estimate."""

    n_pulses: int
    n_stokes: int
    n_anti_stokes: int
    n_coincidence: int


@dataclass
class CountsRecord:
    """Monte-Carlo tallies from which V, g, p_ij and C are estimated.

    ``theta_bins`` holds D_S1-heralded fringe tallies, ``theta_bins_alt``
    the D_S2-heralded ones (fringe flipped by pi). ``pij_counts`` are the
    conditional two-channel tallies over ``pair_trials`` trials with
    ``pair_heralds`` heralds, and ``correlation`` the per-channel tallies
    of the unmixed run.

    Records merge (:func:`merge_counts`) field by field: ints add, ``None``
    or an empty bin list is an absent family and counts as empty, lists and
    tuples add element by element, and a bin keeps its ``theta``; grids
    whose thetas or bin counts differ cannot be merged.
    """

    n_trials: int = 0
    n_heralds: int = 0
    n_as1_clicks: int = 0  # unconditional D_aS1 clicks over the fringe trials
    theta_bins: list[ThetaBin] = field(default_factory=list)
    theta_bins_alt: list[ThetaBin] = field(default_factory=list)
    pair_trials: int = 0
    pair_heralds: int = 0
    pij_counts: PairCounts | None = None
    correlation_trials: int = 0
    correlation: tuple[ChannelTallies, ChannelTallies] | None = None

    def __post_init__(self) -> None:
        if self.n_heralds > self.n_trials:
            raise ValueError("herald count exceeds trial count")
        if self.theta_bins:
            if sum(b.n_heralds for b in self.theta_bins) != self.n_heralds:
                raise ValueError("per-bin herald counts must sum to n_heralds")
            for b in self.theta_bins + self.theta_bins_alt:
                if b.n_coincidence > b.n_heralds:
                    raise ValueError("bin has more coincidences than heralds")
        if self.pij_counts is not None and self.pij_counts.total != self.pair_heralds:
            raise ValueError("pair counts must partition the pair-mode heralds")


def merge_counts(a: CountsRecord, b: CountsRecord) -> CountsRecord:
    """Combine two records field by field, by CountsRecord's merge rule."""
    if a is None or isinstance(a, list) and not a:  # an absent family counts as empty
        return copy.copy(b)
    if b is None or isinstance(b, list) and not b:
        return copy.copy(a)
    if isinstance(a, numbers.Integral):
        return a + b
    if isinstance(a, float) and a != b or isinstance(a, (list, tuple)) and len(a) != len(b):
        raise ValueError("theta grids differ; records cannot be merged")
    if isinstance(a, float):  # a bin's theta labels its grid: kept, not added
        return a
    if isinstance(a, (list, tuple)):
        return type(a)(map(merge_counts, a, b))
    return type(a)(**{f.name: merge_counts(getattr(a, f.name), getattr(b, f.name)) for f in fields(a)})


def _thetas(n: int) -> np.ndarray:
    """n equally spaced fringe phases over [0, 2 pi)."""
    if n < 1:
        raise ValueError("need at least one theta bin")
    return np.arange(n) * (2.0 * np.pi / n)


# ---------------------------------------------------------------------------
# batch drivers


def simulate_link_fringe(
    setup: LinkConfig,
    t: float,
    *,
    trials_per_theta: int,
    seed: int,
    theta_points: int = 12,
    chunk_size: int = _MAX_ROWS,
) -> CountsRecord:
    """Fringe-mode run of a two-arm setup over the grid ``_thetas(theta_points)``.

    Trials [i trials_per_theta, (i + 1) trials_per_theta) scan bin i.
    """
    if trials_per_theta < 1:
        raise ValueError("trials_per_theta must be >= 1")
    proto = _protocol(setup, t, shared_detectors=True)
    thetas = _thetas(theta_points)
    total = theta_points * trials_per_theta

    def part(trials: np.ndarray, u: np.ndarray) -> np.ndarray:
        idx = trials // trials_per_theta
        s1, s2, c1 = _fringe_batch(proto, thetas[idx], u)
        # D_S2-only heralds give the phase-flipped fringe; kept disjoint from
        # the primary D_S1 tallies so the two estimates are independent
        alt = s2 & ~s1
        return np.array([np.bincount(idx[f], minlength=theta_points) for f in (s1, s1 & c1, alt, alt & c1, c1)])

    # per bin: D_S1 heralds, their coincidences, D_S2-only heralds, theirs, all D_aS1 clicks
    her, coin, her_alt, coin_alt, as1 = _tally(proto, seed, STREAM_FRINGE, total, chunk_size, part).tolist()
    th = thetas.tolist()
    return CountsRecord(
        n_trials=total,
        n_heralds=sum(her),
        n_as1_clicks=sum(as1),
        theta_bins=list(map(ThetaBin, th, coin, her)),
        theta_bins_alt=list(map(ThetaBin, th, coin_alt, her_alt)),
    )


def simulate_link_pairs(
    setup: LinkConfig, t: float, *, trials: int, seed: int, chunk_size: int = _MAX_ROWS
) -> CountsRecord:
    """Pair-count-mode run of a two-arm setup (conditional p_ij tallies)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    proto = _protocol(setup, t, shared_detectors=True)

    def part(trials: np.ndarray, u: np.ndarray) -> np.ndarray:
        heralded, click_a, click_b = _pair_batch(proto, u)
        return np.bincount(2 * click_a[heralded] + click_b[heralded], minlength=4)

    # channel a is arm a (node_l): index i of p_ij
    n00, n01, n10, n11 = _tally(proto, seed, STREAM_PAIRS, trials, chunk_size, part).tolist()
    return CountsRecord(
        pair_trials=trials, pair_heralds=n00 + n01 + n10 + n11, pij_counts=PairCounts(n00, n01, n10, n11)
    )


def simulate_link_correlation(
    setup: LinkConfig, t: float, *, trials: int, seed: int, chunk_size: int = _MAX_ROWS
) -> CountsRecord:
    """Correlation-mode run of a two-arm setup (per-channel g tallies)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    proto = _protocol(setup, t)

    def part(trials: np.ndarray, u: np.ndarray) -> np.ndarray:
        channels = _correlation_batch(proto, u)
        return np.array([(s.sum(), a.sum(), (s & a).sum()) for s, a in channels], dtype=np.int64)

    # per channel: stokes, anti-stokes, coincidence
    sums = _tally(proto, seed, STREAM_CORRELATION, trials, chunk_size, part)
    return CountsRecord(
        correlation_trials=trials,
        correlation=tuple(ChannelTallies(trials, *row) for row in sums.tolist()),
    )


# ---------------------------------------------------------------------------
# estimators


@dataclass(frozen=True)
class VisibilityEstimate:
    """Fringe visibility |B|/A of the fit A + B cos(theta), with its error."""

    value: float
    std_error: float
    offset: float
    amplitude: float


def estimate_visibility(counts: CountsRecord, *, port: str = "s1") -> VisibilityEstimate:
    """Visibility of the conditional coincidence fringe.

    Least-squares fits A + B cos(theta) to the per-bin conditional rates
    and returns V = |B|/A with the error propagated from per-bin binomial
    counting statistics (lower variance than the fringe extrema).
    """
    if port not in ("s1", "s2"):
        raise ValueError("port must be 's1' or 's2'")
    bins = counts.theta_bins if port == "s1" else counts.theta_bins_alt
    if len(bins) < 8:
        raise ValueError("need at least 8 theta bins spanning [0, 2 pi)")
    span = max(b.theta for b in bins) - min(b.theta for b in bins)
    if span < np.pi:
        raise ValueError("theta bins must span [0, 2 pi)")
    heralds = np.array([b.n_heralds for b in bins], dtype=float)
    if np.any(heralds == 0):
        raise ValueError("every theta bin needs a nonzero herald count")
    coinc = np.array([b.n_coincidence for b in bins], dtype=float)
    rates = coinc / heralds
    thetas = np.array([b.theta for b in bins], dtype=float)
    design = np.column_stack([np.ones_like(thetas), np.cos(thetas)])
    beta, *_ = np.linalg.lstsq(design, rates, rcond=None)
    offset, amplitude = float(beta[0]), float(beta[1])
    if offset <= 0.0:
        raise ValueError("no coincidences recorded; visibility undefined")
    fitted = np.clip(design @ beta, 1e-12, 1.0 - 1e-12)
    var = fitted * (1.0 - fitted) / heralds
    gram_inv = np.linalg.inv(design.T @ design)
    cov = gram_inv @ (design.T * var) @ design @ gram_inv
    # deliberately unclipped: near V ~ 1 a [0, 1] clip would bias the
    # estimator low; consumers needing a physical visibility clip themselves
    value = abs(amplitude) / offset
    grad = np.array([-abs(amplitude) / offset**2, math.copysign(1.0, amplitude) / offset])
    se = float(np.sqrt(grad @ cov @ grad))
    return VisibilityEstimate(value=value, std_error=se, offset=offset, amplitude=amplitude)


@dataclass(frozen=True)
class CorrelationEstimate:
    value: float
    std_error: float


def estimate_cross_correlation(counts: CountsRecord) -> CorrelationEstimate:
    """Cross-correlation g = P_coincidence / (P_stokes P_anti_stokes).

    The tallies of both retrieval channels are pooled, which is valid for a
    symmetric link. The error treats the three tallies as independent
    Poisson counts, adequate in the rare-coincidence regime.
    """
    if counts.correlation is None:
        raise ValueError("record holds no correlation-mode tallies")
    chans = counts.correlation
    pulses = sum(c.n_pulses for c in chans)
    n_s = sum(c.n_stokes for c in chans)
    n_as = sum(c.n_anti_stokes for c in chans)
    n_sas = sum(c.n_coincidence for c in chans)
    if n_s == 0 or n_as == 0 or n_sas == 0:
        raise ValueError("correlation tallies too sparse: zero singles or coincidences")
    g = n_sas * pulses / (n_s * n_as)
    se = g * math.sqrt(1.0 / n_sas + 1.0 / n_s + 1.0 / n_as)
    return CorrelationEstimate(value=float(g), std_error=float(se))


@dataclass(frozen=True)
class CountsStatistics:
    """Counts-derived estimates: g, conditional p_ij, visibility and concurrence."""

    g: float
    g_std_error: float
    p00: float
    p01: float
    p10: float
    p11: float
    visibility: VisibilityEstimate
    concurrence: float
    concurrence_std_error: float


def estimate_statistics(counts: CountsRecord) -> CountsStatistics:
    """All photon-counting estimates in one pass.

    p_ij are conditional on the herald (they partition it exactly), g comes
    from the correlation-mode singles and coincidences, the visibility from
    the fringe fit, and the concurrence feeds all of these into the
    photon-counting formula; its error combines the multinomial covariance
    of the p_ij with the visibility error.
    """
    if counts.pij_counts is None or counts.pair_heralds == 0:
        raise ValueError("record holds no heralded pair-count tallies")
    vis = estimate_visibility(counts)
    corr = estimate_cross_correlation(counts)
    n = counts.pair_heralds
    pij = counts.pij_counts
    p = np.array([pij.n00, pij.n01, pij.n10, pij.n11], dtype=float) / n

    conc = model.concurrence_from_probs(p[0], p[1], p[2], p[3], min(vis.value, 1.0))
    # delta method: C = V(p01+p10) - 2 sqrt(p00 p11) for conditional (sum-1) probs
    root = math.sqrt(p[0] * p[3])
    if root > 0.0:
        grad = np.array([-p[3] / root, vis.value, vis.value, -p[0] / root])
    else:
        grad = np.array([0.0, vis.value, vis.value, 0.0])
    cov = (np.diag(p) - np.outer(p, p)) / n
    var = float(grad @ cov @ grad) + ((p[1] + p[2]) * vis.std_error) ** 2
    return CountsStatistics(
        g=corr.value,
        g_std_error=corr.std_error,
        p00=float(p[0]),
        p01=float(p[1]),
        p10=float(p[2]),
        p11=float(p[3]),
        visibility=vis,
        concurrence=conc,
        concurrence_std_error=math.sqrt(max(var, 0.0)),
    )
