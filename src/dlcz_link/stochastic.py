"""Shot-by-shot Monte-Carlo engine for the heralded-entanglement protocols.

The engine simulates the write/herald/store/read cycle trial by trial and
estimates visibility, cross-correlation, conditional pair probabilities and
concurrence from the resulting counts. It is deliberately independent of
the closed-form layer in :mod:`dlcz_link.model`: the only physics it shares
are the per-trial ingredient probabilities (thermal pair statistics
truncated at two pairs per node, retrieval/noise/background channels,
Lorentzian field samples), so the two layers cross-check each other.

Randomness is counter-based and comes in two kinds of Philox streams,
keyed by ``(seed, stream, column)``. Each trial draws six screen words, one
from each of six one-word-per-trial streams addressed by the trial index:
its pair-number and noise uniforms, which decide whether it is a candidate
(below). Candidate k of a run, counted in trial order over all chunks,
draws the 16 other words of its row as row k of a seventh stream. A trial
that is not a candidate draws nothing more. Results are therefore
bit-identical for a given seed no matter how trials are chunked, scheduled
or parallelized (``chunk_size=1`` runs one trial at a time); accumulation
is plain integer addition and is order-independent.

Each chunk's six screen streams are filled one stream per thread, on up
to six threads when the process may use more than one CPU and the chunk
holds at least 2^15 trials (numpy releases the interpreter lock while it
fills); each stream's generator is advanced to the chunk's first trial, so
no thread touches another's column and the fill is bit-identical to an
inline one. Everything else runs on the calling thread: the candidate
mask, and the candidate-row fill, row kernels and bincounts over blocks of
at most 2^16 candidates, each block's rows drawn from its first rank. The
public functions (``trial_uniforms``, the ``simulate_link_*`` drivers) run
on the calling thread, once per chunk and once per run.

The drivers are herald-first: each chunk runs the row kernels only on its
candidate trials, those holding a pair in either arm (n_a >= 1 or
n_b >= 1, read from the thresholds of the pair-number draw) or with a
noise uniform below the largest noise click probability. A trial without
a pair can neither herald nor retrieve, so it can only click through a
noise channel, and one whose noise uniforms all lie above every noise
probability gives False in every kernel. Since each row depends only on
its own uniforms, skipping those trials leaves every tally as the kernels
give it over all rows, at about 2 chi of the per-row work. The candidate
rows' other words come from a stream independent of the screens, one
distinct row per candidate, so given its screen words every candidate's
row is iid uniform, as a full row drawn per trial would be.

Three measurement modes mirror the three detector configurations of the
experiment, one ``simulate_link_*`` function each:

* fringe mode - both Stokes and anti-Stokes outputs mixed on beam
  splitters; conditional coincidences versus the scanned phase give V;
* pair-count mode - Stokes mixed (heralding), anti-Stokes per channel;
  conditional two-channel tallies give p_ij;
* correlation mode - nothing mixed; per-channel singles and coincidences
  give the cross-correlation g.

Each takes one two-arm :class:`~dlcz_link.params.LinkConfig`, whose arms
are two nodes or two modes of one cloud. The stochastic phase is
2 pi t (mu'_a dB_a - mu'_b dB_b) with Lorentzian field samples of width
sigma_b: independent per arm for independent supplies (the coherence
decays with tau_0 = 1/(2 pi (mu'_a + mu'_b) sigma_b)), one shared sample
for a shared supply or one ensemble (tau_0 = 1/(2 pi |mu'_a - mu'_b| sigma_b)).

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

import math
import os
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import model
from .params import EnsembleParams, LinkConfig, SpinWaveMode, Topology

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
    "lorentzian_from_uniform",
    "simulate_link_fringe",
    "simulate_link_pairs",
    "simulate_link_correlation",
    "merge_counts",
    "estimate_visibility",
    "estimate_cross_correlation",
    "estimate_statistics",
    "default_thetas",
]

#: Screen words per trial: one from each of six one-word-per-trial Philox
#: streams, the columns ``trial_uniforms`` returns.
WORDS_PER_TRIAL = 6

# column map of a candidate's assembled row
_COL_N_A = 0
_COL_N_B = 1
_COL_STOKES_A = (2, 3)
_COL_STOKES_B = (4, 5)
_COL_FIELD_A = 6
_COL_FIELD_B = 7
_COL_COHERENT = 8
_COL_RETRIEVE_A = (9, 10)
_COL_RETRIEVE_B = (11, 12)
_COL_PORT_A = (13, 14)
_COL_PORT_B = (15, 16)
_COL_SE_A = 17
_COL_SE_B = 18
_COL_BG_A = 19
_COL_BG_B = 20
_COL_JITTER = 21
_ROW_WIDTH = 22
# per arm: pair number, Stokes ports, retrieval, anti-Stokes ports, retrieval noise, background
_ARM_COLS_A = (_COL_N_A, _COL_STOKES_A, _COL_RETRIEVE_A, _COL_PORT_A, _COL_SE_A, _COL_BG_A)
_ARM_COLS_B = (_COL_N_B, _COL_STOKES_B, _COL_RETRIEVE_B, _COL_PORT_B, _COL_SE_B, _COL_BG_B)

# the screen columns, in the order of trial_uniforms's columns and of their
# stream keys; a candidate's 16 other words fill _ROW_COLS in order
_SCREEN_COLS = (_COL_N_A, _COL_N_B, _COL_SE_A, _COL_SE_B, _COL_BG_A, _COL_BG_B)
_ROW_COLS = (*range(2, 17), _COL_JITTER)
_ROW_KEY = 7  # key column of the candidate-row stream

# stream ids: mode m keys its seven Philox streams 8 m + column, columns 0-5 and 7
STREAM_FRINGE = 0
STREAM_PAIRS = 1
STREAM_CORRELATION = 2

_MASK64 = (1 << 64) - 1
_DEFAULT_CHUNK = 1 << 18
_MIN_POOL = 1 << 15  # trials below which a pool costs more than it saves
_MAX_ROWS = 1 << 16  # candidates per kernel call; bounds the kernels' temporaries


def _generator(seed: int, stream: int, column: int, blocks: int) -> np.random.Generator:
    """Philox generator keyed by (seed, 8 stream + column), advanced by ``blocks`` 4-word blocks."""
    key = (((8 * stream + column) & _MASK64) << 64) | (seed & _MASK64)
    return np.random.Generator(np.random.Philox(key=key).advance(blocks))


def trial_uniforms(seed: int, start: int, count: int, stream: int = STREAM_FRINGE) -> np.ndarray:
    """Screen words of trials [start, start+count), shape (count, 6), column-major.

    Column c (n_a, n_b, se_a, se_b, bg_a, bg_b) is its own Philox stream,
    one word per trial: row i is word start + i of it, so any chunking
    reproduces the same rows bit for bit.
    """
    if start < 0 or count < 0:
        raise ValueError("start and count must be >= 0")
    out = np.empty((count, WORDS_PER_TRIAL), order="F")

    def fill(c: int) -> None:
        gen = _generator(seed, stream, c, start // 4)
        gen.random(start % 4)  # the words of earlier trials in the first block
        gen.random(out=out[:, c])

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if cpus == 1 or count < _MIN_POOL:
        for c in range(WORDS_PER_TRIAL):
            fill(c)
    else:
        # imported here: concurrent.futures costs ~10 ms to load, paid only by engine runs
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(min(cpus, WORDS_PER_TRIAL)) as pool:
            list(pool.map(fill, range(WORDS_PER_TRIAL)))
    return out


def _candidate_rows(screens: np.ndarray, seed: int, stream: int, rank: int) -> np.ndarray:
    """Full rows of candidates rank, rank+1, ... of the run, given their screen words."""
    rows = np.empty((len(screens), _ROW_WIDTH))
    rows[:, _SCREEN_COLS] = screens
    # 16 words, four Philox blocks, per candidate
    rows[:, _ROW_COLS] = _generator(seed, stream, _ROW_KEY, 4 * rank).random((len(screens), len(_ROW_COLS)))
    return rows


def _tally(
    proto: _Protocol,
    seed: int,
    stream: int,
    total: int,
    chunk_size: int,
    part: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Sum of the int64 tallies part(trial indices, rows) over the candidates of every chunk of [0, total).

    Everything but the screen fill runs on the calling thread; part sees
    at most ``_MAX_ROWS`` candidates per call, and runs at least once per
    chunk, even on one without candidates.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    tally = 0
    rank = 0  # candidates in earlier chunks
    for start in range(0, total, chunk_size):
        u = trial_uniforms(seed, start, min(chunk_size, total - start), stream)
        idx = np.flatnonzero(_candidates(proto, u))
        for lo in range(0, max(len(idx), 1), _MAX_ROWS):
            block = idx[lo : lo + _MAX_ROWS]
            tally += part(start + block, _candidate_rows(u[block], seed, stream, rank + lo))
        rank += len(idx)
        del u  # free this chunk before the next one is drawn
    return tally


@dataclass(frozen=True)
class _ArmPhysics:
    """One retrieval channel at a fixed storage time."""

    chi: float
    gamma: float
    xi_se: float
    z_noise: float
    eta: float
    mu_prime: float

    @property
    def se_noise(self) -> float:
        # trial-averaged retrieval-noise emission probability, additive per node
        return self.chi * (1.0 - self.gamma) * self.xi_se


def _arm(node: EnsembleParams, mode: SpinWaveMode, t: float) -> _ArmPhysics:
    gamma = float(model.retrieval_efficiency(node.gamma_0, node.decay, t))
    return _ArmPhysics(
        chi=node.chi,
        gamma=gamma,
        xi_se=node.xi_se,
        z_noise=node.z_noise,
        eta=node.eta,
        mu_prime=mode.mu_prime,
    )


@dataclass(frozen=True)
class _Protocol:
    """Fully evaluated two-arm trial description at one storage time."""

    arm_a: _ArmPhysics
    arm_b: _ArmPhysics
    sigma_b: float
    shared_field: bool
    time: float
    contrast: float  # fringe-contrast multiplier zeta xi'
    jitter_rms: float  # rad


def _protocol(setup: LinkConfig, t: float) -> _Protocol:
    """Two-arm protocol of a link (arms = nodes or modes of one ensemble)."""
    if t < 0.0:
        raise ValueError("storage time t must be >= 0")
    return _Protocol(
        arm_a=_arm(setup.node_l, setup.mode_l, t),
        arm_b=_arm(setup.node_r, setup.mode_r, t),
        sigma_b=setup.noise.sigma_b,
        shared_field=setup.noise.topology is Topology.SHARED,
        time=t,
        contrast=setup.zeta * setup.xi_prime,
        jitter_rms=setup.residual_phase_jitter,
    )


# ---------------------------------------------------------------------------
# vectorized trial kernels


def lorentzian_from_uniform(sigma: float, u: np.ndarray) -> np.ndarray:
    """Quantile transform: sigma * tan(pi (u - 1/2)) for u uniform in (0, 1).

    Samples are never truncated: downstream use is through bounded
    trigonometric functions, so the heavy tails are harmless.
    """
    if sigma < 0.0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0.0:
        return np.zeros_like(u)
    return sigma * np.tan(np.pi * (u - 0.5))


def _thermal_thresholds(chi: float) -> tuple[float, float]:
    """Uniform thresholds P(n = 0) and P(n <= 1) of the pair-number law."""
    norm = 1.0 + chi + chi * chi
    p0 = 1.0 / norm
    return p0, p0 + chi / norm


def _thermal_counts(u: np.ndarray, chi: float) -> np.ndarray:
    """Pair number per trial: P(n) proportional to chi^n, truncated at n = 2."""
    p0, p1 = _thermal_thresholds(chi)
    return (u >= p0).astype(np.int8) + (u >= p1).astype(np.int8)


def _candidates(proto: _Protocol, screens: np.ndarray) -> np.ndarray:
    """Mask of the trials whose rows can add to a tally, from their screen words.

    A trial with a pair in neither arm can neither herald nor retrieve: it
    clicks only through a noise channel whose uniform lies below the
    channel's click probability, and no kernel gives a noise channel more
    than ``noise_max`` (fringe mode halves it). Such a trial with every
    noise uniform at or above ``noise_max`` is False in every kernel output.
    """
    a, b = proto.arm_a, proto.arm_b
    noise_max = max(p * arm.eta for arm in (a, b) for p in (arm.se_noise, arm.z_noise))
    # screen columns: n_a, n_b, then the four noise uniforms
    live = screens[:, 0] >= _thermal_thresholds(a.chi)[0]
    live |= screens[:, 1] >= _thermal_thresholds(b.chi)[0]
    for col in range(2, WORDS_PER_TRIAL):
        live |= screens[:, col] < noise_max
    return live


def _stokes_ports(u: np.ndarray, n: np.ndarray, cols: tuple[int, int], eta: float):
    """Per-arm Stokes clicks behind the 50/50 splitter (threshold detectors)."""
    half = 0.5 * eta
    s1 = np.zeros(n.shape, dtype=bool)
    s2 = np.zeros(n.shape, dtype=bool)
    for k, col in enumerate(cols):
        exists = n > k
        uu = u[:, col]
        s1 |= exists & (uu < half)
        s2 |= exists & (uu >= half) & (uu < eta)
    return s1, s2


def _field_samples(u: np.ndarray, proto: _Protocol):
    """Lorentzian field offsets per arm; one shared draw when wired in series."""
    db_a = lorentzian_from_uniform(proto.sigma_b, u[:, _COL_FIELD_A])
    if proto.shared_field:
        return db_a, db_a
    return db_a, lorentzian_from_uniform(proto.sigma_b, u[:, _COL_FIELD_B])


def _anti_stokes(arm: _ArmPhysics, n: np.ndarray, u: np.ndarray, cols: tuple, port: float, live=True):
    """One arm's anti-Stokes clicks through a detector port of probability ``port`` (eta, or eta/2 mixed).

    A retrieved photon (per pair, retrieval uniform below gamma) clicks when
    its port uniform is below ``port``, a noise photon when its uniform is
    below its emission probability times ``port``. ``live`` masks the
    retrieved photons that click this way; the noise channels always count.
    """
    _, _, rcols, pcols, col_se, col_bg = cols
    click = np.zeros(n.shape, dtype=bool)
    for k in range(2):
        click |= live & (n > k) & (u[:, rcols[k]] < arm.gamma) & (u[:, pcols[k]] < port)
    for col, emit_prob in ((col_se, arm.se_noise), (col_bg, arm.z_noise)):
        click |= u[:, col] < emit_prob * port
    return click


def _fringe_batch(proto: _Protocol, theta: np.ndarray, u: np.ndarray):
    """Interference-mode trials; returns the Stokes port flags and D_aS1 clicks."""
    a, b = proto.arm_a, proto.arm_b
    if a.eta != b.eta:
        raise ValueError(
            "fringe mode shares detectors between arms; per-arm detection "
            "efficiencies must be equal"
        )
    eta = a.eta
    n_a = _thermal_counts(u[:, _COL_N_A], a.chi)
    n_b = _thermal_counts(u[:, _COL_N_B], b.chi)
    s1, s2 = _stokes_ports(u, n_a, _COL_STOKES_A, eta)
    s1_b, s2_b = _stokes_ports(u, n_b, _COL_STOKES_B, eta)
    s1 |= s1_b
    s2 |= s2_b
    heralded_any = s1 | s2

    db_a, db_b = _field_samples(u, proto)
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
    for arm, n, cols in ((a, n_a, _ARM_COLS_A), (b, n_b, _ARM_COLS_B)):
        click1 |= _anti_stokes(arm, n, u, cols, 0.5 * eta, incoherent)
    return s1, s2, click1


def _unmixed(proto: _Protocol, u: np.ndarray):
    """Per arm, no output mixing: its two Stokes port clicks and its anti-Stokes click."""
    out = []
    for arm, cols in ((proto.arm_a, _ARM_COLS_A), (proto.arm_b, _ARM_COLS_B)):
        n = _thermal_counts(u[:, cols[0]], arm.chi)
        out.append((*_stokes_ports(u, n, cols[1], arm.eta), _anti_stokes(arm, n, u, cols, arm.eta)))
    return out


def _pair_batch(proto: _Protocol, u: np.ndarray):
    """Pair-count mode: mixed Stokes herald, per-channel anti-Stokes clicks."""
    a, b = proto.arm_a, proto.arm_b
    if a.eta != b.eta:
        raise ValueError(
            "heralding shares the Stokes detectors between arms; per-arm "
            "detection efficiencies must be equal"
        )
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
    """Combine two records of the same layout (commutative integer adds)."""

    def _merge_bins(x: list[ThetaBin], y: list[ThetaBin]) -> list[ThetaBin]:
        if not x:
            return list(y)
        if not y:
            return list(x)
        if len(x) != len(y) or any(p.theta != q.theta for p, q in zip(x, y)):
            raise ValueError("theta grids differ; records cannot be merged")
        return [
            ThetaBin(p.theta, p.n_coincidence + q.n_coincidence, p.n_heralds + q.n_heralds)
            for p, q in zip(x, y)
        ]

    pij = None
    if a.pij_counts or b.pij_counts:
        pa = a.pij_counts or PairCounts(0, 0, 0, 0)
        pb = b.pij_counts or PairCounts(0, 0, 0, 0)
        pij = PairCounts(pa.n00 + pb.n00, pa.n01 + pb.n01, pa.n10 + pb.n10, pa.n11 + pb.n11)
    corr = None
    if a.correlation or b.correlation:
        ca = a.correlation or (ChannelTallies(0, 0, 0, 0), ChannelTallies(0, 0, 0, 0))
        cb = b.correlation or (ChannelTallies(0, 0, 0, 0), ChannelTallies(0, 0, 0, 0))
        corr = tuple(
            ChannelTallies(
                x.n_pulses + y.n_pulses,
                x.n_stokes + y.n_stokes,
                x.n_anti_stokes + y.n_anti_stokes,
                x.n_coincidence + y.n_coincidence,
            )
            for x, y in zip(ca, cb)
        )
    return CountsRecord(
        n_trials=a.n_trials + b.n_trials,
        n_heralds=a.n_heralds + b.n_heralds,
        n_as1_clicks=a.n_as1_clicks + b.n_as1_clicks,
        theta_bins=_merge_bins(a.theta_bins, b.theta_bins),
        theta_bins_alt=_merge_bins(a.theta_bins_alt, b.theta_bins_alt),
        pair_trials=a.pair_trials + b.pair_trials,
        pair_heralds=a.pair_heralds + b.pair_heralds,
        pij_counts=pij,
        correlation_trials=a.correlation_trials + b.correlation_trials,
        correlation=corr,
    )


def default_thetas(n: int = 12) -> np.ndarray:
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
    thetas: np.ndarray | None = None,
    theta_points: int = 12,
    chunk_size: int = _DEFAULT_CHUNK,
) -> CountsRecord:
    """Fringe-mode run of a two-arm setup over a theta grid."""
    if trials_per_theta < 1:
        raise ValueError("trials_per_theta must be >= 1")
    proto = _protocol(setup, t)
    thetas = default_thetas(theta_points) if thetas is None else np.asarray(thetas, dtype=float)
    n_bins = thetas.size
    total = n_bins * trials_per_theta

    def part(trials: np.ndarray, u: np.ndarray) -> np.ndarray:
        idx = trials // trials_per_theta
        s1, s2, c1 = _fringe_batch(proto, thetas[idx], u)
        # D_S2-only heralds give the phase-flipped fringe; kept disjoint from
        # the primary D_S1 tallies so the two estimates are independent
        alt = s2 & ~s1
        return np.array([np.bincount(idx[f], minlength=n_bins) for f in (s1, s1 & c1, alt, alt & c1, c1)])

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
    setup: LinkConfig, t: float, *, trials: int, seed: int, chunk_size: int = _DEFAULT_CHUNK
) -> CountsRecord:
    """Pair-count-mode run of a two-arm setup (conditional p_ij tallies)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    proto = _protocol(setup, t)

    def part(trials: np.ndarray, u: np.ndarray) -> np.ndarray:
        heralded, click_a, click_b = _pair_batch(proto, u)
        return np.bincount(2 * click_a[heralded] + click_b[heralded], minlength=4)

    # channel a is arm a (node_l, mode_l): index i of p_ij
    n00, n01, n10, n11 = _tally(proto, seed, STREAM_PAIRS, trials, chunk_size, part).tolist()
    return CountsRecord(
        pair_trials=trials, pair_heralds=n00 + n01 + n10 + n11, pij_counts=PairCounts(n00, n01, n10, n11)
    )


def simulate_link_correlation(
    setup: LinkConfig, t: float, *, trials: int, seed: int, chunk_size: int = _DEFAULT_CHUNK
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
