"""Property tests (hypothesis) of the Monte-Carlo engine and the CLI.

Chunk invariance: the k-th candidate of a run reads block k of its mode's
stream, its gap, first live screen column and row, whatever kernel call it
falls in, so any chunk size in [1, total] must give the record of the
default chunking, and so must runs of several full 2^13-candidate blocks,
each drawn from a rank offset, against runs of 7001-candidate blocks.

Merging: ``merge_counts`` is commutative and associative with identity
``CountsRecord()``, every tally of a merged record is the sum of the two
inputs' tallies, and grids whose thetas differ are rejected.

Fuzzed configs: whatever a config file holds, a closed-form subcommand
exits 0, or exits 1 with an ``error:`` line, and never with a traceback;
a header it writes to stdout names no column twice.
"""

import contextlib
import csv
import dataclasses
import io
import json
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from dlcz_link import EnsembleParams, ExponentialEfficiency, LinkConfig, NoiseField
from dlcz_link import stochastic as st
from dlcz_link.cli import FIGURE_IDS, main
from dlcz_link.config import _SCHEMA

TRIALS_PER_THETA, THETA_POINTS = 50, 12
TOTAL = TRIALS_PER_THETA * THETA_POINTS  # trials per mode
T, SEED = 4e-3, 83

# chi = 0.3 is outside the closed form's regime; only the engine runs here
pytestmark = pytest.mark.filterwarnings("ignore:chi = .* is outside:UserWarning")


@pytest.fixture(scope="module")
def bright_link() -> LinkConfig:
    # unequal, large chi so a few hundred trials hold pairs in both arms,
    # and jitter so the fringe kernel draws from every column
    def node(chi):
        return EnsembleParams(chi=chi, gamma_0=0.76, decay=ExponentialEfficiency(0.41), xi_se=0.26,
                              z_noise=3e-3, eta=0.4, mu_prime=5000.0)

    return LinkConfig(node_l=node(0.3), node_r=node(0.05),
                      noise=NoiseField(sigma_b=2e-3), zeta=0.85, residual_phase_jitter=0.3)


def records(setup: LinkConfig, trials_per_theta: int = TRIALS_PER_THETA, **chunking) -> tuple[st.CountsRecord, ...]:
    total = trials_per_theta * THETA_POINTS
    return (
        st.simulate_link_fringe(setup, T, trials_per_theta=trials_per_theta, theta_points=THETA_POINTS, seed=SEED,
                                **chunking),
        st.simulate_link_pairs(setup, T, trials=total, seed=SEED, **chunking),
        st.simulate_link_correlation(setup, T, trials=total, seed=SEED, **chunking),
    )


@pytest.fixture(scope="module")
def default_records(bright_link) -> tuple[st.CountsRecord, ...]:
    fringe, pairs, _ = recs = records(bright_link)
    assert fringe.n_heralds > 0 and pairs.pair_heralds > 0
    assert np.count_nonzero([b.n_heralds for b in fringe.theta_bins]) > 1
    return recs


@settings(max_examples=25, deadline=None)
@given(chunk_size=hs.integers(min_value=1, max_value=TOTAL))
@example(chunk_size=1)
def test_any_chunk_size_gives_the_default_record(bright_link, default_records, chunk_size):
    assert records(bright_link, chunk_size=chunk_size) == default_records


def test_records_equal_across_slicing(bright_link):
    # 3 * 2^17 trials per mode, about a third of them candidates at these
    # chi: 7001-candidate calls against 2^13-candidate calls, at the default
    # chunk size, which is the block cap, and at 2^20, which the cap binds;
    # each call drawn from a rank offset
    trials_per_theta = (3 << 17) // THETA_POINTS
    sliced = [records(bright_link, trials_per_theta, **kw) for kw in ({}, {"chunk_size": 1 << 20})]
    assert sliced == [records(bright_link, trials_per_theta, chunk_size=7001)] * 2


GRID = st._thetas(4).tolist()
TALLY = hs.integers(min_value=0, max_value=50)


@hs.composite
def theta_bins(draw) -> list[st.ThetaBin]:
    """Bins over GRID, each with at most as many coincidences as heralds; or an absent family."""
    if not draw(hs.booleans()):
        return []
    heralds = [draw(TALLY) for _ in GRID]
    return [st.ThetaBin(th, draw(hs.integers(0, h)), h) for th, h in zip(GRID, heralds)]


@hs.composite
def counts_records(draw) -> st.CountsRecord:
    """A record honouring CountsRecord's invariants, as is any merge of two of them.

    n_heralds is the sum of the D_S1 bins' heralds, and 0 when they are
    absent, so a merge of a fringe record with another record keeps it so.
    """
    bins, alt = draw(theta_bins()), draw(theta_bins())
    n_heralds = sum(b.n_heralds for b in bins)
    pij = draw(hs.none() | hs.builds(st.PairCounts, TALLY, TALLY, TALLY, TALLY))
    channel = hs.builds(st.ChannelTallies, TALLY, TALLY, TALLY, TALLY)
    return st.CountsRecord(
        n_trials=n_heralds + draw(TALLY),
        n_heralds=n_heralds,
        n_as1_clicks=draw(TALLY),
        theta_bins=bins,
        theta_bins_alt=alt,
        pair_trials=draw(TALLY),
        pair_heralds=0 if pij is None else pij.total,
        pij_counts=pij,
        correlation_trials=draw(TALLY),
        correlation=draw(hs.none() | hs.tuples(channel, channel)),
    )


def tallies(rec: st.CountsRecord) -> dict[tuple, int]:
    """Every int tally of a record by its path in ``asdict``; an absent family has none."""
    out = {}

    def walk(path: tuple, value) -> None:
        if isinstance(value, dict):
            value = value.items()
        elif isinstance(value, (list, tuple)):
            value = enumerate(value)
        elif isinstance(value, int):
            out[path] = value
            return
        else:
            return
        for key, item in value:
            walk((*path, key), item)

    walk((), dataclasses.asdict(rec))
    return out


@settings(max_examples=200, deadline=None)
@given(a=counts_records(), b=counts_records(), c=counts_records())
def test_merge_is_a_commutative_monoid(a, b, c):
    merge = st.merge_counts
    assert merge(a, b) == merge(b, a)
    assert merge(merge(a, b), c) == merge(a, merge(b, c))
    assert merge(st.CountsRecord(), a) == a == merge(a, st.CountsRecord())


@settings(max_examples=200, deadline=None)
@given(a=counts_records(), b=counts_records())
def test_merge_is_the_field_wise_sum(a, b):
    merged = st.merge_counts(a, b)
    ta, tb = tallies(a), tallies(b)
    assert tallies(merged) == {k: ta.get(k, 0) + tb.get(k, 0) for k in ta.keys() | tb.keys()}
    for family in ("theta_bins", "theta_bins_alt"):
        present = getattr(a, family) or getattr(b, family)
        assert [x.theta for x in getattr(merged, family)] == [x.theta for x in present]
    assert (merged.pij_counts is None) == (a.pij_counts is None and b.pij_counts is None)
    assert (merged.correlation is None) == (a.correlation is None and b.correlation is None)


@settings(max_examples=50, deadline=None)
@given(a=counts_records(), family=hs.sampled_from(["theta_bins", "theta_bins_alt"]),
       i=hs.integers(0, len(GRID) - 1), shift=hs.floats(0.01, 1.0))
def test_merge_rejects_a_grid_of_equal_length_and_other_thetas(a, family, i, shift):
    bins = getattr(a, family) or [st.ThetaBin(th, 0, 0) for th in GRID]
    moved = [dataclasses.replace(x, theta=x.theta + shift) if k == i else x for k, x in enumerate(bins)]
    a = dataclasses.replace(a, **{family: bins})
    b = st.CountsRecord(n_trials=a.n_trials, n_heralds=a.n_heralds if family == "theta_bins" else 0,
                        **{family: moved})
    with pytest.raises(ValueError, match="theta grids differ; records cannot be merged"):
        st.merge_counts(a, b)
    with pytest.raises(ValueError, match="theta grids differ; records cannot be merged"):
        st.merge_counts(b, a)


# every schema key, plus one the schema does not know
CONFIG_KEYS = [(name, key) for name, keys in _SCHEMA.items() for key in keys] + [("link", "unknown")]
CHOICES = ("exponential", "gaussian", "independent", "shared", "linear", "log", "csv", "json")
CONFIG_VALUES = hs.one_of(
    hs.none(),
    hs.booleans(),
    hs.integers(min_value=-10, max_value=64),
    hs.floats(),
    hs.sampled_from(CHOICES),
    # no path separator, so an output.path stays in the working directory
    hs.text(alphabet="ab.-_ 0", max_size=6),
    hs.lists(hs.floats(), max_size=4),
)
# `mc` is left out: its run time grows with the drawn budgets
COMMANDS = [["curve"], ["table1"], ["fit"]] + [["figure", "--figure-id", fid] for fid in FIGURE_IDS]


@hs.composite
def config_docs(draw) -> dict:
    doc: dict = {}
    for name, key in draw(hs.lists(hs.sampled_from(CONFIG_KEYS), max_size=6, unique=True)):
        doc.setdefault(name, {})[key] = draw(CONFIG_VALUES)
    return doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


# a warning is not a crash: the CLI prints it to stderr and goes on, so it
# is reported here, not raised
@pytest.mark.filterwarnings("default")
@settings(max_examples=40, deadline=None)
@given(doc=config_docs())
@example(doc={"single_ensemble": {"xi_se": 0}})
@example(doc={"single_ensemble": {"gamma_0_mfi": 0}})
@example(doc={"link": {"residual_phase_jitter": 1e200}})
@example(doc={"link": {"topology": "shared"}})
def test_fuzzed_config_exits_0_or_1_with_error(workdir, doc):
    path = workdir / "config.json"
    path.write_text(json.dumps(doc))
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for command in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*command, "--config", str(path)])
            assert code in (0, 1), (command, doc)
            if code == 1:
                assert err.getvalue().startswith("error:"), (command, doc, err.getvalue())
            elif text := out.getvalue():
                header = json.loads(text)["columns"] if text.startswith("{") else next(csv.reader(io.StringIO(text)))
                assert len(set(header)) == len(header), (command, doc, header)
    finally:
        os.chdir(cwd)
