"""Property tests (hypothesis) of the Monte-Carlo engine and the CLI.

Chunk invariance: the k-th candidate of a run reads block k of its mode's
stream, its gap, first live screen column and row, whatever kernel call it
falls in, so any chunk size in [1, total] must give the record of the
default chunking, and so must runs of several full 2^16-candidate blocks,
each drawn from a rank offset, against runs of 7001-candidate blocks.

Fuzzed configs: whatever a config file holds, a closed-form subcommand
exits 0, or exits 1 with an ``error:`` line, and never with a traceback.
"""

import contextlib
import io
import json
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from dlcz_link import EnsembleParams, ExponentialEfficiency, LinkConfig, NoiseField, SpinWaveMode
from dlcz_link import stochastic as st
from dlcz_link.cli import FIGURE_IDS, main
from dlcz_link.config import _SCHEMA

TRIALS_PER_THETA = 50
THETAS = st.default_thetas(12)
TOTAL = TRIALS_PER_THETA * THETAS.size  # trials per mode
T, SEED = 4e-3, 83

# chi = 0.3 is outside the closed form's regime; only the engine runs here
pytestmark = pytest.mark.filterwarnings("ignore:chi = .* is outside:UserWarning")


@pytest.fixture(scope="module")
def bright_link() -> LinkConfig:
    # unequal, large chi so a few hundred trials hold pairs in both arms,
    # and jitter so the fringe kernel draws from every column
    def node(chi):
        return EnsembleParams(chi=chi, gamma_0=0.76, decay=ExponentialEfficiency(0.41), xi_se=0.26,
                              z_noise=3e-3, eta=0.4)

    mode = SpinWaveMode(mu_prime=5000.0)
    return LinkConfig(node_l=node(0.3), node_r=node(0.05), mode_l=mode, mode_r=mode,
                      noise=NoiseField(sigma_b=2e-3), zeta=0.85, residual_phase_jitter=0.3)


def records(setup: LinkConfig, trials_per_theta: int = TRIALS_PER_THETA, **chunking) -> tuple[st.CountsRecord, ...]:
    total = trials_per_theta * THETAS.size
    return (
        st.simulate_link_fringe(setup, T, trials_per_theta=trials_per_theta, thetas=THETAS, seed=SEED, **chunking),
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
    # chi: 7001-candidate calls against the 2^16-candidate calls that the
    # default chunk size and 2^20 both cap at, each drawn from a rank offset
    trials_per_theta = (3 << 17) // THETAS.size
    sliced = [records(bright_link, trials_per_theta, **kw) for kw in ({}, {"chunk_size": 1 << 20})]
    assert sliced == [records(bright_link, trials_per_theta, chunk_size=7001)] * 2


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
def test_fuzzed_config_exits_0_or_1_with_error(workdir, doc):
    path = workdir / "config.json"
    path.write_text(json.dumps(doc))
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for command in COMMANDS:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([*command, "--config", str(path)])
            assert code in (0, 1), (command, doc)
            if code == 1:
                assert err.getvalue().startswith("error:"), (command, doc, err.getvalue())
    finally:
        os.chdir(cwd)
