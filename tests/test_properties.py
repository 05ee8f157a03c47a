"""Property tests (hypothesis) of the Monte-Carlo engine.

Chunk invariance: every trial owns its uniform block and the drivers pick
the trials that hold a pair chunk by chunk, so any chunk size in
[1, total] must give the record of the default chunking.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from dlcz_link import EnsembleParams, ExponentialEfficiency, LinkConfig, NoiseField, SpinWaveMode
from dlcz_link import stochastic as st

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


def records(setup: LinkConfig, **chunking) -> tuple[st.CountsRecord, ...]:
    return (
        st.simulate_link_fringe(setup, T, trials_per_theta=TRIALS_PER_THETA, thetas=THETAS, seed=SEED, **chunking),
        st.simulate_link_pairs(setup, T, trials=TOTAL, seed=SEED, **chunking),
        st.simulate_link_correlation(setup, T, trials=TOTAL, seed=SEED, **chunking),
    )


@pytest.fixture(scope="module")
def default_records(bright_link) -> tuple[st.CountsRecord, ...]:
    fringe, pairs, _ = recs = records(bright_link)
    assert fringe.n_heralds > 0 and pairs.pair_heralds > 0
    assert np.count_nonzero([b.n_heralds for b in fringe.theta_bins]) > 1
    return recs


@settings(max_examples=25, deadline=None)
@given(chunk_size=hs.integers(min_value=1, max_value=TOTAL))
def test_any_chunk_size_gives_the_default_record(bright_link, default_records, chunk_size):
    assert records(bright_link, chunk_size=chunk_size) == default_records
