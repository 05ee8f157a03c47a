import numpy as np
import pytest

from dlcz_link import (
    BOHR_MAGNETON_HZ_PER_G,
    EnsembleParams,
    ExponentialEfficiency,
    LinkConfig,
    NoiseField,
    Topology,
)


@pytest.fixture()
def lattice_node() -> EnsembleParams:
    """Lattice-memory node: gamma_0 = 76%, tau_d = 410 ms exponential, clock coherence mu' = 5 Hz/mG."""
    return EnsembleParams(
        chi=0.005,
        gamma_0=0.76,
        decay=ExponentialEfficiency(tau_d=0.410),
        xi_se=0.26,
        z_noise=3.0e-4,
        eta=0.4,
        mu_prime=5000.0,
    )


def link_at(node: EnsembleParams, sigma_b: float, **kw) -> LinkConfig:
    return LinkConfig(node, node, NoiseField(sigma_b=sigma_b), **kw)


@pytest.fixture()
def measured_pair() -> LinkConfig:
    """The measured single-ensemble mixed pairing: arm a MFI, arm b MFS, one field."""
    decay = ExponentialEfficiency(tau_d=1.0e-3)
    common = dict(chi=0.005, xi_se=0.26, eta=0.4, decay=decay)
    return LinkConfig(
        node_l=EnsembleParams(gamma_0=0.22, z_noise=3.1e-4, mu_prime=0.0, **common),
        node_r=EnsembleParams(gamma_0=0.17, z_noise=3.3e-4, mu_prime=BOHR_MAGNETON_HZ_PER_G, **common),
        noise=NoiseField(sigma_b=2.25e-3, topology=Topology.SHARED),
        zeta=0.85,
        xi_prime=0.88,
    )


def matched_pairing(pair: LinkConfig) -> LinkConfig:
    """Both arms of a mode pair stored in its MFS mode (arm b): no extra contrast loss."""
    return LinkConfig(pair.node_r, pair.node_r, pair.noise, zeta=pair.zeta)


def assert_within_se(value: float, expected: float, std_error: float, n_se: float = 3.0) -> None:
    assert abs(value - expected) <= n_se * std_error, (
        f"{value} vs {expected}: off by {abs(value - expected) / std_error:.2f} SE"
    )
