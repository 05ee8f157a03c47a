"""Parameter containers for the two-arm spin-wave link simulator.

One object describes a protocol: :class:`LinkConfig`, two arms that each
store one spin wave. An arm is one :class:`EnsembleParams`: a memory node
of a two-node link (one ensemble per arm) or a stored mode of a single
ensemble (two modes of one cloud), with the magnetic sensitivity mu' of
the coherence it stores. The supply topology says which field samples the
arms see: independent supplies dephase the inter-arm coherence with lifetime
tau_0 = 1/(2 pi (mu'_a + mu'_b) sigma_b), a shared supply (and every pair
of modes in one ensemble) with tau_0 = 1/(2 pi |mu'_a - mu'_b| sigma_b).

Unit conventions, used everywhere in this package:

* times in seconds,
* magnetic fields and field widths in Gauss,
* magnetic sensitivities in Hz/G (so 5 Hz/mG reads as 5000.0),
* probabilities and efficiencies dimensionless in [0, 1].

Infinite lifetimes are represented by ``math.inf`` so that limiting cases
(shared supply, clock transition) are exact rather than approximated by
large floats.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar

#: Bohr magneton over Planck constant in Hz/G: the magnetic sensitivity of a
#: |Delta m_F| = 2 ground-state alkali coherence. CODATA 2022 (Hz/T, times
#: 1e-4 T/G) as shipped by scipy 1.17.1; pinned as a literal so that CLI
#: output does not drift with scipy releases.
BOHR_MAGNETON_HZ_PER_G = 13996244917.1 * 1e-4


class Topology(str, Enum):
    """How the two arms' bias-coil supplies are wired."""

    #: one DC supply per node; field fluctuations are independent draws
    INDEPENDENT = "independent"
    #: coils of both nodes in series on one supply, or two modes of one
    #: ensemble; fluctuations identical
    SHARED = "shared"


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name}: expected a probability in [0, 1], got {value}")


def _check_nonnegative(name: str, value: float) -> None:
    if not value >= 0.0:
        raise ValueError(f"{name}: expected a value >= 0, got {value}")


@dataclass(frozen=True)
class _DecayLaw:
    """Spin-wave decay with lifetime tau_d: efficiency |D(t)|^2 = exp(-(t/tau_d)^power).

    Each law carries its configuration name ``law`` and its exponent
    ``power``; the amplitude factor is D(t) = exp(-t^power / 2 tau_d^power).
    """

    law: ClassVar[str]
    power: ClassVar[int]
    tau_d: float  # s

    def __post_init__(self) -> None:
        if not self.tau_d > 0.0:
            raise ValueError(f"tau_d: expected > 0, got {self.tau_d}")


@dataclass(frozen=True)
class GaussianAmplitude(_DecayLaw):
    """Amplitude factor D(t) = exp(-t^2 / 2 tau_d^2), i.e. |D(t)|^2 = exp(-(t/tau_d)^2)."""

    law = "gaussian"
    power = 2


@dataclass(frozen=True)
class ExponentialEfficiency(_DecayLaw):
    """Efficiency-law decay |D(t)|^2 = exp(-t / tau_d), i.e. D(t) = exp(-t / 2 tau_d).

    This is the empirical law measured for lattice-held and cold-cloud
    memories; the decay law is always an explicit configuration choice,
    never inferred from other parameters.
    """

    law = "exponential"
    power = 1


#: One of the two decay laws accepted by the model operations.
DecayModel = GaussianAmplitude | ExponentialEfficiency

#: Configuration name -> decay law, the one list of the laws.
DECAY_LAWS: dict[str, type[DecayModel]] = {cls.law: cls for cls in (ExponentialEfficiency, GaussianAmplitude)}


@dataclass(frozen=True)
class NoiseField:
    """Slow magnetic-field fluctuation (Lorentzian, shot-to-shot) at the arms."""

    sigma_b: float  # G, Lorentzian half-width per supply
    topology: Topology = Topology.INDEPENDENT

    def __post_init__(self) -> None:
        _check_nonnegative("sigma_b", self.sigma_b)
        if not isinstance(self.topology, Topology):
            object.__setattr__(self, "topology", Topology(self.topology))

    @property
    def sigma_delta(self) -> float:
        """Width of the inter-arm field difference: 2 sigma_b, or 0 when shared."""
        if self.topology is Topology.SHARED:
            return 0.0
        return 2.0 * self.sigma_b


@dataclass(frozen=True)
class EnsembleParams:
    """One arm: an ensemble, or one spin-wave mode of it.

    ``chi`` is the excitation probability per write pulse, ``gamma_0`` the
    zero-delay retrieval efficiency, ``xi_se`` the branching ratio of the
    read-photon transitions feeding the retrieval-noise channel, ``z_noise``
    the per-pulse background probability in the anti-Stokes channel,
    ``eta`` the detection efficiency per channel and ``mu_prime`` the
    stochastic-phase sensitivity of the stored coherence in Hz/G (0 for a
    clock mode, ``BOHR_MAGNETON_HZ_PER_G`` for a |Delta m_F| = 2 one). The
    deterministic Larmor beat under the bias field is folded into the
    scanned fringe phase; only the stochastic phase dephases.
    """

    chi: float
    gamma_0: float
    decay: DecayModel
    xi_se: float = 0.0
    z_noise: float = 0.0
    eta: float = 1.0
    mu_prime: float = 0.0  # Hz/G

    def __post_init__(self) -> None:
        for name in ("chi", "gamma_0", "xi_se", "z_noise", "eta"):
            _check_probability(name, getattr(self, name))
        _check_nonnegative("mu_prime", self.mu_prime)
        if self.chi > 0.1:
            warnings.warn(
                f"chi = {self.chi} is outside the chi << 1 regime the linear-order "
                "probability chain assumes",
                # past __post_init__ and the generated __init__ to the caller
                stacklevel=3,
            )


@dataclass(frozen=True)
class LinkConfig:
    """Two arms, each a node of a two-node link or a mode of one ensemble.

    ``node_l`` and ``node_r`` are arm a and arm b, one
    :class:`EnsembleParams` each; identical arms pass the same object
    twice. A pair of modes in one ensemble sees one field sample, so it
    uses ``Topology.SHARED``. The measured-visibility contrast multipliers
    are ``zeta`` (mode overlap of the two interferometer arms) and
    ``xi_prime`` (empirical extra contrast loss, unity unless configured).
    ``residual_phase_jitter`` is the RMS of the unstabilized interferometer
    phase in rad (0 = perfectly stabilized write/read interferometers).
    """

    node_l: EnsembleParams
    node_r: EnsembleParams
    noise: NoiseField
    zeta: float = 1.0
    xi_prime: float = 1.0
    residual_phase_jitter: float = 0.0

    def __post_init__(self) -> None:
        for name in ("zeta", "xi_prime"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name}: expected a value in (0, 1], got {value}")
        _check_nonnegative("residual_phase_jitter", self.residual_phase_jitter)
