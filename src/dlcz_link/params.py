"""Parameter containers for the two-arm spin-wave link simulator.

One object describes a protocol: :class:`LinkConfig`, two arms that each
store one spin wave. An arm is a memory node of a two-node link (one
ensemble per arm) or a stored mode of a single ensemble (two modes of one
cloud). The supply topology says which field samples the arms see:
independent supplies dephase the inter-arm coherence with lifetime
tau_0 = 1/(2 pi (mu'_a + mu'_b) sigma_b), a shared supply (and every pair
of modes in one ensemble) with tau_0 = 1/(2 pi |mu'_a - mu'_b| sigma_b).

Unit conventions, used everywhere in this package:

* times in seconds,
* magnetic fields and field widths in Gauss,
* magnetic sensitivities in Hz/G (so 5 Hz/mG reads as 5000.0),
* wavevectors in rad/m, lengths in m, speeds in m/s,
* probabilities and efficiencies dimensionless in [0, 1].

Infinite lifetimes are represented by ``math.inf`` so that limiting cases
(no gradient, shared supply, clock transition) are exact rather than
approximated by large floats.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

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
class MotionBroadeningParams:
    """Inputs of the two inhomogeneous dephasing channels of a stored spin wave.

    ``delta_k`` is the spin-wave wavevector magnitude (write minus Stokes),
    ``v_s`` the RMS atomic speed along the spin-wave axis, ``cloud_length``
    the RMS cloud length, ``b_gradient`` the magnetic-field gradient along z
    and ``mu_prime`` the sensitivity of the storage transition.
    """

    delta_k: float = 0.0  # rad/m
    v_s: float = 0.0  # m/s
    cloud_length: float = 0.0  # m
    b_gradient: float = 0.0  # G/m
    mu_prime: float = 0.0  # Hz/G

    def __post_init__(self) -> None:
        for name in ("delta_k", "v_s", "cloud_length", "b_gradient", "mu_prime"):
            _check_nonnegative(name, getattr(self, name))


@dataclass(frozen=True)
class GaussianAmplitude:
    """Amplitude factor D(t) = exp(-t^2 / 2 tau_d^2)."""

    tau_d: float  # s

    def __post_init__(self) -> None:
        if not self.tau_d > 0.0:
            raise ValueError(f"tau_d: expected > 0, got {self.tau_d}")


@dataclass(frozen=True)
class ExponentialEfficiency:
    """Efficiency-law decay |D(t)|^2 = exp(-t / tau_d), i.e. D(t) = exp(-t / 2 tau_d).

    This is the empirical law measured for lattice-held and cold-cloud
    memories; the decay law is always an explicit configuration choice,
    never inferred from other parameters.
    """

    tau_d: float  # s

    def __post_init__(self) -> None:
        if not self.tau_d > 0.0:
            raise ValueError(f"tau_d: expected > 0, got {self.tau_d}")


#: One of the two decay laws accepted by the model operations; motion and
#: gradient dephasing is ``GaussianAmplitude(model.motion_lifetimes(p)[2])``.
DecayModel = GaussianAmplitude | ExponentialEfficiency


@dataclass(frozen=True)
class SpinWaveMode:
    """Magnetic character of a stored coherence.

    ``mu_prime`` is the stochastic-phase sensitivity in Hz/G. The
    deterministic Larmor beat under the bias field is folded into the
    scanned fringe phase; only the stochastic phase dephases.
    """

    mu_prime: float  # Hz/G

    def __post_init__(self) -> None:
        _check_nonnegative("mu_prime", self.mu_prime)

    @classmethod
    def mfi(cls, mu_prime: float = 0.0) -> "SpinWaveMode":
        """Magnetic-field-insensitive (clock) mode; exactly insensitive by default."""
        return cls(mu_prime=mu_prime)

    @classmethod
    def mfs(cls, mu_prime: float = BOHR_MAGNETON_HZ_PER_G) -> "SpinWaveMode":
        """Magnetic-field-sensitive mode, mu' = mu_B/h per unit field by default."""
        return cls(mu_prime=mu_prime)


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
    """Write/read parameters of one arm: an ensemble, or one spin-wave mode of it.

    ``chi`` is the excitation probability per write pulse, ``gamma_0`` the
    zero-delay retrieval efficiency, ``xi_se`` the branching ratio of the
    read-photon transitions feeding the retrieval-noise channel, ``z_noise``
    the per-pulse background probability in the anti-Stokes channel and
    ``eta`` the detection efficiency per channel.
    """

    chi: float
    gamma_0: float
    decay: DecayModel
    xi_se: float = 0.0
    z_noise: float = 0.0
    eta: float = 1.0

    def __post_init__(self) -> None:
        for name in ("chi", "gamma_0", "xi_se", "z_noise", "eta"):
            _check_probability(name, getattr(self, name))
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

    ``node_l``/``mode_l`` and ``node_r``/``mode_r`` are the write/read
    parameters and the magnetic character of arm a and arm b. A pair of
    modes in one ensemble sees one field sample, so it uses
    ``Topology.SHARED``. The measured-visibility contrast multipliers are
    ``zeta`` (mode overlap of the two interferometer arms) and ``xi_prime``
    (empirical extra contrast loss, unity unless configured).
    ``residual_phase_jitter`` is the RMS of the unstabilized interferometer
    phase in rad (0 = perfectly stabilized write/read interferometers).
    """

    node_l: EnsembleParams
    node_r: EnsembleParams
    noise: NoiseField
    mode_l: SpinWaveMode
    mode_r: SpinWaveMode
    zeta: float = 1.0
    xi_prime: float = 1.0
    residual_phase_jitter: float = 0.0

    def __post_init__(self) -> None:
        for name in ("zeta", "xi_prime"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name}: expected a value in (0, 1], got {value}")
        _check_nonnegative("residual_phase_jitter", self.residual_phase_jitter)

    @classmethod
    def symmetric(
        cls,
        node: EnsembleParams,
        noise: NoiseField,
        mode: SpinWaveMode,
        zeta: float = 1.0,
        xi_prime: float = 1.0,
        residual_phase_jitter: float = 0.0,
    ) -> "LinkConfig":
        """Identical arms: the default two-node link, or a matched pair of modes."""
        return cls(
            node_l=node,
            node_r=node,
            noise=noise,
            mode_l=mode,
            mode_r=mode,
            zeta=zeta,
            xi_prime=xi_prime,
            residual_phase_jitter=residual_phase_jitter,
        )
