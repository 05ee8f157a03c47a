"""Simulator and analysis toolkit for single-excitation entanglement over a
two-node DLCZ memory link.

One object, :class:`LinkConfig`, describes a protocol: two arms, each one
:class:`EnsembleParams` (a node of a two-node link or a spin-wave mode of
one ensemble, with the magnetic sensitivity mu' of its coherence). The
inter-arm coherence dephases with tau_0 = 1/(2 pi (mu'_a + mu'_b) sigma_b)
when the arms see independent field samples and with
tau_0 = 1/(2 pi |mu'_a - mu'_b| sigma_b) when they share one (series-wired
supplies, or two modes of one cloud).

Layers:

* :mod:`dlcz_link.params` - parameter containers and unit conventions;
* :mod:`dlcz_link.model` - closed-form decay, dephasing, detection and
  concurrence formulas;
* :mod:`dlcz_link.stochastic` - a shot-by-shot Monte-Carlo engine that
  estimates the same quantities from simulated photon counts;
* :mod:`dlcz_link.analysis` - curve fitting, entanglement-lifetime root
  finding and the lifetime/link-efficiency table;
* :mod:`dlcz_link.cli` - the ``dlcz-link`` command-line entry point.
"""

from .params import (
    BOHR_MAGNETON_HZ_PER_G,
    DecayModel,
    EnsembleParams,
    ExponentialEfficiency,
    GaussianAmplitude,
    LinkConfig,
    NoiseField,
    Topology,
)

__version__ = "0.1.0"

__all__ = [
    "BOHR_MAGNETON_HZ_PER_G",
    "DecayModel",
    "EnsembleParams",
    "ExponentialEfficiency",
    "GaussianAmplitude",
    "LinkConfig",
    "NoiseField",
    "Topology",
    "__version__",
]
