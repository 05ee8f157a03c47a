"""Run configuration: JSON loading, strict validation, defaults.

The configuration is a single JSON document with optional sections; a
minimal ``{}`` yields the full default parameter set (the lattice-node
link evaluation: gamma_0 = 0.76, tau_d = 410 ms exponential, chi = 0.5%,
xi_se = 0.26, Z = 3e-4, zeta = 0.85, mu' = 5 Hz/mG) plus the measured
single-ensemble parameter set for the figure outputs. Both sections build
a two-arm :class:`~dlcz_link.params.LinkConfig` whose arms are one
:class:`~dlcz_link.params.EnsembleParams` each: ``link`` a two-node link
with one node in both arms, ``single_ensemble`` the mixed pair of modes of
one cloud (arm a MFI, arm b MFS, one shared field sample). Every key's
default and check are written once, in ``_SCHEMA``; the CLI's flags pass
through the same checks as the file. Unknown keys and out-of-range values are
rejected with the offending key named.

Units are the package conventions: seconds, Gauss, Hz/G.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .params import (
    BOHR_MAGNETON_HZ_PER_G,
    DECAY_LAWS,
    EnsembleParams,
    LinkConfig,
    NoiseField,
    Topology,
)

__all__ = [
    "ConfigError",
    "McSettings",
    "SweepSettings",
    "OutputSettings",
    "RunConfig",
    "config_from_dict",
    "read_config",
    "load_config",
    "sweep_times",
]


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending key."""


#: A key's check: takes the dotted key name and the given value, returns the
#: value the run uses or raises ConfigError naming the key.
_Check = Callable[[str, Any], Any]


def _number(lo: float | None = None, hi: float | None = None, *, above: float | None = None) -> _Check:
    """A finite number in [lo, hi]; ``above`` is an exclusive lower bound."""

    def check(key: str, value: Any) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{key}: expected a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(f"{key}: expected a finite number, got {value!r}")
        if lo is not None and value < lo:
            raise ConfigError(f"{key}: expected a value >= {lo}, got {value}")
        if above is not None and not value > above:
            raise ConfigError(f"{key}: expected a value > {above}, got {value}")
        if hi is not None and value > hi:
            raise ConfigError(f"{key}: expected a value <= {hi}, got {value}")
        return value

    return check


def _integer(lo: int, hi: int | None = None) -> _Check:
    def check(key: str, value: Any) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{key}: expected an integer, got {value!r}")
        if value < lo:
            raise ConfigError(f"{key}: expected an integer >= {lo}, got {value}")
        if hi is not None and value > hi:
            raise ConfigError(f"{key}: expected an integer <= {hi}, got {value}")
        return value

    return check


def _choice(*choices: str) -> _Check:
    def check(key: str, value: Any) -> str:
        if value not in choices:
            raise ConfigError(f"{key}: expected one of {choices}, got {value!r}")
        return value

    return check


def _field_widths(key: str, value: Any) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise ConfigError(f"{key}: expected a list of field widths in Gauss")
    return tuple(_NONNEGATIVE(f"{key}[{i}]", v) for i, v in enumerate(value))


def _optional_path(key: str, value: Any) -> str | None:
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"{key}: expected a string or null, got {value!r}")
    return value


_PROBABILITY = _number(0.0, 1.0)
_CONTRAST = _number(None, 1.0, above=0.0)  # a contrast multiplier in (0, 1]
_NONNEGATIVE = _number(0.0)
_POSITIVE = _number(above=0.0)
_DECAY_LAW = _choice(*DECAY_LAWS)
_SPACING = _choice("linear", "log")

#: section -> key -> (default, check): every key the configuration accepts.
_SCHEMA: dict[str, dict[str, tuple[Any, _Check]]] = {
    "link": {
        "chi": (0.005, _PROBABILITY),
        "gamma_0": (0.76, _PROBABILITY),
        "tau_d": (0.410, _POSITIVE),
        "decay_law": ("exponential", _DECAY_LAW),
        "xi_se": (0.26, _PROBABILITY),
        "z_noise": (3.0e-4, _PROBABILITY),
        "eta": (0.05, _PROBABILITY),
        "mu_prime": (5000.0, _NONNEGATIVE),
        "sigma_b": (2.0e-3, _NONNEGATIVE),
        "topology": ("independent", _choice(*(t.value for t in Topology))),
        "zeta": (0.85, _CONTRAST),
        "xi_prime": (1.0, _CONTRAST),
        "residual_phase_jitter": (0.0, _NONNEGATIVE),
    },
    "single_ensemble": {
        "chi": (0.005, _PROBABILITY),
        "eta": (0.05, _PROBABILITY),
        "xi_se": (0.26, _PROBABILITY),
        "gamma_0_mfi": (0.22, _PROBABILITY),
        "gamma_0_mfs": (0.17, _PROBABILITY),
        "tau_d": (1.0e-3, _POSITIVE),
        "decay_law": ("exponential", _DECAY_LAW),
        "z_mfi": (3.1e-4, _PROBABILITY),
        "z_mfs": (3.3e-4, _PROBABILITY),
        "sigma_b": (2.25e-3, _NONNEGATIVE),
        "mu_prime_mfi": (0.0, _NONNEGATIVE),
        "mu_prime_mfs": (BOHR_MAGNETON_HZ_PER_G, _NONNEGATIVE),
        "zeta": (0.85, _CONTRAST),
        "xi_prime": (0.88, _CONTRAST),
    },
    "table1": {
        "sigma_b_list": ([2.0e-3, 1.0e-3, 2.0e-4, 0.0], _field_widths),
        "t_generation": (0.63, _POSITIVE),
    },
    "mc": {
        "trials": (100_000, _integer(1)),
        "seed": (12345, _integer(0, 2**64 - 1)),
        "theta_points": (12, _integer(8)),
    },
    "sweep": {
        "t_start": (1.0e-3, _NONNEGATIVE),
        "t_end": (3.0, _number()),
        "n_points": (200, _integer(2)),
        "spacing": ("log", _SPACING),
    },
    "sweep_single": {
        "t_start": (0.0, _NONNEGATIVE),
        "t_end": (2.0e-4, _number()),
        "n_points": (50, _integer(2)),
        "spacing": ("linear", _SPACING),
    },
    "output": {
        "path": (None, _optional_path),
        "format": ("csv", _choice("csv", "json")),
    },
}


@dataclass(frozen=True)
class McSettings:
    trials: int
    seed: int
    theta_points: int


@dataclass(frozen=True)
class SweepSettings:
    t_start: float
    t_end: float
    n_points: int
    spacing: str  # "linear" | "log"


@dataclass(frozen=True)
class OutputSettings:
    path: str | None
    format: str  # "csv" | "json"


@dataclass(frozen=True)
class RunConfig:
    link: LinkConfig
    mode_pair: LinkConfig  # the mixed MFI-MFS pairing of the single ensemble
    sigma_b_list: tuple[float, ...]
    t_generation: float
    mc: McSettings
    sweep: SweepSettings
    sweep_single: SweepSettings
    output: OutputSettings


def _section(name: str, *layers: Any) -> dict[str, Any]:
    """One section's checked values: the defaults, overlaid by each given layer in turn."""
    values = {key: default for key, (default, _) in _SCHEMA[name].items()}
    for given in layers:
        if given is None:
            continue
        if not isinstance(given, dict):
            raise ConfigError(f"{name}: expected an object")
        unknown = set(given) - set(values)
        if unknown:
            raise ConfigError(f"{name}.{sorted(unknown)[0]}: unknown key")
        values.update(given)
    return {key: check(f"{name}.{key}", values[key]) for key, (_, check) in _SCHEMA[name].items()}


def _sweep(name: str, d: dict[str, Any]) -> SweepSettings:
    if not d["t_end"] > d["t_start"]:
        raise ConfigError(f"{name}.t_end: expected a value > t_start = {d['t_start']}, got {d['t_end']}")
    if d["spacing"] == "log" and d["t_start"] <= 0.0:
        raise ConfigError(f"{name}.t_start: log spacing needs a value > 0, got {d['t_start']}")
    return SweepSettings(**d)


def _mc(d: dict[str, Any]) -> McSettings:
    # the fringe run splits mc.trials over the theta bins, at least one trial each
    if d["theta_points"] > d["trials"]:
        raise ConfigError(f"mc.theta_points: expected a value <= mc.trials = {d['trials']}, got {d['theta_points']}")
    return McSettings(**d)


def _node(section: dict[str, Any], gamma_0: float, z_noise: float, mu_prime: float) -> EnsembleParams:
    """One arm; the parameters not given come from the section's shared keys."""
    return EnsembleParams(
        chi=section["chi"],
        gamma_0=gamma_0,
        decay=DECAY_LAWS[section["decay_law"]](tau_d=section["tau_d"]),
        xi_se=section["xi_se"],
        z_noise=z_noise,
        eta=section["eta"],
        mu_prime=mu_prime,
    )


def sweep_times(sweep: SweepSettings) -> np.ndarray:
    """The storage-time grid a sweep describes."""
    if sweep.spacing == "log":
        return np.geomspace(sweep.t_start, sweep.t_end, sweep.n_points)
    return np.linspace(sweep.t_start, sweep.t_end, sweep.n_points)


def config_from_dict(doc: dict[str, Any], flags: dict[str, Any] | None = None) -> RunConfig:
    """Validate a parsed JSON document and assemble the run configuration.

    ``flags`` is a second document of the same shape, laid over ``doc``
    key by key before any check runs (the CLI passes its flags here).
    """
    docs = (doc, {} if flags is None else flags)
    for d in docs:
        if not isinstance(d, dict):
            raise ConfigError("top level: expected an object")
        unknown = set(d) - set(_SCHEMA)
        if unknown:
            raise ConfigError(f"{sorted(unknown)[0]}: unknown key")
    s = {name: _section(name, *(d.get(name) for d in docs)) for name in _SCHEMA}

    link, single = s["link"], s["single_ensemble"]
    node = _node(link, link["gamma_0"], link["z_noise"], link["mu_prime"])
    two_node = LinkConfig(
        node_l=node,
        node_r=node,
        noise=NoiseField(sigma_b=link["sigma_b"], topology=Topology(link["topology"])),
        zeta=link["zeta"],
        xi_prime=link["xi_prime"],
        residual_phase_jitter=link["residual_phase_jitter"],
    )
    mode_pair = LinkConfig(
        node_l=_node(single, single["gamma_0_mfi"], single["z_mfi"], single["mu_prime_mfi"]),
        node_r=_node(single, single["gamma_0_mfs"], single["z_mfs"], single["mu_prime_mfs"]),
        # both modes live in one cloud and see one field sample
        noise=NoiseField(sigma_b=single["sigma_b"], topology=Topology.SHARED),
        zeta=single["zeta"],
        xi_prime=single["xi_prime"],
    )

    return RunConfig(
        link=two_node,
        mode_pair=mode_pair,
        sigma_b_list=s["table1"]["sigma_b_list"],
        t_generation=s["table1"]["t_generation"],
        mc=_mc(s["mc"]),
        sweep=_sweep("sweep", s["sweep"]),
        sweep_single=_sweep("sweep_single", s["sweep_single"]),
        output=OutputSettings(**s["output"]),
    )


def read_config(path: str | Path) -> Any:
    """Parse a JSON configuration file, unchecked."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config: file not found: {p}")
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # JSON text is UTF-8
        raise ConfigError(f"config: not valid JSON: {exc}") from exc


def load_config(path: str | Path) -> RunConfig:
    """Read and validate a JSON configuration file."""
    return config_from_dict(read_config(path))
