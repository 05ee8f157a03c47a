"""Run configuration: JSON loading, strict validation, defaults.

The configuration is a single JSON document with optional sections; a
minimal ``{}`` yields the full default parameter set (the lattice-node
link evaluation: gamma_0 = 0.76, tau_d = 410 ms exponential, chi = 0.5%,
xi_se = 0.26, Z = 3e-4, zeta = 0.85, mu' = 5 Hz/mG) plus the measured
single-ensemble parameter set for the figure outputs. Both sections build
a two-arm :class:`~dlcz_link.params.LinkConfig`: ``link`` a symmetric
two-node link, ``single_ensemble`` the mixed pair of modes of one cloud
(arm a MFI, arm b MFS, one shared field sample). Unknown keys and
out-of-range values are rejected with the offending key named.

Units are the package conventions: seconds, Gauss, Hz/G.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import numpy as np

from .params import (
    BOHR_MAGNETON_HZ_PER_G,
    EnsembleParams,
    ExponentialEfficiency,
    GaussianAmplitude,
    LinkConfig,
    NoiseField,
    SpinWaveMode,
    Topology,
)

__all__ = [
    "ConfigError",
    "McSettings",
    "SweepSettings",
    "OutputSettings",
    "RunConfig",
    "default_config",
    "config_from_dict",
    "load_config",
    "sweep_times",
]


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending key."""


_LINK_DEFAULTS: dict[str, Any] = {
    "chi": 0.005,
    "gamma_0": 0.76,
    "tau_d": 0.410,
    "decay_law": "exponential",
    "xi_se": 0.26,
    "z_noise": 3.0e-4,
    "eta": 0.05,
    "mu_prime": 5000.0,
    "sigma_b": 2.0e-3,
    "topology": "independent",
    "zeta": 0.85,
    "xi_prime": 1.0,
    "residual_phase_jitter": 0.0,
}

_SINGLE_DEFAULTS: dict[str, Any] = {
    "chi": 0.005,
    "eta": 0.05,
    "xi_se": 0.26,
    "gamma_0_mfi": 0.22,
    "gamma_0_mfs": 0.17,
    "tau_d": 1.0e-3,
    "decay_law": "exponential",
    "z_mfi": 3.1e-4,
    "z_mfs": 3.3e-4,
    "sigma_b": 2.25e-3,
    "mu_prime_mfi": 0.0,
    "mu_prime_mfs": BOHR_MAGNETON_HZ_PER_G,
    "zeta": 0.85,
    "xi_prime": 0.88,
}

_TABLE1_DEFAULTS: dict[str, Any] = {
    "sigma_b_list": [2.0e-3, 1.0e-3, 2.0e-4, 0.0],
    "t_generation": 0.63,
}

_MC_DEFAULTS: dict[str, Any] = {"trials": 100_000, "seed": 12345, "theta_points": 12}

_SWEEP_DEFAULTS: dict[str, Any] = {
    "t_start": 1.0e-3,
    "t_end": 3.0,
    "n_points": 200,
    "spacing": "log",
}

_SWEEP_SINGLE_DEFAULTS: dict[str, Any] = {
    "t_start": 0.0,
    "t_end": 2.0e-4,
    "n_points": 50,
    "spacing": "linear",
}

_OUTPUT_DEFAULTS: dict[str, Any] = {"path": None, "format": "csv"}

_SECTIONS = {
    "link": _LINK_DEFAULTS,
    "single_ensemble": _SINGLE_DEFAULTS,
    "table1": _TABLE1_DEFAULTS,
    "mc": _MC_DEFAULTS,
    "sweep": _SWEEP_DEFAULTS,
    "sweep_single": _SWEEP_SINGLE_DEFAULTS,
    "output": _OUTPUT_DEFAULTS,
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

    def with_overrides(
        self,
        *,
        seed: int | None = None,
        trials: int | None = None,
        theta_points: int | None = None,
        output_path: str | None = None,
        output_format: str | None = None,
    ) -> "RunConfig":
        mc = self.mc
        if seed is not None:
            _check_int_range("mc.seed", seed, 0, 2**64 - 1)
            mc = replace(mc, seed=seed)
        if trials is not None:
            _check_int_range("mc.trials", trials, 1, None)
            mc = replace(mc, trials=trials)
        if theta_points is not None:
            _check_int_range("mc.theta_points", theta_points, 8, None)
            mc = replace(mc, theta_points=theta_points)
        out = self.output
        if output_path is not None:
            out = replace(out, path=output_path)
        if output_format is not None:
            if output_format not in ("csv", "json"):
                raise ConfigError(f"output.format: expected 'csv' or 'json', got {output_format!r}")
            out = replace(out, format=output_format)
        return replace(self, mc=mc, output=out)


def _check_number(key: str, value: Any, lo: float | None, hi: float | None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")
    if lo is not None and value < lo:
        raise ConfigError(f"{key}: expected a value >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ConfigError(f"{key}: expected a value <= {hi}, got {value}")
    return value


def _check_int_range(key: str, value: Any, lo: int | None, hi: int | None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ConfigError(f"{key}: expected an integer >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ConfigError(f"{key}: expected an integer <= {hi}, got {value}")
    return value


def _check_choice(key: str, value: Any, choices: tuple[str, ...]) -> str:
    if value not in choices:
        raise ConfigError(f"{key}: expected one of {choices}, got {value!r}")
    return value


def _merge_section(name: str, defaults: dict[str, Any], given: Any) -> dict[str, Any]:
    if given is None:
        return dict(defaults)
    if not isinstance(given, dict):
        raise ConfigError(f"{name}: expected an object")
    unknown = set(given) - set(defaults)
    if unknown:
        raise ConfigError(f"{name}.{sorted(unknown)[0]}: unknown key")
    merged = dict(defaults)
    merged.update(given)
    return merged


def _decay_model(key: str, law: str, tau_d: float):
    _check_choice(key, law, ("exponential", "gaussian"))
    if law == "exponential":
        return ExponentialEfficiency(tau_d=tau_d)
    return GaussianAmplitude(tau_d=tau_d)


def _sweep_from(name: str, d: dict[str, Any]) -> SweepSettings:
    t_start = _check_number(f"{name}.t_start", d["t_start"], 0.0, None)
    t_end = _check_number(f"{name}.t_end", d["t_end"], None, None)
    if not t_end > t_start:
        raise ConfigError(f"{name}.t_end: expected a value > t_start = {t_start}, got {t_end}")
    n_points = _check_int_range(f"{name}.n_points", d["n_points"], 2, None)
    spacing = _check_choice(f"{name}.spacing", d["spacing"], ("linear", "log"))
    if spacing == "log" and t_start <= 0.0:
        raise ConfigError(f"{name}.t_start: log spacing needs a value > 0, got {t_start}")
    return SweepSettings(t_start=t_start, t_end=t_end, n_points=n_points, spacing=spacing)


def sweep_times(sweep: SweepSettings) -> np.ndarray:
    """The storage-time grid a sweep describes."""
    if sweep.spacing == "log":
        return np.geomspace(sweep.t_start, sweep.t_end, sweep.n_points)
    return np.linspace(sweep.t_start, sweep.t_end, sweep.n_points)


def config_from_dict(doc: dict[str, Any]) -> RunConfig:
    """Validate a parsed JSON document and assemble the run configuration."""
    if not isinstance(doc, dict):
        raise ConfigError("top level: expected an object")
    unknown = set(doc) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"{sorted(unknown)[0]}: unknown key")

    link_d = _merge_section("link", _LINK_DEFAULTS, doc.get("link"))
    single_d = _merge_section("single_ensemble", _SINGLE_DEFAULTS, doc.get("single_ensemble"))
    table_d = _merge_section("table1", _TABLE1_DEFAULTS, doc.get("table1"))
    mc_d = _merge_section("mc", _MC_DEFAULTS, doc.get("mc"))
    sweep_d = _merge_section("sweep", _SWEEP_DEFAULTS, doc.get("sweep"))
    sweep_single_d = _merge_section("sweep_single", _SWEEP_SINGLE_DEFAULTS, doc.get("sweep_single"))
    out_d = _merge_section("output", _OUTPUT_DEFAULTS, doc.get("output"))

    node = EnsembleParams(
        chi=_check_number("link.chi", link_d["chi"], 0.0, 1.0),
        gamma_0=_check_number("link.gamma_0", link_d["gamma_0"], 0.0, 1.0),
        decay=_decay_model(
            "link.decay_law",
            link_d["decay_law"],
            _check_number("link.tau_d", link_d["tau_d"], 0.0, None),
        ),
        xi_se=_check_number("link.xi_se", link_d["xi_se"], 0.0, 1.0),
        z_noise=_check_number("link.z_noise", link_d["z_noise"], 0.0, 1.0),
        eta=_check_number("link.eta", link_d["eta"], 0.0, 1.0),
    )
    link = LinkConfig.symmetric(
        node=node,
        noise=NoiseField(
            sigma_b=_check_number("link.sigma_b", link_d["sigma_b"], 0.0, None),
            topology=Topology(_check_choice("link.topology", link_d["topology"], ("independent", "shared"))),
        ),
        mode=SpinWaveMode(mu_prime=_check_number("link.mu_prime", link_d["mu_prime"], 0.0, None)),
        zeta=_check_number("link.zeta", link_d["zeta"], 1e-12, 1.0),
        xi_prime=_check_number("link.xi_prime", link_d["xi_prime"], 1e-12, 1.0),
        residual_phase_jitter=_check_number(
            "link.residual_phase_jitter", link_d["residual_phase_jitter"], 0.0, None
        ),
    )

    single_decay = _decay_model(
        "single_ensemble.decay_law",
        single_d["decay_law"],
        _check_number("single_ensemble.tau_d", single_d["tau_d"], 0.0, None),
    )
    chi_s = _check_number("single_ensemble.chi", single_d["chi"], 0.0, 1.0)
    eta_s = _check_number("single_ensemble.eta", single_d["eta"], 0.0, 1.0)
    xi_se_s = _check_number("single_ensemble.xi_se", single_d["xi_se"], 0.0, 1.0)
    mode_pair = LinkConfig(
        node_l=EnsembleParams(
            chi=chi_s,
            gamma_0=_check_number("single_ensemble.gamma_0_mfi", single_d["gamma_0_mfi"], 0.0, 1.0),
            decay=single_decay,
            xi_se=xi_se_s,
            z_noise=_check_number("single_ensemble.z_mfi", single_d["z_mfi"], 0.0, 1.0),
            eta=eta_s,
        ),
        node_r=EnsembleParams(
            chi=chi_s,
            gamma_0=_check_number("single_ensemble.gamma_0_mfs", single_d["gamma_0_mfs"], 0.0, 1.0),
            decay=single_decay,
            xi_se=xi_se_s,
            z_noise=_check_number("single_ensemble.z_mfs", single_d["z_mfs"], 0.0, 1.0),
            eta=eta_s,
        ),
        mode_l=SpinWaveMode.mfi(
            _check_number("single_ensemble.mu_prime_mfi", single_d["mu_prime_mfi"], 0.0, None)
        ),
        mode_r=SpinWaveMode.mfs(
            _check_number("single_ensemble.mu_prime_mfs", single_d["mu_prime_mfs"], 0.0, None)
        ),
        # both modes live in one cloud and see one field sample
        noise=NoiseField(
            sigma_b=_check_number("single_ensemble.sigma_b", single_d["sigma_b"], 0.0, None),
            topology=Topology.SHARED,
        ),
        zeta=_check_number("single_ensemble.zeta", single_d["zeta"], 1e-12, 1.0),
        xi_prime=_check_number("single_ensemble.xi_prime", single_d["xi_prime"], 1e-12, 1.0),
    )

    raw_list = table_d["sigma_b_list"]
    if not isinstance(raw_list, list):
        raise ConfigError("table1.sigma_b_list: expected a list of field widths in Gauss")
    sigma_b_list = tuple(
        _check_number(f"table1.sigma_b_list[{i}]", v, 0.0, None) for i, v in enumerate(raw_list)
    )

    mc = McSettings(
        trials=_check_int_range("mc.trials", mc_d["trials"], 1, None),
        seed=_check_int_range("mc.seed", mc_d["seed"], 0, 2**64 - 1),
        theta_points=_check_int_range("mc.theta_points", mc_d["theta_points"], 8, None),
    )

    out_path = out_d["path"]
    if out_path is not None and not isinstance(out_path, str):
        raise ConfigError(f"output.path: expected a string or null, got {out_path!r}")
    output = OutputSettings(
        path=out_path,
        format=_check_choice("output.format", out_d["format"], ("csv", "json")),
    )

    return RunConfig(
        link=link,
        mode_pair=mode_pair,
        sigma_b_list=sigma_b_list,
        t_generation=_check_number("table1.t_generation", table_d["t_generation"], 1e-12, None),
        mc=mc,
        sweep=_sweep_from("sweep", sweep_d),
        sweep_single=_sweep_from("sweep_single", sweep_single_d),
        output=output,
    )


def default_config() -> RunConfig:
    return config_from_dict({})


def load_config(path: str | Path) -> RunConfig:
    """Read and validate a JSON configuration file."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config: file not found: {p}")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: not valid JSON: {exc}") from exc
    return config_from_dict(doc)
