"""Command-line entry point: closed-form curves, Monte-Carlo runs, fits,
the lifetime table and per-figure data files, as deterministic CSV or JSON.

All outputs are pure functions of (configuration, seed): repeated
invocations are byte-identical. CSV files are RFC-4180 style (CRLF line
ends, header row, fixed documented column order) with floats printed to 9
significant digits; JSON files carry full-precision floats in a
``{"columns": [...], "rows": [...]}`` document, which may hold ``NaN``
(the sigma_b error of ``fit``) and ``Infinity`` (tau0 of ``curve`` at
sigma_b = 0): Python's extension to JSON, which strict parsers reject.

Every subcommand takes --config, --output and --format; ``mc`` also takes
--seed, --trials and --theta-points, ``fit`` --seed (:data:`MC_SETTINGS`),
and ``figure`` the required --figure-id.

Exit codes: 0 means the output was written; 1 means it was not, and one
line on stderr starting ``error:`` names the cause (a bad configuration
key, a failed fit, an unreadable or unwritable path, a figure 8 whose
field widths would repeat a column label, as every width does under a
shared supply); 2 is an argparse usage error, such as a flag the
subcommand does not take.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from collections.abc import Sequence
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analysis, model
from .analysis import DecaySeries, FitError
from .config import ConfigError, RunConfig, config_from_dict, read_config, sweep_times
from .params import LinkConfig, NoiseField

FIGURE_IDS = ("4", "5", "6", "7", "8", "S1")
MC_SETTINGS = {"mc": ("seed", "trials", "theta_points"), "fit": ("seed",)}  # the mc flags each subcommand reads

_FIT_NOISE_STREAM = 101  # Philox key offset for the synthetic-fit noise


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def _write_csv(columns: Sequence[str], rows: Sequence[Sequence], stream) -> None:
    writer = csv.writer(stream)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])


def _write_json(columns: Sequence[str], rows: Sequence[Sequence], stream) -> None:
    doc = {"columns": list(columns), "rows": [list(r) for r in rows]}
    json.dump(doc, stream, indent=2, allow_nan=True)
    stream.write("\n")


def write_output(columns: Sequence[str], rows: Sequence[Sequence], cfg: RunConfig) -> None:
    csv_format = cfg.output.format == "csv"
    write = _write_csv if csv_format else _write_json
    if cfg.output.path is None:
        write(columns, rows, sys.stdout)
        return
    path = Path(cfg.output.path)
    with path.open("w", encoding="utf-8", newline="" if csv_format else None) as stream:
        write(columns, rows, stream)


# ---------------------------------------------------------------------------
# subcommands


def cmd_curve(cfg: RunConfig):
    """Closed-form link curves over the sweep grid."""
    times = sweep_times(cfg.sweep)
    pt = model.link_curves(cfg.link, times)
    rows = [
        [float(t), float(gam), float(g), pt.tau_0, float(v), float(c)]
        for t, gam, g, v, c in zip(times, pt.gamma, pt.g, pt.visibility, pt.concurrence)
    ]
    return ["t_s", "gamma", "g", "tau0", "V", "C_param"], rows


def cmd_mc(cfg: RunConfig):
    """Monte-Carlo estimates next to the closed forms, one row per sweep time.

    Per sweep point the engine runs the three measurement modes with the
    configured trial budget each (the fringe splits it over the theta
    bins); sweep point i uses seed + i so points are independent draws.
    """
    # imported here: no other subcommand runs the engine
    from . import stochastic

    times = sweep_times(cfg.sweep)
    mc = cfg.mc
    rows = []
    for i, t in enumerate(times):
        t = float(t)
        seed = (mc.seed + i) % 2**64
        counts = stochastic.merge_counts(
            stochastic.simulate_link_fringe(
                cfg.link, t, trials_per_theta=mc.trials // mc.theta_points, seed=seed, theta_points=mc.theta_points
            ),
            stochastic.merge_counts(
                stochastic.simulate_link_pairs(cfg.link, t, trials=mc.trials, seed=seed),
                stochastic.simulate_link_correlation(cfg.link, t, trials=mc.trials, seed=seed),
            ),
        )
        stats = stochastic.estimate_statistics(counts)
        pt = model.link_curves(cfg.link, t)
        rows.append(
            {
                "t_s": t,
                "V_mc": stats.visibility.value,
                "V_se": stats.visibility.std_error,
                "g_mc": stats.g,
                "g_se": stats.g_std_error,
                "p00": stats.p00,
                "p01": stats.p01,
                "p10": stats.p10,
                "p11": stats.p11,
                "C_mc": stats.concurrence,
                "C_se": stats.concurrence_std_error,
                "V_closed": float(pt.visibility),
                "g_closed": float(pt.g),
                "C_closed": float(pt.concurrence),
            }
        )
    # a sweep has at least two points, so rows[0] names the columns
    return list(rows[0]), [list(row.values()) for row in rows]


def cmd_table1(cfg: RunConfig):
    """Entanglement lifetime and link efficiency per configured field width."""
    rows = [
        [row.sigma_b, row.sigma_delta, row.lifetime, row.eta_link]
        for row in analysis.make_table1(cfg.sigma_b_list, cfg.link, cfg.t_generation)
    ]
    return ["sigma_b", "sigma_delta", "T_s", "eta_link"], rows


def _sigma_column_label(sigma_delta: float) -> str:
    return "c_sigma_delta_" + format(sigma_delta * 1e3, "g").replace(".", "p") + "mG"


def cmd_figure(cfg: RunConfig, figure_id: str):
    """Model-generated data underlying one figure (curves only).

    Figures 6, 7 and S1 sample 0 to 3 ms at ``sweep_single.n_points``
    points, ignoring ``sweep_single``'s t_start, t_end and spacing.
    """
    if figure_id not in FIGURE_IDS:
        raise ConfigError(f"figure: unknown id {figure_id!r}; valid ids: {', '.join(FIGURE_IDS)}")
    if figure_id == "8":
        times = sweep_times(cfg.sweep)
        columns = ["t_s"]
        curves = []
        for sigma_b in cfg.sigma_b_list:
            noise = NoiseField(sigma_b=sigma_b, topology=cfg.link.noise.topology)
            label = _sigma_column_label(noise.sigma_delta)
            if label in columns:
                raise ConfigError(
                    f"figure 8: two field widths give the column {label!r}; "
                    "sigma_delta is 2 sigma_b, or 0 for every width under a shared supply"
                )
            columns.append(label)
            curves.append(model.link_curves(replace(cfg.link, noise=noise), times).concurrence)
        rows = [
            [float(t)] + [float(c[i]) for c in curves] for i, t in enumerate(times)
        ]
        return columns, rows

    # arm a is the MFI mode, arm b the MFS mode; the matched pairing stores
    # both arms in the MFS mode and has no extra contrast loss
    pair = cfg.mode_pair
    mfi, mfs = pair.node_l, pair.node_r
    matched = LinkConfig(mfs, mfs, pair.noise, zeta=pair.zeta)
    if figure_id in ("4", "5"):
        times = sweep_times(cfg.sweep_single)
    else:
        times = np.linspace(0.0, 3.0e-3, cfg.sweep_single.n_points)

    if figure_id == "4":
        columns = ["t_s", "g_mfi", "g_mfs"]
        series = [model.cross_correlation(mfi, times), model.cross_correlation(mfs, times)]
    elif figure_id == "5":
        mixed = model.link_curves(pair, times)
        columns = ["t_s", "v_g", "v_mixed"]
        series = [model.visibility(mixed.g, times, math.inf, zeta=pair.zeta), mixed.visibility]
    elif figure_id == "6":
        columns = ["t_s", "v_matched"]
        series = [model.link_curves(matched, times).visibility]
    elif figure_id == "7":
        columns = ["t_s", "c_mixed", "c_matched"]
        series = [model.link_curves(pair, times).concurrence, model.link_curves(matched, times).concurrence]
    else:  # S1
        columns = ["t_s", "gamma_mfi", "gamma_mfs"]
        series = [
            model.retrieval_efficiency(mfi.gamma_0, mfi.decay, times),
            model.retrieval_efficiency(mfs.gamma_0, mfs.decay, times),
        ]
    rows = [[float(t)] + [float(s[i]) for s in series] for i, t in enumerate(times)]
    return columns, rows


def _rel_error(fitted: float, true: float) -> float:
    """|fitted - true| / true; the absolute error when the true value is 0 or infinite."""
    return abs(fitted - true) / true if true not in (0.0, math.inf) else abs(fitted - true)


def cmd_fit(cfg: RunConfig):
    """Round-trip fit demonstration on synthetic noisy data.

    Generates decay, cross-correlation and visibility series from the
    configured single-ensemble parameters, perturbs them with 2-5%
    multiplicative Gaussian noise (seeded) and reports how well each fitted
    parameter recovers its generating value.
    """
    pair = cfg.mode_pair
    mfi, mfs = pair.node_l, pair.node_r
    rng = np.random.Generator(np.random.Philox(key=(_FIT_NOISE_STREAM << 64) | cfg.mc.seed))
    tau_d = mfi.decay.tau_d
    rows = []

    t_dec = np.linspace(0.05, 3.0, 25) * tau_d
    gamma_true = model.retrieval_efficiency(mfi.gamma_0, mfi.decay, t_dec)
    noisy = gamma_true * (1.0 + 0.02 * rng.standard_normal(t_dec.size))
    res = analysis.fit_decay(DecaySeries(t_dec, noisy), law=mfi.decay.law)
    for name, key, true in (("decay_amplitude", "amplitude", mfi.gamma_0), ("decay_tau", "tau", tau_d)):
        fitted = res.parameters[key]
        rows.append([name, true, fitted, res.std_errors[key], _rel_error(fitted, true)])

    gamma_mfs = model.retrieval_efficiency(mfs.gamma_0, mfs.decay, t_dec)
    noisy_g = model.cross_correlation(mfs, t_dec) * (1.0 + 0.05 * rng.standard_normal(t_dec.size))
    res = analysis.fit_cross_correlation(DecaySeries(t_dec, noisy_g), gamma_mfs, mfs.chi, mfs.z_noise)
    fitted = res.parameters["xi_se"]
    rows.append(["xi_se", mfs.xi_se, fitted, res.std_errors["xi_se"], _rel_error(fitted, mfs.xi_se)])

    tau_0 = model.link_curves(pair, 0.0).tau_0
    t_vis = np.linspace(0.0, 4.0, 25) * (tau_0 if math.isfinite(tau_0) else tau_d)
    pt = model.link_curves(pair, t_vis)
    v_g = model.visibility(pt.g, t_vis, math.inf, zeta=pair.zeta)
    noisy_v = pt.visibility * (1.0 + 0.02 * rng.standard_normal(t_vis.size))
    res = analysis.fit_visibility_dephasing(DecaySeries(t_vis, noisy_v), v_g, abs(mfs.mu_prime - mfi.mu_prime))
    for name, true in (
        ("xi_prime", pair.xi_prime),
        ("tau_0", tau_0),
        ("sigma_b", pair.noise.sigma_b),
    ):
        fitted = res.parameters[name]
        rows.append([name, true, fitted, res.std_errors.get(name, float("nan")), _rel_error(fitted, true)])

    return ["quantity", "true_value", "fitted_value", "std_error", "rel_error"], rows


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dlcz-link",
        description="Simulate and analyze single-excitation entanglement decay "
        "over a two-node spin-wave memory link.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "curve": "closed-form link curves over the sweep grid",
        "mc": "Monte-Carlo estimates next to the closed forms",
        "fit": "synthetic-data fit recovery demonstration",
        "table1": "entanglement lifetime and link efficiency per field width",
        "figure": "model data underlying one figure",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=str, default=None, help="JSON configuration file")
        for key in MC_SETTINGS.get(name, ()):
            p.add_argument("--" + key.replace("_", "-"), type=int, default=None, help=f"override mc.{key}")
        p.add_argument("--output", type=str, default=None, help="output path (default: stdout)")
        p.add_argument("--format", type=str, default=None, choices=("csv", "json"), help="output format")
        if name == "figure":
            p.add_argument("--figure-id", type=str, required=True, choices=FIGURE_IDS)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    flags = {
        "mc": {key: getattr(args, key) for key in MC_SETTINGS.get(args.command, ())},
        "output": {"path": args.output, "format": args.format},
    }
    try:
        cfg = config_from_dict(
            read_config(args.config) if args.config else {},
            {name: {k: v for k, v in given.items() if v is not None} for name, given in flags.items()},
        )
        if args.command == "figure":
            columns, rows = cmd_figure(cfg, args.figure_id)
        else:
            command = {"curve": cmd_curve, "mc": cmd_mc, "fit": cmd_fit, "table1": cmd_table1}[args.command]
            columns, rows = command(cfg)
        write_output(columns, rows, cfg)
    except (FitError, ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # e.g. a sweep grid too large to allocate; numpy names its size
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    return 0
