"""The benchmark's workloads: generated configs, operations, checks, digests.

An operation is one Monte-Carlo point or one CLI invocation. A pass is the
workload's fixed list of operations, run one after another by a single
closed-loop caller; the benchmark repeats passes until its time is up.
"""

from __future__ import annotations

import csv
import hashlib
import inspect
import io
import json
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass
from pathlib import Path

from dlcz_link import cli, model, stochastic
from dlcz_link.config import RunConfig, load_config, sweep_times

# test_criterion_6: (storage time, fringe trials per theta bin, pair trials)
# per grid point, plus 2M correlation trials per point; 250M pair, 61.2M
# fringe and 4M correlation trials in all. Every budget is scaled by one
# factor so that a pass takes a few seconds on two cores.
CRITERION6_POINTS = ((0.0, 1_700_000, 100_000_000), (25e-3, 3_400_000, 150_000_000))
CRITERION6_CORRELATION_TRIALS = 2_000_000
CRITERION6_SCALE = 1 / 64
CRITERION6_CHUNK = 1 << 20

# mc_sweep: trials per mode per point (the `mc.trials` of `dlcz-link mc`)
SWEEP_TRIALS = 400_000
SWEEP_POINTS = 8

# engine probe for traced runs of a workload that never reaches the engine
PROBE_TRIALS = 1 << 18
PROBE_T = 1e-3

DEFAULT_CHUNK = inspect.signature(stochastic.simulate_link_pairs).parameters["chunk_size"].default

# documented CLI columns; row counts come from the config
CLI_INVOCATIONS = (
    ("curve",),
    ("table1",),
    ("fit",),
    ("figure", "4"),
    ("figure", "5"),
    ("figure", "6"),
    ("figure", "7"),
    ("figure", "8"),
    ("figure", "S1"),
)
_CLI_COLUMNS = {
    "curve": "t_s,gamma,g,tau0,V,C_param",
    "table1": "sigma_b,sigma_delta,T_s,eta_link",
    "fit": "quantity,true_value,fitted_value,std_error,rel_error",
    "4": "t_s,g_mfi,g_mfs",
    "5": "t_s,v_g,v_mixed",
    "6": "t_s,v_matched",
    "7": "t_s,c_mixed,c_matched",
    "8": "t_s,c_sigma_delta_4mG,c_sigma_delta_2mG,c_sigma_delta_0p4mG,c_sigma_delta_0mG",
    "S1": "t_s,gamma_mfi,gamma_mfs",
}
FIT_ROWS = 6


def derive_seed(label: str, seed: int) -> int:
    """64-bit program seed from the benchmark seed; distinct per workload."""
    return int.from_bytes(hashlib.sha256(f"{label}:{seed}".encode()).digest()[:8], "big")


def config_doc(workload: str, seed: int, scale: float = 1.0) -> dict:
    """The JSON config the program receives for a workload and seed."""
    mc_seed = derive_seed(workload, seed)
    if workload == "concurrence_mc":
        return {"link": {"eta": 0.4, "sigma_b": 2.0e-4}, "mc": {"seed": mc_seed}}
    if workload == "mc_sweep":
        return {
            "link": {"chi": 0.03, "eta": 0.4, "sigma_b": 2.0e-4},
            "sweep": {"n_points": SWEEP_POINTS},
            "mc": {"trials": max(12, round(SWEEP_TRIALS * scale)), "seed": mc_seed},
        }
    if workload == "closed_form_cli":
        return {"mc": {"seed": mc_seed}}
    raise ValueError(f"unknown workload {workload!r}")


def write_config(doc: dict, path: Path) -> RunConfig:
    path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
    return load_config(path)


@dataclass
class Op:
    label: str
    seconds: float
    error: str | None  # None when every check passed
    data: bytes  # canonical output, hashed into the pass digest
    work: int  # simulated trials, or 1 per CLI invocation
    z_concurrence: float | None = None  # |C_mc - C_closed| / SE


def digest(ops: list[Op]) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(op.label.encode() + b"\0" + op.data + b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Monte-Carlo points


@dataclass(frozen=True)
class McPoint:
    t: float
    trials_per_theta: int
    pair_trials: int
    correlation_trials: int
    seed: int
    chunk_size: int


def run_mc_point(cfg: RunConfig, p: McPoint) -> Op:
    """Fringe + pairs + correlation -> merge -> estimate, as `dlcz-link mc` does.

    Every call goes through the module attributes so a traced run sees it.
    """
    link = cfg.link
    label = f"t={p.t!r}"
    trials = p.trials_per_theta * cfg.mc.theta_points + p.pair_trials + p.correlation_trials
    start = time.perf_counter()
    data, error, z = b"", None, None
    try:
        fringe = stochastic.simulate_link_fringe(
            link,
            p.t,
            trials_per_theta=p.trials_per_theta,
            seed=p.seed,
            theta_points=cfg.mc.theta_points,
            chunk_size=p.chunk_size,
        )
        pairs = stochastic.simulate_link_pairs(link, p.t, trials=p.pair_trials, seed=p.seed, chunk_size=p.chunk_size)
        corr = stochastic.simulate_link_correlation(
            link, p.t, trials=p.correlation_trials, seed=p.seed, chunk_size=p.chunk_size
        )
        counts = stochastic.merge_counts(fringe, stochastic.merge_counts(pairs, corr))
        data = json.dumps(asdict(counts), sort_keys=True, separators=(",", ":")).encode()
        closed = float(model.link_curves(link, p.t).concurrence)
        stats = stochastic.estimate_statistics(counts)
        if stats.concurrence_std_error > 0.0:
            z = abs(stats.concurrence - closed) / stats.concurrence_std_error
    except Exception as exc:  # a failed point is counted; the pass goes on
        error = f"{type(exc).__name__}: {exc}"
    return Op(label, time.perf_counter() - start, error, data, trials, z)


def mc_points(workload: str, cfg: RunConfig, scale: float) -> list[McPoint]:
    seed = cfg.mc.seed
    if workload == "concurrence_mc":
        f = CRITERION6_SCALE * scale
        return [
            McPoint(
                t=t,
                trials_per_theta=max(1, round(per_theta * f)),
                pair_trials=max(1, round(pairs * f)),
                correlation_trials=max(1, round(CRITERION6_CORRELATION_TRIALS * f)),
                seed=(seed + i) % 2**64,
                chunk_size=CRITERION6_CHUNK,
            )
            for i, (t, per_theta, pairs) in enumerate(CRITERION6_POINTS)
        ]
    # mc_sweep: equal budgets per mode, fringe split over the theta bins,
    # seed + i at point i, default chunk size
    per_theta = max(1, cfg.mc.trials // cfg.mc.theta_points)
    return [
        McPoint(float(t), per_theta, cfg.mc.trials, cfg.mc.trials, (seed + i) % 2**64, DEFAULT_CHUNK)
        for i, t in enumerate(sweep_times(cfg.sweep))
    ]


def probe_points(cfg: RunConfig) -> list[McPoint]:
    per_theta = PROBE_TRIALS // cfg.mc.theta_points
    return [McPoint(PROBE_T, per_theta, PROBE_TRIALS, PROBE_TRIALS, cfg.mc.seed, DEFAULT_CHUNK)]


# ---------------------------------------------------------------------------
# CLI invocations


def cli_argv(invocation: tuple[str, ...], config_path: Path) -> list[str]:
    argv = [invocation[0], "--config", str(config_path)]
    if invocation[0] == "figure":
        argv += ["--figure-id", invocation[1]]
    return argv


def expected_table(invocation: tuple[str, ...], cfg: RunConfig) -> tuple[list[str], int]:
    key = invocation[-1]
    if key in ("curve", "8"):
        rows = cfg.sweep.n_points
    elif key == "table1":
        rows = len(cfg.sigma_b_list)
    elif key == "fit":
        rows = FIT_ROWS
    else:
        rows = cfg.sweep_single.n_points
    return _CLI_COLUMNS[key].split(","), rows


def check_cli(code, out: bytes, err: str, expected: tuple[list[str], int]) -> str | None:
    """None if the invocation succeeded and wrote the documented table."""
    if code != 0:
        return f"exit code {code}: {err.strip()[-300:]}"
    if "error:" in err or "Traceback" in err:
        return f"stderr: {err.strip()[-300:]}"
    columns, n_rows = expected
    table = list(csv.reader(io.StringIO(out.decode("utf-8"))))
    if not table or table[0] != columns:
        return f"header {table[0] if table else None} != {columns}"
    if len(table) - 1 != n_rows:
        return f"{len(table) - 1} rows, expected {n_rows}"
    if any(len(row) != len(columns) for row in table[1:]):
        return "row width differs from the header"
    return None


def run_cli_subprocess(invocation, config_path: Path, cfg: RunConfig, env: dict) -> Op:
    """One `dlcz-link` invocation in a fresh interpreter, timed from spawn to exit."""
    argv = cli_argv(invocation, config_path)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "dlcz_link", *argv], capture_output=True, env=env, timeout=120
    )
    seconds = time.perf_counter() - start
    err = proc.stderr.decode("utf-8", "replace")
    error = check_cli(proc.returncode, proc.stdout, err, expected_table(invocation, cfg))
    return Op(" ".join(invocation), seconds, error, proc.stdout, 1)


def run_cli_in_process(invocation, config_path: Path, cfg: RunConfig) -> Op:
    """The same invocation through `cli.main`, so a traced run sees its calls."""
    argv = cli_argv(invocation, config_path)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an uncaught program error fails the invocation
        code, err = 1, io.StringIO(f"Traceback: {type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    data = out.getvalue().encode("utf-8")
    error = check_cli(code, data, err.getvalue(), expected_table(invocation, cfg))
    return Op(" ".join(invocation), seconds, error, data, 1)

