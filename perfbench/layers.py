"""Per-layer metrics: import time, config load, and what the traced spans show.

Every metric is reported per workload. A traced workload that never reaches
a layer (the engine from `closed_form_cli`, `analysis`/`cli` from the
Monte-Carlo workloads) takes that layer's numbers from a fixed probe pass
run after the workload, so every metric is measured on every workload.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from pathlib import Path

from dlcz_link import analysis, cli, model, stochastic
from dlcz_link.config import load_config

from spans import Target, Tracer

MODES = ("pairs", "fringe", "correlation")

LAYER_UNITS = {
    "import.numpy_s": "s",
    "import.scipy_constants_s": "s",
    "import.scipy_special_s": "s",
    "import.scipy_optimize_s": "s",
    "import.dlcz_link_s": "s",
    "config.load_config_s": "s",
    "stochastic.trial_uniforms.ms_per_Mtrial": "ms/Mtrial",
    **{f"stochastic.simulate_link_{m}.ms_per_Mtrial": "ms/Mtrial" for m in MODES},
    **{f"stochastic.{m}.kernel_tally_ms_per_Mtrial": "ms/Mtrial" for m in MODES},
    **{f"stochastic.{m}.trials": "count" for m in MODES},
    **{f"stochastic.{m}.heralds": "count" for m in MODES},
    **{f"stochastic.{m}.herald_frac": "fraction" for m in MODES},
    "stochastic.chunks": "count",
    "stochastic.chunk_bytes": "B",
    "stochastic.estimate_statistics_s": "s",
    "stochastic.estimate_statistics.calls": "count",
    "stochastic.merge_counts_s": "s",
    "stochastic.merge_counts.calls": "count",
    "model.link_curves_s": "s",
    "model.link_curves.calls": "count",
    "analysis.make_table1_s": "s",
    "analysis.entanglement_lifetime_s": "s",
    "analysis.entanglement_lifetime.calls": "count",
    "analysis.fit_decay_s": "s",
    "analysis.fit_cross_correlation_s": "s",
    "analysis.fit_visibility_dephasing_s": "s",
    "cli.cmd_curve_s": "s",
    "cli.cmd_table1_s": "s",
    "cli.cmd_fit_s": "s",
    "cli.cmd_figure_s": "s",
    "cli.write_output_s": "s",
    "cli.output_bytes": "B",
    "stochastic.max_abs_z_C": "SE",
    "failed_frac": "fraction",
    "trace.overhead_frac": "fraction",
}

# the modules whose first import -X importtime reports, cumulative
IMPORT_MODULES = {
    "import.numpy_s": "numpy",
    "import.scipy_constants_s": "scipy.constants",
    "import.scipy_special_s": "scipy.special",
    "import.scipy_optimize_s": "scipy.optimize",
    "import.dlcz_link_s": "dlcz_link.cli",
}
# the package first, so each library is charged where the package pays for
# it; a library the package stops importing is then timed on its own
_IMPORT_SCRIPT = "import dlcz_link.cli\nimport numpy, scipy.constants, scipy.special, scipy.optimize\n"
IMPORT_SAMPLES = 3
CONFIG_LOAD_SAMPLES = 25

# functions timed per pass; the name is the span name
_TIMED = (
    ("stochastic.estimate_statistics", True),
    ("stochastic.merge_counts", True),
    ("model.link_curves", True),
    ("analysis.make_table1", False),
    ("analysis.entanglement_lifetime", True),
    ("analysis.fit_decay", False),
    ("analysis.fit_cross_correlation", False),
    ("analysis.fit_visibility_dephasing", False),
    ("cli.cmd_curve", False),
    ("cli.cmd_table1", False),
    ("cli.cmd_fit", False),
    ("cli.cmd_figure", False),
    ("cli.write_output", False),
)


def _fringe_heralds(r) -> int:
    # D_S1 heralds plus the disjoint D_S2-only heralds of the flipped fringe
    return r.n_heralds + sum(b.n_heralds for b in r.theta_bins_alt)


TARGETS: tuple[Target, ...] = (
    (stochastic, "trial_uniforms", lambda u: {"rows": int(u.shape[0])}),
    (stochastic, "simulate_link_pairs", lambda r: {"trials": r.pair_trials, "heralds": r.pair_heralds}),
    (stochastic, "simulate_link_fringe", lambda r: {"trials": r.n_trials, "heralds": _fringe_heralds(r)}),
    (
        stochastic,
        "simulate_link_correlation",
        # Stokes singles are the conditioning events of g
        lambda r: {"trials": r.correlation_trials, "heralds": sum(c.n_stokes for c in r.correlation)},
    ),
    (stochastic, "merge_counts", None),
    (stochastic, "estimate_statistics", None),
    (model, "link_curves", None),
    (analysis, "make_table1", None),
    (analysis, "entanglement_lifetime", None),
    (analysis, "fit_decay", None),
    (analysis, "fit_cross_correlation", None),
    (analysis, "fit_visibility_dephasing", None),
    (cli, "cmd_curve", None),
    (cli, "cmd_table1", None),
    (cli, "cmd_fit", None),
    (cli, "cmd_figure", None),
    (cli, "write_output", None),
)


def import_times(env: dict) -> dict[str, float]:
    """Median cumulative import time per module over fresh interpreters."""
    samples: dict[str, list[float]] = {k: [] for k in IMPORT_MODULES}
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", _IMPORT_SCRIPT],
            capture_output=True,
            env=env,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr.decode(errors='replace')[-500:]}")
        cumulative: dict[str, int] = {}
        for line in proc.stderr.decode().splitlines():
            parts = line.removeprefix("import time:").split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]))
        for key, module in IMPORT_MODULES.items():
            samples[key].append(cumulative[module] * 1e-6)
    return {k: statistics.median(v) for k, v in samples.items()}


def load_config_time(path: Path) -> float:
    times = []
    for _ in range(CONFIG_LOAD_SAMPLES):
        start = time.perf_counter()
        load_config(path)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def span_metrics(tracer: Tracer, passes: set[str], probe: str) -> dict[str, float]:
    """Per-pass layer numbers from the traced passes, or the probe if unreached."""
    own = tracer.self_ns()

    def pick(name: str):
        spans = [s for s in tracer.spans if s.name == name and s.group in passes]
        if spans:
            return spans, len(passes)
        return [s for s in tracer.spans if s.name == name and s.group == probe], 1

    out: dict[str, float] = {}
    rng, n = pick("stochastic.trial_uniforms")
    rows = sum(s.attrs["rows"] for s in rng)
    out["stochastic.trial_uniforms.ms_per_Mtrial"] = sum(s.ns for s in rng) / rows
    out["stochastic.chunks"] = len(rng) / n
    out["stochastic.chunk_bytes"] = max(s.attrs["rows"] for s in rng) * stochastic.WORDS_PER_TRIAL * 8
    for mode in MODES:
        sims, n = pick(f"stochastic.simulate_link_{mode}")
        trials = sum(s.attrs["trials"] for s in sims)
        heralds = sum(s.attrs["heralds"] for s in sims)
        # ns per trial == ms per million trials
        out[f"stochastic.simulate_link_{mode}.ms_per_Mtrial"] = sum(s.ns for s in sims) / trials
        out[f"stochastic.{mode}.kernel_tally_ms_per_Mtrial"] = sum(own[s.id] for s in sims) / trials
        out[f"stochastic.{mode}.trials"] = trials / n
        out[f"stochastic.{mode}.heralds"] = heralds / n
        out[f"stochastic.{mode}.herald_frac"] = heralds / trials
    for name, with_calls in _TIMED:
        spans, n = pick(name)
        out[f"{name}_s"] = sum(s.ns for s in spans) * 1e-9 / n
        if with_calls:
            out[f"{name}.calls"] = len(spans) / n
    ops, n = pick("bench.cli_op")
    out["cli.output_bytes"] = sum(s.attrs["bytes"] for s in ops) / n
    return out
