#!/usr/bin/env python3
"""Benchmark of the dlcz_link engine and CLI, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload concurrence_mc --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

It imports the package from ``src/`` and writes configs, results and spans
under ``.bench_out/``. The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the provenance, the output digest and the human-readable summary.
With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones. See perfbench/README.md for the metric table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from functools import partial
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("concurrence_mc", "mc_sweep", "closed_form_cli")

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}
SETUP_SAMPLES = 5
# a traced run alternates untraced and traced passes; in-process CLI passes
# take milliseconds, so the span count is capped by a pass limit as well
TRACE_MAX_PASSES = 20
# interpreter start -> `dlcz_link.cli` imported -> config built
_SETUP_SCRIPT = (
    "import sys, time\n"
    "import dlcz_link.cli\n"
    "from dlcz_link.config import load_config\n"
    "load_config(sys.argv[1])\n"
    "print(time.monotonic())\n"
)


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(config_path: Path, env: dict) -> list[float]:
    """Fresh-interpreter set-up times; one unmeasured run first writes bytecode."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        start = time.monotonic()  # CLOCK_MONOTONIC is shared with the child
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_SCRIPT, str(config_path)], capture_output=True, env=env, timeout=120
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.decode(errors='replace')[-500:]}")
        if i:
            samples.append(float(proc.stdout.split()[-1]) - start)
    return samples


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None  # not a git checkout
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def timed_pass(op_fns, tracer=None, kind=""):
    """Run one pass; with a tracer each operation is a root span."""
    ops = []
    start = time.perf_counter()
    for fn in op_fns:
        if tracer is None:
            ops.append(fn())
            continue
        with tracer.span(f"bench.{kind}_op") as s:
            op = fn()
        s.attrs.update(label=op.label, bytes=len(op.data), work=op.work)
        ops.append(op)
    return ops, time.perf_counter() - start


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: float):
    import layers
    import workloads as wl
    from spans import Tracer

    OUT.mkdir(exist_ok=True)
    env = child_env()
    config_path = OUT / f"config_{name}_seed{seed}.json"
    cfg = wl.write_config(wl.config_doc(name, seed, scale), config_path)
    setup = [] if trace else measure_setup(config_path, env)

    if name == "closed_form_cli":
        kind, points = "cli", []
        if trace:  # in process, traced or not, so the two passes compare
            op_fns = [partial(wl.run_cli_in_process, inv, config_path, cfg) for inv in wl.CLI_INVOCATIONS]
        else:
            op_fns = [partial(wl.run_cli_subprocess, inv, config_path, cfg, env) for inv in wl.CLI_INVOCATIONS]
    else:
        kind, points = "mc", wl.mc_points(name, cfg, scale)
        op_fns = [partial(wl.run_mc_point, cfg, p) for p in points]

    tracer = Tracer()
    passes = []  # (traced, seconds, ops)
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(passes) % 2 == 1
        tracer.group = f"pass{len(passes)}"
        if traced:
            with tracer.installed(layers.TARGETS):
                ops, secs = timed_pass(op_fns, tracer, kind)
        else:
            ops, secs = timed_pass(op_fns)
        passes.append((traced, secs, ops))
        if trace and len(passes) >= TRACE_MAX_PASSES:
            break
        if time.perf_counter() >= deadline and len(passes) >= (2 if trace else 1):
            break

    all_ops = [op for _, _, ops in passes for op in ops]
    z_ops = all_ops
    if trace:
        # the layers this workload never reaches, measured by a fixed probe pass
        tracer.group = "probe"
        if kind == "cli":
            probe_path = OUT / f"config_probe_mc_seed{seed}.json"
            probe_cfg = wl.write_config(wl.config_doc("mc_sweep", seed), probe_path)
            probe_fns = [partial(wl.run_mc_point, probe_cfg, p) for p in wl.probe_points(probe_cfg)]
            probe_kind = "mc"
        else:
            probe_path = OUT / f"config_probe_cli_seed{seed}.json"
            probe_cfg = wl.write_config(wl.config_doc("closed_form_cli", seed), probe_path)
            probe_fns = [partial(wl.run_cli_in_process, inv, probe_path, probe_cfg) for inv in wl.CLI_INVOCATIONS]
            probe_kind = "cli"
        with tracer.installed(layers.TARGETS):
            probe_ops, _ = timed_pass(probe_fns, tracer, probe_kind)
        all_ops += probe_ops
        if kind == "cli":
            z_ops = probe_ops

    digests = {wl.digest(ops) for _, _, ops in passes}
    errors = [f"{op.label}: {op.error}" for op in all_ops if op.error]
    attempted, failed = len(all_ops), len(errors)
    correct = failed == 0 and len(digests) == 1
    if len(digests) != 1:
        errors.append(f"passes disagree: {len(digests)} distinct output digests for one seed")
    untraced = [secs for traced, secs, _ in passes if not traced]
    untraced_ops = [op for traced, _, ops in passes if not traced for op in ops]
    max_z = max((op.z_concurrence for op in z_ops if op.z_concurrence is not None), default=None)

    if trace:
        traced_secs = [secs for traced, secs, _ in passes if traced]
        metrics = {
            **layers.import_times(env),
            "config.load_config_s": layers.load_config_time(config_path),
            **layers.span_metrics(tracer, {f"pass{i}" for i, p in enumerate(passes) if p[0]}, "probe"),
            "stochastic.max_abs_z_C": -1.0 if max_z is None else max_z,
            "failed_frac": failed / attempted,
            "trace.overhead_frac": statistics.median(traced_secs) / statistics.median(untraced) - 1.0,
        }
        units = layers.LAYER_UNITS
        tracer.dump(OUT / f"spans_{name}_seed{seed}.json")
    else:
        who = resource.RUSAGE_CHILDREN if kind == "cli" else resource.RUSAGE_SELF
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(untraced),
            "work_per_s": sum(op.work for op in untraced_ops) / sum(untraced),
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - failed / attempted,
        }
        units = E2E_UNITS

    op_secs = [op.seconds for op in untraced_ops]
    by_label: dict[str, list[float]] = {}
    for op in untraced_ops:
        by_label.setdefault(op.label, []).append(op.seconds)
    summary = {
        "passes": len(passes),
        "pass_s": [secs for _, secs, _ in passes],
        "work_per_pass": sum(op.work for op in passes[0][2]),
        "work_unit": "trials" if kind == "mc" else "invocations",
        "op_samples": len(op_secs),
        "op_p50_s": statistics.median(op_secs),
        "op_p90_s": statistics.quantiles(op_secs, n=10)[-1] if len(op_secs) > 1 else op_secs[0],
        "op_p50_s_by_label": {k: statistics.median(v) for k, v in by_label.items()},
        "setup_samples_s": setup,
        "max_abs_z_C": max_z,
    }
    report = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "digest": digests.pop() if len(digests) == 1 else sorted(digests),
        "summary": summary,
        "errors": errors[:20],
        "provenance": {
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": version("numpy"),
            "scipy": version("scipy"),
            "git_commit": git_commit(),
            "workload": name,
            "seed": seed,
            "program_seed": cfg.mc.seed,
            "scale": scale,
            "chunk_sizes": sorted({p.chunk_size for p in points}),
        },
    }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    (OUT / f"result_{name}_seed{seed}_trace{int(trace)}.json").write_text(
        json.dumps({"report": report, "result": result}, indent=1) + "\n", encoding="utf-8"
    )
    return report, result


def run_all(args) -> int:
    """Every workload in its own process; prints a metric table and a combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", str(args.scale)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr, end="")
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        for key in ("attempted", "failed"):
            combined[key] += result[key]
        combined["correct"] = combined["correct"] and result["correct"]
        for metric, m in result["metrics"].items():
            print(f"{name:16s} {metric:45s} {m['value']:>16.6g} {m['unit']}")
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to keep repeating passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="multiplier on the Monte-Carlo budgets")
    args = parser.parse_args(argv)
    if not (SRC / "dlcz_link" / "__init__.py").is_file():
        print(f"error: no dlcz_link package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    try:
        report, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
