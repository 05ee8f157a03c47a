"""Process footprint: which libraries the CLI loads and how much memory the engine holds.

Each check runs in a fresh interpreter, since both ``sys.modules`` and the
peak resident set of the test process carry the history of every test
before it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest


SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = Path(__file__).parent / "golden"


def run_python(code: str) -> str:
    """stdout of ``code`` run by a fresh interpreter that imports from ``src/``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def scipy_modules(modules: list[str]) -> list[str]:
    return [m for m in modules if m == "scipy" or m.startswith("scipy.")]


@pytest.fixture(scope="module")
def closed_form_run(tmp_path_factory) -> dict:
    """Loaded modules and live threads after ``curve``, ``table1`` and every figure in a fresh interpreter."""
    code = f"""
import json, sys, threading
from dlcz_link import cli

out = {str(tmp_path_factory.mktemp("closed_form") / "out.csv")!r}
for argv in [["curve"], ["table1"]] + [["figure", "--figure-id", fid] for fid in cli.FIGURE_IDS]:
    assert cli.main([*argv, "--output", out]) == 0, argv
print(json.dumps({{"modules": sorted(sys.modules), "threads": threading.active_count()}}))
"""
    return json.loads(run_python(code))


def test_cli_import_loads_neither_scipy_nor_the_engine():
    code = "import json, sys\nimport dlcz_link.cli\nprint(json.dumps(sorted(sys.modules)))"
    modules = json.loads(run_python(code))
    assert scipy_modules(modules) == []
    assert "dlcz_link.stochastic" not in modules


def test_closed_form_subcommands_load_no_scipy(closed_form_run):
    # curve, table1 and the figures are closed forms over numpy, and the
    # lifetime roots are a transcribed Brent method; scipy (about 0.5 s of
    # imports) is for fits and jittered fringe runs only
    assert scipy_modules(closed_form_run["modules"]) == []


def test_closed_form_subcommands_do_not_load_the_engine(closed_form_run):
    # dlcz_link.stochastic (about 15 ms to import) is for mc only
    assert "dlcz_link.stochastic" not in closed_form_run["modules"]


def test_table1_runs_with_scipy_unimportable(tmp_path):
    out = tmp_path / "table1.csv"
    code = f"""
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from dlcz_link import cli
raise SystemExit(cli.main(["table1", "--output", {str(out)!r}]))
"""
    run_python(code)
    assert out.read_bytes() == (GOLDEN / "table1.csv").read_bytes()


def test_closed_form_subcommands_start_no_thread(closed_form_run):
    assert "concurrent.futures" not in closed_form_run["modules"]
    assert closed_form_run["threads"] == 1


# one block of 2^13 candidates x 24 words x 8 B, the most words a driver draws at once
BLOCK_BYTES = 1_572_864


def engine_footprint(call: str) -> dict:
    """Peak memory growth, live threads and loaded modules around ``call`` on the chi = 3% link in a fresh interpreter.

    ``call`` is a driver call with ``{trials}`` in place of its budget. A
    run of 1000 trials first keeps the one-time costs of the first call
    out of the growth.
    """
    code = f"""
import json, resource, sys, threading
from dlcz_link import stochastic as st
from dlcz_link.config import config_from_dict

link = config_from_dict({{"link": {{"chi": 0.03}}}}).link
{call.format(trials=1000)}
threads = threading.active_count()
base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
{call.format(trials="3 << 20")}
grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base
print(json.dumps({{"grown": grown, "threads": [threads, threading.active_count()], "modules": sorted(sys.modules)}}))
"""
    return json.loads(run_python(code))


@pytest.fixture(scope="module")
def engine_run() -> dict:
    """The footprint of a pair run of 3 x 2^20 trials.

    At chi = 3% about 6% of the trials are candidates, so the run draws
    about 24 blocks.
    """
    return engine_footprint("st.simulate_link_pairs(link, 0.01, trials={trials}, seed=1, chunk_size=1 << 20)")


@pytest.fixture(scope="module")
def fringe_run() -> dict:
    """The footprint of a fringe run of 3 x 2^20 trials without phase jitter, over the default 12 bins."""
    return engine_footprint(
        "st.simulate_link_fringe(link, 0.01, trials_per_theta=({trials}) // 12, seed=1, chunk_size=1 << 20)"
    )


def assert_one_block(run: dict) -> None:
    # ru_maxrss is in kB on Linux and in bytes on macOS
    grown = run["grown"] * (1 if sys.platform == "darwin" else 1024)
    assert grown < 1.5 * BLOCK_BYTES, f"peak grew by {grown / BLOCK_BYTES:.2f} blocks"


def test_drivers_hold_one_uniform_chunk_at_a_time(engine_run):
    assert_one_block(engine_run)


def test_fringe_run_holds_one_uniform_chunk_at_a_time(fringe_run):
    # the fringe kernel's phase temporaries cover its coherent rows only
    assert_one_block(fringe_run)


def test_engine_starts_no_thread(engine_run):
    # every stage of the engine runs on the calling thread
    assert engine_run["threads"] == [1, 1]
    assert "concurrent.futures" not in engine_run["modules"]


def test_fringe_run_starts_no_thread(fringe_run):
    assert fringe_run["threads"] == [1, 1]
    assert "concurrent.futures" not in fringe_run["modules"]


def test_unjittered_fringe_run_loads_no_scipy(fringe_run):
    # scipy.special's ndtri is imported only for a jitter_rms > 0
    assert scipy_modules(fringe_run["modules"]) == []
