"""Byte-identity of CLI outputs and engine records against committed golden files.

The golden files in ``tests/golden/`` pin what a refactor must not change:
the CSV of every closed-form subcommand on the default configuration, the
closed-form outputs that read the decay law under the Gaussian law, the
CSV and JSON of ``mc`` on a small configuration, and a sha256 digest of
each engine record (fringe, pair and correlation mode) for the default
link, a jittered link, a link at chi = 30% where double pairs are common,
and the two single-ensemble mode pairings.

After a deliberate output change, rewrite the golden files with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import hashlib
import json
import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest

from dlcz_link import BOHR_MAGNETON_HZ_PER_G
from dlcz_link import stochastic as st
from dlcz_link.cli import FIGURE_IDS, main
from dlcz_link.config import config_from_dict

GOLDEN = Path(__file__).parent / "golden"

MC_CONFIG = {
    "link": {"chi": 0.03, "eta": 0.4},
    "sweep": {"t_start": 1e-3, "t_end": 0.1, "n_points": 4, "spacing": "log"},
    "mc": {"trials": 20_000, "seed": 2024, "theta_points": 12},
}

# both sections on the Gaussian decay law; the default config is exponential
GAUSS_CONFIG = {"link": {"decay_law": "gaussian"}, "single_ensemble": {"decay_law": "gaussian"}}

# output file name -> CLI arguments; "{mc}" and "{gauss}" stand for the paths
# of MC_CONFIG and GAUSS_CONFIG
CLI_CASES = {
    "curve.csv": ["curve"],
    "table1.csv": ["table1"],
    "fit.csv": ["fit"],
    **{f"figure_{fid}.csv": ["figure", "--figure-id", fid] for fid in FIGURE_IDS},
    "mc.csv": ["mc", "--config", "{mc}"],
    "mc.json": ["mc", "--config", "{mc}", "--format", "json"],
    **{f"gauss_{cmd}.csv": [cmd, "--config", "{gauss}"] for cmd in ("curve", "table1", "fit")},
    "gauss_figure_S1.csv": ["figure", "--figure-id", "S1", "--config", "{gauss}"],
}

# engine setups at chi = 3%, eta = 0.4, so that every tally is populated
BRIGHT = {"chi": 0.03, "eta": 0.4}
# the matched pairing: both modes field-sensitive with the MFS write/read
# parameters, and no extra contrast loss
MATCHED = {
    **BRIGHT,
    "mu_prime_mfi": BOHR_MAGNETON_HZ_PER_G,
    "gamma_0_mfi": 0.17,
    "z_mfi": 3.3e-4,
    "xi_prime": 1.0,
}


def cli_output(name: str, workdir: Path) -> bytes:
    paths = {}
    for key, doc in (("{mc}", MC_CONFIG), ("{gauss}", GAUSS_CONFIG)):
        paths[key] = workdir / f"{key[1:-1]}_config.json"
        paths[key].write_text(json.dumps(doc))
    out = workdir / name
    args = [str(paths.get(a, a)) for a in CLI_CASES[name]]
    assert main([*args, "--output", str(out)]) == 0
    return out.read_bytes()


def record_digests() -> dict[str, str]:
    setups = {
        "link": (config_from_dict({"link": BRIGHT}).link, 0.01),
        # the Gaussian phase jitter, and the two-pair rows of both arms
        "jittered": (config_from_dict({"link": {**BRIGHT, "residual_phase_jitter": 0.3}}).link, 0.01),
        "doubles": (config_from_dict({"link": {**BRIGHT, "chi": 0.3}}).link, 0.01),
        "mixed": (config_from_dict({"single_ensemble": BRIGHT}).mode_pair, 30e-6),
        "matched": (config_from_dict({"single_ensemble": MATCHED}).mode_pair, 30e-6),
    }
    digests = {}
    for name, (setup, t) in setups.items():
        records = {
            "fringe": st.simulate_link_fringe(setup, t, trials_per_theta=20_000, seed=71),
            "pairs": st.simulate_link_pairs(setup, t, trials=60_000, seed=72),
            "correlation": st.simulate_link_correlation(setup, t, trials=60_000, seed=73),
        }
        for mode, record in records.items():
            text = json.dumps(asdict(record), sort_keys=True)
            digests[f"{name}.{mode}"] = hashlib.sha256(text.encode()).hexdigest()
    return digests


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_output_matches_golden(name, tmp_path):
    assert cli_output(name, tmp_path) == (GOLDEN / name).read_bytes()


# the doubles link leaves the closed form's chi << 1 regime on purpose
@pytest.mark.filterwarnings("ignore:chi = .* is outside:UserWarning")
def test_engine_records_match_golden():
    assert record_digests() == json.loads((GOLDEN / "records.json").read_text())


def test_golden_files_are_the_cases():
    # a golden file no case writes, say one orphaned by a rename, would never be compared
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted([*CLI_CASES, "records.json"])


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in CLI_CASES:
            (GOLDEN / case).write_bytes(cli_output(case, Path(tmp)))
    (GOLDEN / "records.json").write_text(json.dumps(record_digests(), indent=2, sort_keys=True) + "\n")
