"""Command-line interface: dispatch, output contracts, determinism."""

import csv
import json
import math
import subprocess
import sys

import pytest

from dlcz_link import cli
from dlcz_link.cli import main

SMALL_SWEEP = {
    "sweep": {"t_start": 1e-3, "t_end": 0.2, "n_points": 5, "spacing": "log"},
    "mc": {"trials": 60000, "seed": 11, "theta_points": 12},
}


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(args):
    return main(list(args))


class TestCurve:
    def test_columns_and_zero_delay_row(self, tmp_path):
        cfg = write_config(tmp_path, {"sweep": {"t_start": 0.0, "t_end": 0.1, "n_points": 3, "spacing": "linear"}})
        out = tmp_path / "curve.csv"
        assert run_cli(["curve", "--config", cfg, "--output", str(out)]) == 0
        with out.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t_s", "gamma", "g", "tau0", "V", "C_param"]
        assert float(rows[1][0]) == 0.0
        assert float(rows[1][1]) == 0.76  # gamma(0) = gamma_0

    def test_byte_identical_runs(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_SWEEP)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["curve", "--config", cfg, "--output", str(a)])
        run_cli(["curve", "--config", cfg, "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_csv_is_rfc4180_style(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_SWEEP)
        out = tmp_path / "curve.csv"
        run_cli(["curve", "--config", cfg, "--output", str(out)])
        raw = out.read_bytes()
        assert b"\r\n" in raw
        first_value = raw.split(b"\r\n")[1].split(b",")[0].decode()
        # 9 significant digits, '.' decimal separator
        assert first_value == format(1e-3, ".9g")


class TestMc:
    def test_deterministic_and_close_to_model(self, tmp_path):
        doc = {
            "link": {"eta": 0.4},
            "sweep": {"t_start": 1e-3, "t_end": 0.02, "n_points": 2, "spacing": "log"},
            "mc": {"trials": 120000, "seed": 5, "theta_points": 12},
            "output": {"format": "json"},
        }
        cfg = write_config(tmp_path, doc)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(["mc", "--config", cfg, "--output", str(a)]) == 0
        assert run_cli(["mc", "--config", cfg, "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        doc = json.loads(a.read_text())
        cols = doc["columns"]
        for row in doc["rows"]:
            rec = dict(zip(cols, row))
            assert abs(rec["V_mc"] - rec["V_closed"]) <= 3.0 * rec["V_se"]
            assert abs(rec["g_mc"] - rec["g_closed"]) <= 3.0 * rec["g_se"]

    def test_seed_override_changes_output(self, tmp_path):
        doc = dict(SMALL_SWEEP)
        doc["link"] = {"eta": 0.4}
        doc["sweep"] = {"t_start": 1e-3, "t_end": 0.02, "n_points": 2, "spacing": "log"}
        cfg = write_config(tmp_path, doc)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["mc", "--config", cfg, "--output", str(a)])
        run_cli(["mc", "--config", cfg, "--output", str(b), "--seed", "77"])
        assert a.read_bytes() != b.read_bytes()


class TestTable1:
    def test_single_shared_row(self, tmp_path):
        cfg = write_config(tmp_path, {"table1": {"sigma_b_list": [0.0]}})
        out = tmp_path / "t.csv"
        run_cli(["table1", "--config", cfg, "--output", str(out)])
        with out.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sigma_b", "sigma_delta", "T_s", "eta_link"]
        assert len(rows) == 2
        assert float(rows[1][2]) == pytest.approx(1.7, rel=0.1)

    def test_empty_list_header_only(self, tmp_path):
        cfg = write_config(tmp_path, {"table1": {"sigma_b_list": []}})
        out = tmp_path / "t.csv"
        run_cli(["table1", "--config", cfg, "--output", str(out)])
        lines = out.read_bytes().split(b"\r\n")
        assert lines[0] == b"sigma_b,sigma_delta,T_s,eta_link"
        assert lines[1:] == [b""]


class TestFigure:
    @pytest.mark.parametrize(
        "figure_id,first_columns",
        [
            ("4", ["t_s", "g_mfi", "g_mfs"]),
            ("5", ["t_s", "v_g", "v_mixed"]),
            ("6", ["t_s", "v_matched"]),
            ("7", ["t_s", "c_mixed", "c_matched"]),
            ("S1", ["t_s", "gamma_mfi", "gamma_mfs"]),
        ],
    )
    def test_headers(self, tmp_path, figure_id, first_columns):
        out = tmp_path / "fig.csv"
        assert run_cli(["figure", "--figure-id", figure_id, "--output", str(out)]) == 0
        with out.open(newline="") as fh:
            header = next(csv.reader(fh))
        assert header == first_columns

    def test_figure8_columns_follow_sigma_list(self, tmp_path):
        out = tmp_path / "fig8.csv"
        run_cli(["figure", "--figure-id", "8", "--output", str(out)])
        with out.open(newline="") as fh:
            header = next(csv.reader(fh))
        assert header == [
            "t_s",
            "c_sigma_delta_4mG",
            "c_sigma_delta_2mG",
            "c_sigma_delta_0p4mG",
            "c_sigma_delta_0mG",
        ]

    def test_figure8_refuses_repeated_columns_under_shared_supply(self, tmp_path, capsys):
        # every sigma_delta is 0 on one supply, so the four widths would share one label
        cfg = write_config(tmp_path, {"link": {"topology": "shared"}})
        out = tmp_path / "fig8.csv"
        assert run_cli(["figure", "--figure-id", "8", "--config", cfg, "--output", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: figure 8: two field widths give the column 'c_sigma_delta_0mG'; "
            "sigma_delta is 2 sigma_b, or 0 for every width under a shared supply\n"
        )
        assert not out.exists()

    def test_s1_zero_delay_values(self, tmp_path):
        out = tmp_path / "s1.csv"
        run_cli(["figure", "--figure-id", "S1", "--output", str(out)])
        with out.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert float(rows[1][1]) == 0.22
        assert float(rows[1][2]) == 0.17

    def test_matched_visibility_has_no_exponential_factor(self, tmp_path):
        out = tmp_path / "fig6.csv"
        run_cli(["figure", "--figure-id", "6", "--output", str(out)])
        with out.open(newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        values = [float(r[1]) for r in rows]
        # drifts only through g(t): stays within a few percent over 3 ms,
        # while the dephased pairing would fall by ~ e^{-60}
        assert values[0] > 0.8 * 0.85
        assert min(values) > 0.7 * values[0]

    def test_mixed_visibility_ratio_at_tau0(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"sweep_single": {"t_start": 0.0, "t_end": 202.2e-6, "n_points": 5, "spacing": "linear"}},
        )
        out = tmp_path / "fig5.csv"
        run_cli(["figure", "--figure-id", "5", "--config", cfg, "--output", str(out)])
        with out.open(newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        # second grid point sits at t = 50.55 us ~ tau_0: the mixed-pairing
        # visibility ratio carries the e^{-t/tau_0} damping on top of the
        # slow g(t) drift (xi' cancels in the ratio)
        t1, vg1, vm1 = (float(x) for x in rows[1])
        _t0, vg0, vm0 = (float(x) for x in rows[0])
        expected = math.exp(-t1 / 50.539e-6) * (vg1 / vg0)
        assert vm1 / vm0 == pytest.approx(expected, rel=1e-3)

    def test_unknown_id_exits_with_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["figure", "--figure-id", "9"])
        assert exc.value.code == 2


class TestErrors:
    def test_invalid_config_is_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"link": {"chi": -1.0}})
        assert run_cli(["curve", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "chi" in err
        assert len(err.strip().splitlines()) == 1

    def test_missing_config_file(self, capsys):
        assert run_cli(["curve", "--config", "/nonexistent/cfg.json"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, path",
        [("--output", "missing/dir/x.csv"), ("--output", "."), ("--config", ".")],
        ids=["output-in-missing-dir", "output-is-a-dir", "config-is-a-dir"],
    )
    def test_unusable_path_is_exit_1(self, tmp_path, capsys, flag, path):
        target = str(tmp_path / path)
        assert run_cli(["curve", flag, target]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert str(tmp_path) in err
        assert len(err.strip().splitlines()) == 1

    def test_flag_is_checked_like_the_file(self, capsys):
        assert run_cli(["mc", "--theta-points", "4"]) == 1
        assert capsys.readouterr().err == "error: mc.theta_points: expected an integer >= 8, got 4\n"

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["curve", "--seed", "1"], "--seed"),
            (["table1", "--trials", "10"], "--trials"),
            (["figure", "--figure-id", "4", "--theta-points", "8"], "--theta-points"),
            (["fit", "--trials", "10"], "--trials"),
        ],
        ids=["curve-seed", "table1-trials", "figure-theta-points", "fit-trials"],
    )
    def test_flag_the_subcommand_ignores_is_a_usage_error(self, capsys, argv, flag):
        # only mc reads mc.trials and mc.theta_points, and only mc and fit read mc.seed
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err
        assert flag in err

    def test_out_of_memory_is_exit_1(self, tmp_path, capsys, monkeypatch):
        # a sweep of 10^13 points cannot be allocated; the failure is simulated,
        # because a real one may get the process killed where memory is overcommitted
        message = "Unable to allocate 72.8 TiB for an array with shape (10000000000000,) and data type float64"

        def sweep_times(sweep):
            assert sweep.n_points == 10**13
            raise MemoryError(message)

        monkeypatch.setattr(cli, "sweep_times", sweep_times)
        cfg = write_config(tmp_path, {"sweep": {"n_points": 10**13}})
        assert run_cli(["curve", "--config", cfg]) == 1
        assert capsys.readouterr().err == f"error: out of memory: {message}\n"

    def test_lifetime_beyond_the_search_limit_is_exit_1(self, tmp_path, capsys):
        # with tau_d = 1e6 s and no field noise the concurrence is still positive at 1e4 s
        cfg = write_config(tmp_path, {"link": {"tau_d": 1e6}, "table1": {"sigma_b_list": [0.0]}})
        assert run_cli(["table1", "--config", cfg]) == 1
        assert capsys.readouterr().err == "error: no concurrence zero crossing below 10000.0 s\n"

    def test_huge_jitter_gives_zero_contrast(self, tmp_path):
        cfg = write_config(tmp_path, {"link": {"residual_phase_jitter": 1e200}})
        out = tmp_path / "curve.json"
        assert run_cli(["curve", "--config", cfg, "--output", str(out), "--format", "json"]) == 0
        doc = json.loads(out.read_text())
        assert [row[doc["columns"].index("V")] for row in doc["rows"]] == [0.0] * 200


class TestFitCommand:
    def test_recovery_rows(self, tmp_path):
        out = tmp_path / "fit.json"
        assert run_cli(["fit", "--output", str(out), "--format", "json", "--seed", "3"]) == 0
        doc = json.loads(out.read_text())
        rec = {row[0]: dict(zip(doc["columns"], row)) for row in doc["rows"]}
        assert rec["decay_tau"]["rel_error"] < 0.05
        assert rec["xi_se"]["rel_error"] < 0.15
        assert rec["xi_prime"]["rel_error"] < 0.05
        assert rec["tau_0"]["rel_error"] < 0.05

    def test_gaussian_decay_law_is_fitted_as_gaussian(self, tmp_path):
        cfg = write_config(tmp_path, {"single_ensemble": {"decay_law": "gaussian"}})
        out = tmp_path / "fit.json"
        assert run_cli(["fit", "--config", cfg, "--output", str(out), "--format", "json"]) == 0
        doc = json.loads(out.read_text())
        rec = {row[0]: dict(zip(doc["columns"], row)) for row in doc["rows"]}
        assert rec["decay_tau"]["rel_error"] < 0.01

    def test_insensitive_pair_is_exit_1(self, tmp_path, capsys):
        # mu'_mfs = mu'_mfi = 0: nothing dephases, so no sigma_b can be inferred
        cfg = write_config(tmp_path, {"single_ensemble": {"mu_prime_mfs": 0.0}})
        assert run_cli(["fit", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "mu_prime" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key", ["xi_se", "gamma_0_mfi"])
    def test_zero_true_value_gives_absolute_error(self, tmp_path, key):
        cfg = write_config(tmp_path, {"single_ensemble": {key: 0}})
        out = tmp_path / "fit.json"
        assert run_cli(["fit", "--config", cfg, "--output", str(out), "--format", "json"]) == 0
        doc = json.loads(out.read_text())
        rec = {row[0]: dict(zip(doc["columns"], row)) for row in doc["rows"]}
        name = "xi_se" if key == "xi_se" else "decay_amplitude"
        assert rec[name]["true_value"] == 0.0
        assert rec[name]["rel_error"] == abs(rec[name]["fitted_value"])

    def test_mfi_more_sensitive_than_mfs(self, tmp_path):
        # the mixed pairing dephases with |mu'_mfs - mu'_mfi| whichever mode leads
        cfg = write_config(tmp_path, {"single_ensemble": {"mu_prime_mfi": 2.8e6}})
        out = tmp_path / "fit.json"
        assert run_cli(["fit", "--config", cfg, "--output", str(out), "--format", "json"]) == 0
        doc = json.loads(out.read_text())
        rec = {row[0]: dict(zip(doc["columns"], row)) for row in doc["rows"]}
        assert rec["sigma_b"]["fitted_value"] > 0.0
        assert rec["sigma_b"]["rel_error"] < 0.05


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dlcz_link", "table1"],
            capture_output=True,
            text=True,
            env=None,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("sigma_b,sigma_delta,T_s,eta_link")
