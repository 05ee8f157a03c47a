"""Configuration loading: defaults, strict key validation, ranges."""

import json
import math

import pytest

from dlcz_link.config import (
    ConfigError,
    config_from_dict,
    load_config,
    sweep_times,
)
from dlcz_link.params import DECAY_LAWS, ExponentialEfficiency, Topology


class TestDefaults:
    def test_minimal_config_is_the_lattice_evaluation_set(self):
        cfg = config_from_dict({})
        node = cfg.link.node_l
        assert node.chi == 0.005
        assert node.gamma_0 == 0.76
        assert isinstance(node.decay, ExponentialEfficiency)
        assert node.decay.tau_d == 0.410
        assert node.xi_se == 0.26
        assert node.z_noise == 3.0e-4
        assert cfg.link.zeta == 0.85
        assert node.mu_prime == 5000.0
        assert cfg.link.noise.sigma_b == 2.0e-3
        assert cfg.link.noise.topology is Topology.INDEPENDENT
        assert cfg.t_generation == 0.63
        assert cfg.sigma_b_list == (2.0e-3, 1.0e-3, 2.0e-4, 0.0)

    def test_single_ensemble_defaults(self):
        cfg = config_from_dict({})
        pair = cfg.mode_pair  # arm a MFI, arm b MFS
        assert pair.node_l.gamma_0 == 0.22
        assert pair.node_r.gamma_0 == 0.17
        assert pair.node_l.z_noise == 3.1e-4
        assert pair.node_r.z_noise == 3.3e-4
        assert pair.xi_prime == 0.88
        assert pair.noise.sigma_b == 2.25e-3
        assert pair.noise.topology is Topology.SHARED
        assert pair.node_l.mu_prime == 0.0
        assert pair.node_r.mu_prime == pytest.approx(1.39962e6, rel=1e-4)

    def test_symmetry_of_default_link(self):
        cfg = config_from_dict({})
        assert cfg.link.node_l == cfg.link.node_r
        assert cfg.link.node_l.mu_prime == cfg.link.node_r.mu_prime


class TestValidation:
    def test_negative_chi_names_the_key(self):
        with pytest.raises(ConfigError, match="chi"):
            config_from_dict({"link": {"chi": -0.1}})

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="foo"):
            config_from_dict({"foo": 1})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="link.bar"):
            config_from_dict({"link": {"bar": 2}})

    def test_zero_trials_rejected(self):
        with pytest.raises(ConfigError, match="trials"):
            config_from_dict({"mc": {"trials": 0}})

    def test_sweep_order_enforced(self):
        with pytest.raises(ConfigError, match="t_end"):
            config_from_dict({"sweep": {"t_start": 1.0, "t_end": 0.5}})

    def test_theta_points_above_trials_rejected(self):
        # the fringe run splits mc.trials over the theta bins, one trial each at least
        with pytest.raises(ConfigError, match=r"^mc\.theta_points: expected a value <= mc\.trials = 5, got 12$"):
            config_from_dict({"mc": {"trials": 5}})
        with pytest.raises(ConfigError, match=r"^mc\.theta_points: .*mc\.trials = 12, got 13$"):
            config_from_dict({"mc": {"trials": 100}}, {"mc": {"trials": 12, "theta_points": 13}})
        assert config_from_dict({"mc": {"trials": 12}}).mc.theta_points == 12
        assert config_from_dict({"mc": {"trials": 5}}, {"mc": {"trials": 8, "theta_points": 8}}).mc.trials == 8

    def test_log_sweep_needs_positive_start(self):
        with pytest.raises(ConfigError, match="t_start"):
            config_from_dict({"sweep": {"t_start": 0.0, "spacing": "log"}})

    def test_bad_decay_law(self):
        with pytest.raises(ConfigError, match="decay_law"):
            config_from_dict({"link": {"decay_law": "polynomial"}})

    @pytest.mark.parametrize("section", ["link", "single_ensemble"])
    def test_decay_law_choices_are_the_laws(self, section):
        with pytest.raises(ConfigError, match=rf"^{section}\.decay_law: expected one of \('exponential', 'gaussian'\)"):
            config_from_dict({section: {"decay_law": "polynomial"}})

    @pytest.mark.parametrize("law", list(DECAY_LAWS))
    def test_every_decay_law_builds_its_class(self, law):
        cfg = config_from_dict({"link": {"decay_law": law, "tau_d": 0.25}, "single_ensemble": {"decay_law": law}})
        assert cfg.link.node_l.decay == cfg.link.node_r.decay == DECAY_LAWS[law](0.25)
        assert cfg.mode_pair.node_l.decay == cfg.mode_pair.node_r.decay == DECAY_LAWS[law](1.0e-3)

    def test_bad_topology(self):
        with pytest.raises(ConfigError, match="topology"):
            config_from_dict({"link": {"topology": "mesh"}})

    def test_bad_format(self):
        with pytest.raises(ConfigError, match="format"):
            config_from_dict({"output": {"format": "xml"}})

    def test_sigma_list_type(self):
        with pytest.raises(ConfigError, match="sigma_b_list"):
            config_from_dict({"table1": {"sigma_b_list": "2mG"}})
        with pytest.raises(ConfigError, match=r"sigma_b_list\[1\]"):
            config_from_dict({"table1": {"sigma_b_list": [1e-3, -1e-3]}})

    def test_seed_range(self):
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict({"mc": {"seed": -1}})
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict({"mc": {"seed": 2**64}})

    def test_boolean_is_not_a_number(self):
        with pytest.raises(ConfigError, match="chi"):
            config_from_dict({"link": {"chi": True}})

    @pytest.mark.parametrize("section", ["link", "single_ensemble"])
    def test_zero_decay_time_names_the_key(self, section):
        with pytest.raises(ConfigError, match=rf"^{section}\.tau_d: expected a value > 0\.0, got 0\.0$"):
            config_from_dict({section: {"tau_d": 0}})

    @pytest.mark.parametrize(
        "section, key", [("link", "zeta"), ("link", "xi_prime"), ("single_ensemble", "zeta"), ("table1", "t_generation")]
    )
    def test_exclusive_lower_bound_is_zero(self, section, key):
        with pytest.raises(ConfigError, match=rf"^{section}\.{key}: expected a value > 0\.0, got 0\.0$"):
            config_from_dict({section: {key: 0.0}})
        config_from_dict({section: {key: 5e-324}})

    def test_integer_beyond_the_float_range(self):
        with pytest.raises(ConfigError, match="link.sigma_b: expected a finite number"):
            config_from_dict({"link": {"sigma_b": 10**400}})


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"link": {"sigma_b": 1e-3}, "mc": {"seed": 7}}))
        cfg = load_config(path)
        assert cfg.link.noise.sigma_b == 1e-3
        assert cfg.mc.seed == 7

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        for text in (b"{not json", b"\xff{}"):
            path.write_bytes(text)
            with pytest.raises(ConfigError, match="JSON"):
                load_config(path)


class TestSweepTimes:
    def test_linear(self):
        cfg = config_from_dict({"sweep": {"t_start": 0.0, "t_end": 1.0, "n_points": 5, "spacing": "linear"}})
        assert list(sweep_times(cfg.sweep)) == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_log(self):
        cfg = config_from_dict({"sweep": {"t_start": 1e-3, "t_end": 1.0, "n_points": 4, "spacing": "log"}})
        times = sweep_times(cfg.sweep)
        assert times[0] == pytest.approx(1e-3)
        assert times[-1] == pytest.approx(1.0)
        ratios = times[1:] / times[:-1]
        assert math.isclose(ratios.max(), ratios.min(), rel_tol=1e-9)


class TestOverrides:
    def test_with_overrides(self):
        cfg = config_from_dict({}, {"mc": {"seed": 99, "trials": 5000}, "output": {"format": "json"}})
        assert cfg.mc.seed == 99
        assert cfg.mc.trials == 5000
        assert cfg.output.format == "json"

    def test_override_validation(self):
        with pytest.raises(ConfigError, match="trials"):
            config_from_dict({}, {"mc": {"trials": 0}})

    def test_flag_overrides_the_file_before_any_check(self):
        cfg = config_from_dict({"mc": {"seed": -1, "trials": 700}}, {"mc": {"seed": 3}})
        assert (cfg.mc.seed, cfg.mc.trials) == (3, 700)

    def test_flags_are_checked_like_the_file(self):
        with pytest.raises(ConfigError, match=r"mc\.theta_points: expected an integer >= 8, got 4"):
            config_from_dict({}, {"mc": {"theta_points": 4}})
        with pytest.raises(ConfigError, match=r"mc\.bogus: unknown key"):
            config_from_dict({}, {"mc": {"bogus": 1}})
