from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from parkrsu.config import (
    RunConfig,
    build_grid,
    build_parking_model,
    build_policy,
    build_propagation,
    build_weights,
)
from parkrsu.decision import BatteryPolicy, ScoringWeights
from parkrsu.errors import ConfigurationError
from parkrsu.grid import save_city
from parkrsu.radio import PropagationConfig
from parkrsu.traffic import DAY_PROFILE, ParkingModel, TrafficProcess


# (section, field) for every float config field.
FLOAT_FIELDS = [
    (section.name, f.name)
    for section in dataclasses.fields(RunConfig)
    for f in dataclasses.fields(getattr(RunConfig(), section.name))
    if f.type in (float, "float")
]

# (section, field, value) breaking each range rule that a model type owns.
MODEL_RULES = [
    ("grid", "blocks_x", 0),
    ("grid", "blocks_y", 0),
    ("grid", "road_width_cells", 0),
    ("grid", "block_size_cells", 0),
    ("grid", "cell_size_m", 0.0),
    ("radio", "base_range_m", 0.0),
    ("radio", "range_multiplier", -1.0),
    ("radio", "nlos_penalty", -1),
    ("decision", "w_sig", -1.0),
    ("decision", "w_sat", -0.1),
    ("decision", "w_cov", -1.0),
    ("decision", "w_bat", -1.0),
    ("battery", "standard_time_s", 0.0),
    ("battery", "max_time_s", 1800.0),
    ("traffic", "mode", "weekly"),
    ("traffic", "arrival_rate_vps", -0.1),
    ("traffic", "target_moving_vehicles", 0.0),
    ("traffic", "mean_duration_s", 0.0),
    ("traffic", "daily_total", -1),
    ("traffic", "cruise_mean_s", 0.0),
]


class TestDefaults:
    def test_frozen_default_values(self):
        cfg = RunConfig()
        assert (cfg.grid.blocks_x, cfg.grid.blocks_y) == (8, 8)
        assert (cfg.grid.road_width_cells, cfg.grid.block_size_cells) == (1, 3)
        assert cfg.grid.cell_size_m == pytest.approx(30.9)
        assert cfg.radio.base_range_m == 155.0
        assert cfg.radio.range_multiplier == 1.0
        assert cfg.radio.nlos_penalty == 2
        assert cfg.maps.min_samples == 5
        assert (cfg.decision.w_sig, cfg.decision.w_sat) == (1.0, 0.2)
        assert (cfg.decision.w_cov, cfg.decision.w_bat) == (0.3, 0.0)
        assert cfg.decision.learning_period_s == 60.0
        assert (cfg.battery.standard_time_s, cfg.battery.max_time_s) == (1800.0, 3600.0)
        assert cfg.traffic.arrival_rate_vps == 0.5
        assert cfg.traffic.target_moving_vehicles == 55.0
        assert cfg.traffic.mean_duration_s == 3600.0
        assert cfg.traffic.speed_mps == 8.0
        assert (cfg.sim.duration_s, cfg.sim.seed, cfg.sim.discard_s) == (7200.0, 1, 1800.0)
        assert cfg.sim.always_grow is False

    def test_models_built_from_defaults_equal_the_types_defaults(self):
        cfg = RunConfig()
        assert build_propagation(cfg) == PropagationConfig()
        assert build_weights(cfg) == ScoringWeights()
        assert build_policy(cfg) == BatteryPolicy()
        assert build_parking_model(cfg) == ParkingModel()

    def test_default_city_dimensions(self):
        g = build_grid(RunConfig())
        assert (g.width, g.height) == (33, 33)
        assert len(g.usable_cells) == 513


class TestOverrides:
    def test_numeric_override(self):
        cfg = RunConfig().with_overrides(w_sat=0.4, seed=9)
        assert cfg.decision.w_sat == 0.4
        assert cfg.sim.seed == 9

    def test_override_does_not_mutate_source(self):
        base = RunConfig()
        base.with_overrides(w_sat=0.4)
        assert base.decision.w_sat == 0.2

    def test_string_values_coerced(self):
        cfg = RunConfig().with_overrides(w_sat="0.35", seed="12", always_grow="true")
        assert cfg.decision.w_sat == 0.35
        assert cfg.sim.seed == 12
        assert cfg.sim.always_grow is True

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown config field 'w_zap'"):
            RunConfig().with_overrides(w_zap=1.0)

    def test_unparseable_value_rejected(self):
        with pytest.raises(ConfigurationError, match="cannot parse"):
            RunConfig().with_overrides(seed="twelve")

    def test_invalid_result_rejected(self):
        with pytest.raises(ConfigurationError, match="w_sat"):
            RunConfig().with_overrides(w_sat=-1.0)
        with pytest.raises(ConfigurationError, match="max_time_s"):
            RunConfig().with_overrides(max_time_s=100.0)

    @pytest.mark.parametrize("section,field_name", FLOAT_FIELDS, ids=[f for _, f in FLOAT_FIELDS])
    def test_nan_float_rejected(self, section, field_name, tmp_path):
        # NaN compares false, so no range check in validate can catch it.
        for value in ("nan", math.nan):
            with pytest.raises(ConfigurationError, match=rf"{section}\.{field_name}: NaN"):
                RunConfig().with_overrides(**{field_name: value})
        p = tmp_path / "nan.ini"
        p.write_text(f"[{section}]\n{field_name} = nan\n")
        with pytest.raises(ConfigurationError, match=rf"{section}\.{field_name}: NaN"):
            RunConfig.from_file(p)

    @pytest.mark.parametrize("section,field_name", FLOAT_FIELDS, ids=[f for _, f in FLOAT_FIELDS])
    @pytest.mark.parametrize("value", ["inf", "-inf"])
    def test_infinite_float_rejected(self, section, field_name, value, tmp_path):
        # battery.max_time_s = +inf means no cap on a duty; every other
        # infinity, -inf there included, is rejected by name.
        p = tmp_path / "inf.ini"
        p.write_text(f"[{section}]\n{field_name} = {value}\n")
        if (section, field_name, value) == ("battery", "max_time_s", "inf"):
            assert RunConfig().with_overrides(max_time_s=value).battery.max_time_s == math.inf
            assert RunConfig.from_file(p).battery.max_time_s == math.inf
            return
        with pytest.raises(ConfigurationError, match=rf"^{section}\.{field_name} must be finite$"):
            RunConfig().with_overrides(**{field_name: value})
        with pytest.raises(ConfigurationError, match=rf"^{section}\.{field_name} must be finite$"):
            RunConfig.from_file(p)

    @pytest.mark.parametrize("section,field_name", FLOAT_FIELDS, ids=[f for _, f in FLOAT_FIELDS])
    def test_non_finite_set_on_object_rejected(self, section, field_name):
        # Values assigned on a RunConfig skip parsing; validate alone must catch them.
        cfg = RunConfig()
        setattr(getattr(cfg, section), field_name, math.nan)
        with pytest.raises(ConfigurationError, match=rf"{section}\.{field_name}: NaN is not a value"):
            cfg.validate()
        setattr(getattr(cfg, section), field_name, -math.inf)
        with pytest.raises(ConfigurationError, match=rf"{section}\.{field_name} must be finite"):
            cfg.validate()

    @pytest.mark.parametrize("section,field_name,value", MODEL_RULES, ids=[f for _, f, _ in MODEL_RULES])
    def test_model_rule_names_field(self, section, field_name, value):
        # validate applies these rules by building the model types.
        with pytest.raises(ConfigurationError, match=rf"^{section}\.{field_name} "):
            RunConfig().with_overrides(**{field_name: value})

    @pytest.mark.parametrize(
        "mode,field_name,value", [(DAY_PROFILE, "mean_duration_s", -1), ("uniform", "cruise_mean_s", 0)]
    )
    def test_inactive_mode_fields_rejected(self, mode, field_name, value):
        with pytest.raises(ConfigurationError, match=rf"^traffic\.{field_name} "):
            RunConfig().with_overrides(mode=mode, **{field_name: value})

    def test_speed_beyond_city_side_rejected(self):
        # Far faster, a step's distance budget stops shrinking and the step never returns.
        grid = build_grid(RunConfig())
        side_m = max(grid.width, grid.height) * grid.cell_size_m
        assert RunConfig().with_overrides(speed_mps=side_m).traffic.speed_mps == side_m
        for speed in (side_m * 1.001, 1e18):
            with pytest.raises(ConfigurationError, match=r"^traffic\.speed_mps must be at most"):
                RunConfig().with_overrides(speed_mps=speed)

    def test_traffic_process_shares_the_speed_rule(self):
        # The library path applies the rule RunConfig.validate does; no car is
        # stepped at the rejected speed.
        grid = build_grid(RunConfig())
        with pytest.raises(ConfigurationError, match=r"^traffic\.speed_mps must be at most") as exc:
            TrafficProcess(ParkingModel(), grid, np.random.default_rng(1), speed_mps=1e18)
        with pytest.raises(ConfigurationError) as from_config:
            RunConfig().with_overrides(speed_mps=1e18)
        assert str(exc.value) == str(from_config.value)
        for speed in (0.0, -1.0, math.nan):
            with pytest.raises(ConfigurationError, match=r"^traffic\.speed_mps must be positive"):
                TrafficProcess(ParkingModel(), grid, np.random.default_rng(1), speed_mps=speed)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError, match=r"sim\.seed"):
            RunConfig().with_overrides(seed=-1)
        with pytest.raises(ConfigurationError, match=r"sim\.seed"):
            RunConfig().with_overrides(seed="-2")
        assert RunConfig().with_overrides(seed=0).sim.seed == 0

    def test_day_profile_run_limited_to_one_day(self):
        # A day profile schedules one day of arrivals; a second day would
        # silently run with none.
        day = RunConfig().with_overrides(mode="day_profile", duration_s=86400.0)
        assert day.sim.duration_s == 86400.0
        with pytest.raises(ConfigurationError, match=r"sim\.duration_s"):
            day.with_overrides(duration_s=86401.0)
        assert RunConfig().with_overrides(duration_s=172800.0).sim.duration_s == 172800.0

    def test_flat_names_globally_unique(self):
        cfg = RunConfig()
        flats = cfg.flat_items()
        assert len(flats) == sum(
            len(type(getattr(cfg, s)).__dataclass_fields__)
            for s in ("grid", "radio", "maps", "decision", "battery", "traffic", "sim")
        )


class TestIniRoundTrip:
    def test_to_ini_from_file_round_trip(self, tmp_path):
        cfg = RunConfig().with_overrides(w_sat=0.4, duration_s=600.0, mode=DAY_PROFILE)
        p = tmp_path / "run.ini"
        p.write_text(cfg.to_ini())
        loaded = RunConfig.from_file(p)
        assert loaded == cfg

    def test_partial_file_keeps_other_defaults(self, tmp_path):
        p = tmp_path / "partial.ini"
        p.write_text("[decision]\nw_sat = 0.4\n")
        cfg = RunConfig.from_file(p)
        assert cfg.decision.w_sat == 0.4
        assert cfg.sim.duration_s == 7200.0

    def test_unknown_field_names_section_and_key(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[decision]\nw_zap = 1.0\n")
        with pytest.raises(ConfigurationError, match=r"unknown field decision\.w_zap"):
            RunConfig.from_file(p)

    def test_unknown_section_names_file_and_section(self, tmp_path):
        p = tmp_path / "typo.ini"
        p.write_text("[decison]\nw_sat = 0.9\n")
        with pytest.raises(ConfigurationError, match=r"unknown section \[decison\]") as exc:
            RunConfig.from_file(p)
        assert str(p) in str(exc.value)

    @pytest.mark.parametrize(
        "text", ["[DEFAULT]\nseed = 3\n", "[DEFAULT]\nseed = 3\n[sim]\nduration_s = 60\n"], ids=["alone", "with-sim"]
    )
    def test_default_section_rejected_as_unknown(self, tmp_path, text):
        # configparser would otherwise drop a lone [DEFAULT] silently, or copy
        # its keys into every real section.
        p = tmp_path / "defaults.ini"
        p.write_text(text)
        with pytest.raises(ConfigurationError, match=r"unknown section \[DEFAULT\]") as exc:
            RunConfig.from_file(p)
        assert str(p) in str(exc.value)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        cfg = RunConfig().with_overrides(seed=3, w_sat=0.4)
        p = tmp_path / "bom.ini"
        p.write_bytes(b"\xef\xbb\xbf" + cfg.to_ini().encode())
        assert RunConfig.from_file(p) == cfg

    def test_unparseable_value_names_field(self, tmp_path):
        p = tmp_path / "bad2.ini"
        p.write_text("[sim]\nseed = banana\n")
        with pytest.raises(ConfigurationError, match=r"sim\.seed"):
            RunConfig.from_file(p)

    def test_percent_in_a_value_is_read_literally(self, tmp_path):
        city = tmp_path / "100%.txt"
        save_city(build_grid(RunConfig()), city)
        cfg = RunConfig().with_overrides(city_file=str(city))
        p = tmp_path / "dump.ini"
        p.write_text(cfg.to_ini())
        assert f"city_file = {city}" in p.read_text()
        assert RunConfig.from_file(p) == cfg

    def test_error_message_names_path(self, tmp_path):
        p = tmp_path / "bad3.ini"
        p.write_text("[grid]\nmoon_base = 1\n")
        with pytest.raises(ConfigurationError, match=str(p)):
            RunConfig.from_file(p)


class TestDigest:
    def test_digest_stable_for_equal_configs(self):
        assert RunConfig().digest() == RunConfig().digest()

    def test_digest_changes_with_any_field(self):
        base = RunConfig()
        assert base.digest() != base.with_overrides(w_sat=0.21).digest()
        assert base.digest() != base.with_overrides(seed=2).digest()

    def test_digest_is_hex_sha256(self):
        d = RunConfig().digest()
        assert len(d) == 64 and int(d, 16) >= 0


class TestBuilders:
    def test_propagation_builder(self):
        cfg = RunConfig().with_overrides(range_multiplier=2.0, nlos_penalty=1)
        p = build_propagation(cfg)
        assert p.band_edges_m == (77.5, 155.0, 232.5, 310.0)
        assert p.nlos_penalty == 1

    def test_weights_builder(self):
        w = build_weights(RunConfig().with_overrides(w_bat=0.5))
        assert (w.signal, w.saturation, w.coverage, w.battery) == (1.0, 0.2, 0.3, 0.5)

    def test_policy_builder(self):
        pol = build_policy(RunConfig().with_overrides(max_time_s=7200.0))
        assert (pol.standard_time_s, pol.max_time_s) == (1800.0, 7200.0)

    def test_weights_reject_negative_naming_config_field(self):
        with pytest.raises(ConfigurationError, match=r"^decision\.w_sig "):
            ScoringWeights(signal=-1)

    def test_validate_returns_the_built_models(self):
        cfg = RunConfig().with_overrides(w_bat=0.5, max_time_s=7200.0, range_multiplier=2.0)
        grid, prop, weights, policy, model = cfg.validate()
        assert (grid.width, grid.height) == (33, 33)
        assert prop == build_propagation(cfg)
        assert weights == build_weights(cfg)
        assert policy == build_policy(cfg)
        assert model == build_parking_model(cfg)

    def test_unbounded_battery_via_inf(self):
        pol = build_policy(RunConfig().with_overrides(max_time_s=math.inf))
        assert math.isinf(pol.max_time_s)

    def test_parking_model_uniform(self):
        m = build_parking_model(RunConfig().with_overrides(arrival_rate_vps=0.25))
        assert m.mode == "uniform"
        assert m.arrival_rate_vps == 0.25

    def test_parking_model_day_profile(self):
        m = build_parking_model(
            RunConfig().with_overrides(mode=DAY_PROFILE, daily_total=2000)
        )
        assert m.mode == DAY_PROFILE
        assert m.daily_total == 2000
        assert sum(m.hourly_weights) == pytest.approx(1.0)

    @pytest.mark.parametrize("weight", [0.0, -1.0])
    def test_profile_without_positive_weight_sum_rejected(self, weight, tmp_path):
        p = tmp_path / "profile.csv"
        p.write_text("".join(f"{h},{weight},3600,0.5\n" for h in range(24)))
        with pytest.raises(ConfigurationError, match="hourly_weights"):
            RunConfig().with_overrides(mode=DAY_PROFILE, profile_file=str(p))

    def test_grid_builder_from_city_file(self, tmp_path, one_block):
        from parkrsu.grid import save_city

        p = tmp_path / "city.txt"
        save_city(one_block, p)
        cfg = RunConfig().with_overrides(city_file=str(p), cell_size_m=30.9)
        g = build_grid(cfg)
        assert (g.width, g.height) == (one_block.width, one_block.height)
        assert g.usable_cells == one_block.usable_cells
