"""End-to-end tests for the command-line surface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import parkrsu
from parkrsu.cli import SWEEP_HEADER, main
from parkrsu.config import RunConfig, build_grid, build_propagation
from parkrsu.maps import write_beacon_log
from parkrsu.radio import synthesize_beacon_log
from parkrsu.sim import BOUNDS_HEADER, METRICS_HEADER

TOY = [
    "--set", "blocks_x=2",
    "--set", "blocks_y=2",
    "--set", "block_size_cells=1",
    "--set", "road_width_cells=1",
    "--set", "duration_s=400",
    "--set", "discard_s=200",
    "--set", "seed=9",
]


def toy_simulate(out, *extra) -> int:
    return main(["simulate", *TOY, "--out", str(out), *extra])


class TestSimulate:
    def test_writes_all_artifacts(self, tmp_path, capsys):
        assert toy_simulate(tmp_path) == 0
        for name in ("metrics.csv", "lifetimes.csv", "commands.csv", "manifest.json"):
            assert (tmp_path / name).exists(), name
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert lines[0] == METRICS_HEADER
        assert len(lines) == 401
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seed"] == 9
        out = capsys.readouterr().out
        assert "manifest.json" in out
        assert "steady-state samples" in out

    def test_duration_zero_header_only(self, tmp_path, capsys):
        assert toy_simulate(tmp_path, "--duration", "0") == 0
        assert (tmp_path / "metrics.csv").read_text() == METRICS_HEADER + "\n"
        assert "no samples after the discard window" in capsys.readouterr().out

    def test_missing_config_exits_2_naming_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.ini"
        assert main(["simulate", "--config", str(missing), "--out", str(tmp_path)]) == 2
        assert str(missing) in capsys.readouterr().err

    def test_unknown_set_field_exits_2(self, tmp_path, capsys):
        assert toy_simulate(tmp_path, "--set", "w_zap=1") == 2
        assert "w_zap" in capsys.readouterr().err

    def test_malformed_set_item_exits_2(self, tmp_path, capsys):
        assert toy_simulate(tmp_path, "--set", "w_sat") == 2
        assert "FIELD=VALUE" in capsys.readouterr().err

    def test_invalid_value_exits_2_naming_field(self, tmp_path, capsys):
        assert toy_simulate(tmp_path, "--set", "w_sat=-1") == 2
        assert "w_sat" in capsys.readouterr().err

    def test_infinite_value_exits_2_naming_field(self, tmp_path, capsys):
        assert toy_simulate(tmp_path, "--set", "base_range_m=inf") == 2
        assert "radio.base_range_m must be finite" in capsys.readouterr().err

    def test_infinite_max_time_disables_battery_cap(self, tmp_path):
        def forced_ends(max_time: str) -> int:
            out = tmp_path / max_time
            assert toy_simulate(out, "--set", "standard_time_s=10", "--set", f"max_time_s={max_time}") == 0
            return (out / "lifetimes.csv").read_text().count("forced_tau_M")

        assert forced_ends("20") > 0
        assert forced_ends("inf") == 0

    def test_flags_beat_set_and_file(self, tmp_path):
        ini = tmp_path / "base.ini"
        ini.write_text(RunConfig().with_overrides(w_sat=0.5).to_ini())
        code = main(
            ["simulate", "--config", str(ini), "--out", str(tmp_path),
             "--set", "w_sat=0.9", "--w-sat", "0.7", "--duration", "0"]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["w_sat"] == "0.7"

    def test_same_invocation_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert toy_simulate(a) == 0
        assert toy_simulate(b) == 0
        for name in ("metrics.csv", "lifetimes.csv", "commands.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_output_dir_env_var(self, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("PARKRSU_OUTPUT_DIR", str(target))
        assert main(["simulate", *TOY, "--duration", "0"]) == 0
        assert (target / "metrics.csv").exists()

    def test_out_flag_beats_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PARKRSU_OUTPUT_DIR", str(tmp_path / "ignored"))
        assert toy_simulate(tmp_path / "flagged", "--duration", "0") == 0
        assert (tmp_path / "flagged" / "metrics.csv").exists()
        assert not (tmp_path / "ignored").exists()


class TestSweep:
    def test_row_counts_and_run_dirs(self, tmp_path):
        code = main(
            ["sweep", *TOY, "--out", str(tmp_path),
             "--field", "w_sat", "--values", "0.1,0.3", "--seeds", "2"]
        )
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 1 + 4 + 2  # header, 2 values x 2 seeds, 2 pooled
        seeds = [line.split(",")[2] for line in lines[1:]]
        assert seeds.count("pooled") == 2
        assert seeds.count("9") == 2 and seeds.count("10") == 2
        for i in range(4):
            assert (tmp_path / f"run_{i:03d}" / "metrics.csv").exists()

    def test_single_value_sweep_equals_simulate(self, tmp_path):
        sweep_out = tmp_path / "sweep"
        sim_out = tmp_path / "sim"
        code = main(
            ["sweep", *TOY, "--out", str(sweep_out),
             "--field", "w_sat", "--values", "0.2", "--seeds", "1"]
        )
        assert code == 0
        assert toy_simulate(sim_out, "--set", "w_sat=0.2") == 0
        assert (
            (sweep_out / "run_000" / "metrics.csv").read_bytes()
            == (sim_out / "metrics.csv").read_bytes()
        )

    def test_unknown_axis_exits_2(self, tmp_path, capsys):
        code = main(
            ["sweep", *TOY, "--out", str(tmp_path),
             "--field", "w_zap", "--values", "1,2"]
        )
        assert code == 2
        assert "w_zap" in capsys.readouterr().err
        assert not (tmp_path / "run_000").exists()

    def test_seed_axis_exits_2_pointing_to_seeds(self, tmp_path, capsys):
        # --seeds would override every swept seed, so the rows would repeat one run.
        out = tmp_path / "out"
        code = main(["sweep", *TOY, "--out", str(out), "--field", "seed", "--values", "5,9", "--seeds", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--seeds" in err and len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_parallel_jobs_match_serial(self, tmp_path):
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        argv = ["sweep", *TOY, "--field", "w_cov", "--values", "0.1,0.5", "--seeds", "1"]
        assert main([*argv, "--out", str(serial), "--jobs", "1"]) == 0
        assert main([*argv, "--out", str(parallel), "--jobs", "2"]) == 0
        assert (serial / "sweep.csv").read_bytes() == (parallel / "sweep.csv").read_bytes()


class TestBounds:
    def test_zero_samples_header_only(self, tmp_path, capsys):
        code = main(["bounds", *TOY, "--out", str(tmp_path), "--samples", "0"])
        assert code == 0
        assert (tmp_path / "bounds.csv").read_text() == BOUNDS_HEADER + "\n"
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["bounds_samples"] == 0
        assert "sampled 0 networks" in capsys.readouterr().out

    def test_fixed_seed_identical_scatter(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["bounds", *TOY, "--set", "bounds_fill_count=6", "--samples", "300"]
        assert main([*argv, "--out", str(a)]) == 0
        assert main([*argv, "--out", str(b)]) == 0
        assert (a / "bounds.csv").read_bytes() == (b / "bounds.csv").read_bytes()

    def test_default_city_signal_span(self, tmp_path):
        code = main(["bounds", "--out", str(tmp_path), "--samples", "10000"])
        assert code == 0
        rows = (tmp_path / "bounds.csv").read_text().splitlines()[1:]
        signals = [float(r.split(",")[0]) for r in rows]
        assert len(signals) > 9000
        assert min(signals) < 2.5
        assert max(signals) > 4.5

    def test_negative_samples_exits_2(self, tmp_path, capsys):
        assert main(["bounds", *TOY, "--out", str(tmp_path), "--samples", "-5"]) == 2
        assert "--samples" in capsys.readouterr().err

    def test_empty_population_exits_2(self, tmp_path, capsys):
        code = main(
            ["bounds", *TOY, "--set", "arrival_rate_vps=0",
             "--out", str(tmp_path), "--samples", "10"]
        )
        assert code == 2
        assert "no parked vehicles" in capsys.readouterr().err


class TestInferMap:
    def _write_synthetic_log(self, path):
        cfg = RunConfig()
        grid = build_grid(cfg)
        observer = grid.usable_cells[len(grid.usable_cells) // 2]
        rows, truth = synthesize_beacon_log(
            grid,
            build_propagation(cfg),
            observer,
            np.random.default_rng(42),
            mean_samples_per_cell=60.0,
        )
        write_beacon_log(rows, path)
        return truth

    def test_recovers_synthetic_truth(self, tmp_path, capsys):
        log = tmp_path / "beacons.csv"
        truth = self._write_synthetic_log(log)
        assert main(["infer-map", "--log", str(log), "--out", str(tmp_path)]) == 0
        assert "beacon rows" in capsys.readouterr().out
        inferred = {}
        for line in (tmp_path / "coverage.csv").read_text().splitlines()[1:]:
            x, y, s = line.split(",")
            inferred[(int(x), int(y))] = int(s)
        truth_keys = {(c.x, c.y) for c in truth}
        assert set(inferred) <= truth_keys
        matches = sum(1 for k, s in inferred.items() if truth[next(c for c in truth if (c.x, c.y) == k)] == s)
        assert matches / len(inferred) >= 0.90
        stats_lines = (tmp_path / "cell_stats.csv").read_text().splitlines()
        assert stats_lines[0] == "cell_x,cell_y,count,mean,sd,bimodal"
        assert len(stats_lines) == len(truth) + 1

    def test_malformed_line_exits_2_with_line_number(self, tmp_path, capsys):
        log = tmp_path / "bad.csv"
        log.write_text("0,1,4,4,42\n1,1,4,4,38\nnot,a,row\n")
        assert main(["infer-map", "--log", str(log), "--out", str(tmp_path)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_out_of_scale_rssi_after_header_exits_2(self, tmp_path, capsys):
        log = tmp_path / "loud.csv"
        log.write_text("time_s,tx_id,cell_x,cell_y,rssi\n0.0,9,1,2,51\n")
        assert main(["infer-map", "--log", str(log), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "line 2" in err

    def test_empty_log_succeeds_with_empty_outputs(self, tmp_path, capsys):
        log = tmp_path / "empty.csv"
        log.write_text("")
        assert main(["infer-map", "--log", str(log), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "coverage.csv").read_text() == "cell_x,cell_y,strength\n"
        assert "read 0 beacon rows" in capsys.readouterr().out

    def test_missing_log_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "absent.csv"
        assert main(["infer-map", "--log", str(missing), "--out", str(tmp_path)]) == 2
        assert str(missing) in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", *TOY, "--samples", "-5"],
        ["bounds", *TOY, "--set", "arrival_rate_vps=0", "--samples", "10"],
        ["infer-map", "--log", "no-such-log.csv", "--min-samples", "0"],
        ["infer-map", "--log", "no-such-log.csv"],
        ["sweep", *TOY, "--field", "w_zap", "--values", "1,2"],
        ["simulate", *TOY, "--seed", "-1"],
        ["bounds", *TOY, "--set", "seed=-2"],
        ["sweep", *TOY, "--field", "seed", "--values", "5,9"],
        ["simulate", *TOY, "--set", "base_range_m=nan"],
        ["simulate", *TOY, "--set", "noise_sd=nan"],
        ["simulate", *TOY, "--set", "speed_mps=nan"],
        ["simulate", *TOY, "--set", "speed_mps=inf"],
        ["bounds", *TOY, "--set", "range_multiplier=NaN"],
        ["sweep", *TOY, "--field", "w_sat", "--values", "0.2,nan"],
        ["simulate", *TOY, "--set", "base_range_m=inf"],
        ["simulate", *TOY, "--set", "range_multiplier=inf"],
        ["simulate", *TOY, "--set", "arrival_rate_vps=inf"],
        ["simulate", *TOY, "--set", "cell_size_m=inf"],
        ["simulate", *TOY, "--duration", "inf"],
        ["simulate", *TOY, "--set", "max_time_s=-inf"],
        ["bounds", *TOY, "--set", "discard_s=inf"],
        ["sweep", *TOY, "--field", "w_sat", "--values", "0.2,inf"],
    ],
    ids=[
        "negative-samples",
        "empty-population",
        "min-samples-0",
        "missing-log",
        "unknown-field",
        "negative-seed",
        "negative-seed-override",
        "sweep-seed-field",
        "set-nan-base-range",
        "set-nan-noise",
        "set-nan-speed",
        "set-inf-speed",
        "set-nan-range-multiplier",
        "sweep-nan-value",
        "set-inf-base-range",
        "set-inf-range-multiplier",
        "set-inf-arrival-rate",
        "set-inf-cell-size",
        "inf-duration",
        "set-negative-inf-max-time",
        "bounds-inf-discard",
        "sweep-inf-value",
    ],
)
def test_rejected_invocation_creates_no_output_dir(tmp_path, argv):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert not out.exists()


class TestEntryPoint:
    def test_module_invocation_runs_end_to_end(self, tmp_path):
        # The child imports the package these tests import, installed or not.
        package_root = str(Path(parkrsu.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "parkrsu", "simulate", *TOY,
             "--duration", "30", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "metrics.csv").exists()
        assert "wrote metrics.csv" in proc.stdout
