"""Command-line front end.

Subcommands:
  simulate   run one scenario and write metrics/lifetimes/commands/manifest
  sweep      rerun a scenario across several values of one config field
  bounds     sample random-assignment performance bounds for a city
  infer-map  rebuild a coverage map and per-cell stats from a beacon log

Output locations resolve as --out, else $PARKRSU_OUTPUT_DIR, else the
current directory. Config and data errors exit with status 2 and a one-line
message naming the offending field, file, or line.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .config import RunConfig
from .errors import ConfigurationError, MalformedLineError, OutOfBoundsError
from .maps import DEFAULT_MIN_SAMPLES, CoverageMapBuilder, read_beacon_log, write_cell_stats_csv, write_coverage_csv
from .sim import (
    RunResult,
    random_assignment_bounds,
    run,
    steady_state_stats,
    write_bounds_csv,
    write_commands_csv,
    write_lifetimes_csv,
    write_manifest,
    write_metrics_csv,
)

SWEEP_HEADER = (
    "field,value,seed,n_samples,active_rsus_mean,active_rsus_sd,"
    "coverage_pct_mean,coverage_pct_sd,mean_signal_mean,mean_signal_sd,"
    "mean_saturation_mean,mean_saturation_sd,area_per_rsu_mean,area_per_rsu_sd"
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parkrsu",
        description="Simulator for self-organizing roadside-unit networks of parked cars.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="INI config file; defaults apply when omitted")
        p.add_argument(
            "--set",
            metavar="FIELD=VALUE",
            action="append",
            default=[],
            dest="overrides",
            help="override one config field by flat name, e.g. --set w_sat=0.5 (repeatable)",
        )
        p.add_argument("--out", help="output directory (default: $PARKRSU_OUTPUT_DIR or .)")

    p_sim = sub.add_parser("simulate", help="run one simulation")
    common(p_sim)
    p_sim.add_argument("--seed", type=int, help="random seed override")
    p_sim.add_argument("--duration", type=float, help="run length in seconds")
    p_sim.add_argument("--w-sig", type=float, help="signal-quality weight")
    p_sim.add_argument("--w-sat", type=float, help="saturation (overlap cost) weight")
    p_sim.add_argument("--w-cov", type=float, help="coverage-extension weight")
    p_sim.add_argument("--w-bat", type=float, help="battery-health weight")

    p_sweep = sub.add_parser("sweep", help="run several values of one config field")
    common(p_sweep)
    p_sweep.add_argument("--field", required=True, help="flat config field name, e.g. w_sat")
    p_sweep.add_argument("--values", required=True, help="comma-separated values for the field")
    p_sweep.add_argument("--seeds", type=int, default=3, help="seeds per value (consecutive from the base seed)")
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel worker processes")

    p_bounds = sub.add_parser("bounds", help="sample random-assignment bounds")
    common(p_bounds)
    p_bounds.add_argument("--samples", type=int, default=10000, help="number of random networks")

    p_infer = sub.add_parser("infer-map", help="rebuild a coverage map from a beacon log")
    p_infer.add_argument("--log", required=True, help="beacon log: time_s,tx_id,cell_x,cell_y,rssi")
    p_infer.add_argument("--min-samples", type=int, default=DEFAULT_MIN_SAMPLES)
    p_infer.add_argument("--owner", type=int, default=0, help="entity id stamped on the output map")
    p_infer.add_argument("--out", help="output directory (default: $PARKRSU_OUTPUT_DIR or .)")

    return parser


def _out_dir(args: argparse.Namespace) -> str:
    out = args.out or os.environ.get("PARKRSU_OUTPUT_DIR") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _load_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig.default()
    overrides: dict[str, object] = {}
    for item in args.overrides:
        if "=" not in item:
            raise ConfigurationError(f"--set expects FIELD=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    for flag, name in (
        ("seed", "seed"),
        ("duration", "duration_s"),
        ("w_sig", "w_sig"),
        ("w_sat", "w_sat"),
        ("w_cov", "w_cov"),
        ("w_bat", "w_bat"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[name] = value
    return cfg.with_overrides(**overrides) if overrides else cfg


def _write_run_artifacts(cfg: RunConfig, result: RunResult, out: str) -> None:
    write_metrics_csv(result.metrics, os.path.join(out, "metrics.csv"))
    write_lifetimes_csv(result.lifetimes, os.path.join(out, "lifetimes.csv"))
    write_commands_csv(result.commands, os.path.join(out, "commands.csv"))
    write_manifest(cfg, result, os.path.join(out, "manifest.json"))


def _print_summary(cfg: RunConfig, result: RunResult) -> None:
    print(f"ticks: {len(result.metrics)}")
    print(f"parking events: {result.parking_events}")
    print(f"assignments: {result.assignments}")
    print(f"active at end: {result.active_at_end}")
    try:
        summary = steady_state_stats(result.metrics, cfg.sim.discard_s)
    except ValueError:
        print("steady state: no samples after the discard window")
        return
    print(f"steady-state samples: {summary.n_samples} (discard_s={cfg.sim.discard_s:g})")
    for name in ("active_rsus", "coverage_pct", "mean_signal", "mean_saturation", "area_per_rsu_m2"):
        pair = getattr(summary, name)
        print(f"{name}: mean={pair.mean:.4f} sd={pair.sd:.4f}")


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    result = run(cfg)
    _write_run_artifacts(cfg, result, out)
    _print_summary(cfg, result)
    print(f"wrote metrics.csv, lifetimes.csv, commands.csv, manifest.json to {out}")
    return 0


def _sweep_point(payload: tuple[RunConfig, str, str, int]) -> tuple[RunConfig, RunResult]:
    base, field_name, value, seed = payload
    cfg = base.with_overrides(**{field_name: value, "seed": seed})
    return cfg, run(cfg)


_SWEEP_METRICS = ("active_rsus", "coverage_pct", "mean_signal", "mean_saturation", "area_per_rsu_m2")


def _cmd_sweep(args: argparse.Namespace) -> int:
    base = _load_config(args)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigurationError("--values must name at least one value")
    if args.seeds < 1:
        raise ConfigurationError("--seeds must be >= 1")
    if args.field == "seed":
        raise ConfigurationError("--field seed cannot be swept; use --seeds to run consecutive seeds")
    # Validate every point up front so a bad value fails before any run starts.
    for v in values:
        base.with_overrides(**{args.field: v})
    out = _out_dir(args)
    seeds = [base.sim.seed + i for i in range(args.seeds)]
    payloads = [(base, args.field, v, s) for v in values for s in seeds]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            outcomes = list(pool.map(_sweep_point, payloads))
    else:
        outcomes = [_sweep_point(p) for p in payloads]

    rows = []
    by_value: dict[str, list] = {}
    for i, ((_, _, value, seed), (cfg, result)) in enumerate(zip(payloads, outcomes)):
        run_dir = os.path.join(out, f"run_{i:03d}")
        os.makedirs(run_dir, exist_ok=True)
        _write_run_artifacts(cfg, result, run_dir)
        try:
            s = steady_state_stats(result.metrics, cfg.sim.discard_s)
        except ValueError:
            rows.append(f"{args.field},{value},{seed},0,,,,,,,,,,")
            continue
        by_value.setdefault(value, []).append(s)
        cells = [f"{args.field}", f"{value}", f"{seed}", f"{s.n_samples}"]
        for name in _SWEEP_METRICS:
            pair = getattr(s, name)
            cells.append(f"{pair.mean:.6f}")
            cells.append(f"{pair.sd:.6f}")
        rows.append(",".join(cells))
    # One pooled row per value: mean and spread of the per-seed steady means.
    for value in values:
        summaries = by_value.get(value)
        if not summaries:
            continue
        cells = [f"{args.field}", f"{value}", "pooled", f"{sum(s.n_samples for s in summaries)}"]
        for name in _SWEEP_METRICS:
            means = [getattr(s, name).mean for s in summaries]
            mu = sum(means) / len(means)
            var = sum((m - mu) ** 2 for m in means) / len(means)
            cells.append(f"{mu:.6f}")
            cells.append(f"{var ** 0.5:.6f}")
        rows.append(",".join(cells))
    with open(os.path.join(out, "sweep.csv"), "w") as fh:
        fh.write(SWEEP_HEADER + "\n")
        for row in rows:
            fh.write(row + "\n")
    print(
        f"swept {args.field} over {len(values)} values x {len(seeds)} seeds; "
        f"wrote sweep.csv to {out}"
    )
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    if args.samples < 0:
        raise ConfigurationError("--samples must be non-negative")
    result = random_assignment_bounds(cfg, args.samples)
    out = _out_dir(args)
    write_bounds_csv(result.samples, os.path.join(out, "bounds.csv"))
    write_manifest(
        cfg,
        None,
        os.path.join(out, "manifest.json"),
        extra={
            "bounds_samples": len(result.samples),
            "bounds_skipped_empty": result.skipped,
            "bounds_fill_count": cfg.sim.bounds_fill_count,
        },
    )
    print(f"sampled {len(result.samples)} networks ({result.skipped} empty draws skipped)")
    print(f"wrote bounds.csv, manifest.json to {out}")
    return 0


def _cmd_infer_map(args: argparse.Namespace) -> int:
    if args.min_samples < 1:
        raise ConfigurationError("--min-samples must be >= 1")
    builder = CoverageMapBuilder(args.owner)
    n_rows = 0
    for _, _, cell, rssi in read_beacon_log(args.log):
        builder.record(cell, rssi)
        n_rows += 1
    cmap, stats = builder.finalize(args.min_samples)
    out = _out_dir(args)
    write_coverage_csv(cmap, os.path.join(out, "coverage.csv"))
    write_cell_stats_csv(stats, os.path.join(out, "cell_stats.csv"))
    print(f"read {n_rows} beacon rows over {len(stats)} cells; {cmap.covered_count} mapped")
    print(f"wrote coverage.csv, cell_stats.csv to {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "sweep": _cmd_sweep,
        "bounds": _cmd_bounds,
        "infer-map": _cmd_infer_map,
    }
    try:
        return handlers[args.command](args)
    except (ConfigurationError, MalformedLineError, OutOfBoundsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc.filename or exc}: no such file", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
