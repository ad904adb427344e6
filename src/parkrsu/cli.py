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
from collections.abc import Iterable
from concurrent.futures import ProcessPoolExecutor

from .config import RunConfig, _read_ini
from .errors import ConfigurationError, MalformedLineError, OutOfBoundsError
from .maps import DEFAULT_MIN_SAMPLES, CoverageMapBuilder, read_beacon_log, write_cell_stats_csv, write_coverage_csv
from .sim import (
    STEADY_METRICS,
    RunResult,
    Simulation,
    StatPair,
    pooled_stats,
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
    """Parse the file, --set and flags (flags win) in one pass; the run object validates."""
    items: dict[str, object] = _read_ini(args.config) if args.config else {}
    for item in args.overrides:
        if "=" not in item:
            raise ConfigurationError(f"--set expects FIELD=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        items[key.strip()] = value.strip()
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
            items[name] = value
    return RunConfig()._parsed(items)


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
    for name in STEADY_METRICS:
        pair = getattr(summary, name)
        print(f"{name}: mean={pair.mean:.4f} sd={pair.sd:.4f}")


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    sim = Simulation(cfg)
    out = _out_dir(args)
    result = sim.run()
    _write_run_artifacts(cfg, result, out)
    _print_summary(cfg, result)
    print(f"wrote metrics.csv, lifetimes.csv, commands.csv, manifest.json to {out}")
    return 0


def _sweep_row(field: str, value: str, seed: int | str, n_samples: int, pairs: Iterable[StatPair]) -> str:
    """One sweep.csv row: the run or pool, then each figure's mean and sd in STEADY_METRICS order."""
    return ",".join([field, value, str(seed), str(n_samples), *(f"{p.mean:.6f},{p.sd:.6f}" for p in pairs)])


def _cmd_sweep(args: argparse.Namespace) -> int:
    base = _load_config(args)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigurationError("--values must name at least one value")
    if args.seeds < 1:
        raise ConfigurationError("--seeds must be >= 1")
    if args.field == "seed":
        raise ConfigurationError("--field seed cannot be swept; use --seeds to run consecutive seeds")
    if args.jobs < 1:
        raise ConfigurationError("--jobs must be >= 1")
    seeds = [base.sim.seed + i for i in range(args.seeds)]
    points = [(v, s) for v in values for s in seeds]
    configs = [base._parsed({args.field: v, "seed": s}) for v, s in points]
    # Check one point per value up front so a bad or repeated value fails
    # before any run starts. Values compare as parsed: 0.1 and 0.10 repeat.
    first_seen: dict[object, str] = {}
    for value, cfg in zip(values, configs[:: len(seeds)]):
        parsed = cfg.flat_items()[args.field]
        if parsed in first_seen:
            raise ConfigurationError(
                f"--values repeats {args.field}={parsed!r} (as {first_seen[parsed]!r} and {value!r})"
            )
        first_seen[parsed] = value
        cfg.validate()
    out = _out_dir(args)
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(run, configs))
    else:
        results = [run(cfg) for cfg in configs]

    rows = []
    by_value: dict[str, list] = {}
    for i, ((value, seed), cfg, result) in enumerate(zip(points, configs, results)):
        run_dir = os.path.join(out, f"run_{i:03d}")
        os.makedirs(run_dir, exist_ok=True)
        _write_run_artifacts(cfg, result, run_dir)
        try:
            s = steady_state_stats(result.metrics, cfg.sim.discard_s)
        except ValueError:
            rows.append(_sweep_row(args.field, value, seed, 0, []) + ",," * len(STEADY_METRICS))
            continue
        by_value.setdefault(value, []).append(s)
        rows.append(_sweep_row(args.field, value, seed, s.n_samples, [getattr(s, n) for n in STEADY_METRICS]))
    for value, summaries in by_value.items():
        n_samples = sum(s.n_samples for s in summaries)
        rows.append(_sweep_row(args.field, value, "pooled", n_samples, pooled_stats(summaries).values()))
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
    except OSError as exc:
        reason = "no such file" if isinstance(exc, FileNotFoundError) else exc.strerror
        print(f"error: {exc.filename or exc}: {reason}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
