"""Spans around the library's public entry points, recorded from outside.

While installed, the Tracer replaces each entry point listed in
Tracer._entry_points with a wrapper that records one span per call: a name, a
start, an end and the index of the enclosing span (-1 at top level). Spans
live in flat in-memory arrays and are written out once, when the run ends.
Small hooks count what a span alone cannot show (readings per RSSI call,
footprints computed, candidate pools, bytes written).

Nothing under src/ is modified: wrappers are set on the module or class
attribute the simulator looks up at call time, and removed on exit.
"""

from __future__ import annotations

import os
import time
from array import array
from contextlib import contextmanager

import numpy as np

import parkrsu.decision as pdecision
import parkrsu.maps as pmaps
import parkrsu.radio as pradio
import parkrsu.sim as psim
import parkrsu.traffic as ptraffic

TRAFFIC_SPANS = ("traffic.spawn", "traffic.step", "traffic.maybe_park", "traffic.should_depart")
WRITE_SPAN = "sim.write"

# Percentiles tried for a tail, highest first; a tail needs at least
# TAIL_MIN_BEYOND samples above it.
TAIL_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ten samples beyond it."""
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND:
            return p
    return None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.parking_events = 0
        self.rssi_samples = 0
        self.bytes_written = 0
        self.fill_cars = 0
        self.results: list = []
        self.decisions: list = []  # (pool, decision, solutions)
        self._footprints_seen: dict = {}
        self.footprints_computed = 0
        self._last_solutions: list = []
        self.t0 = time.perf_counter()

    # recording

    def _wrap(self, original, name: str, after=None):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[i] = t0
                end[i] = t1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _entry_points(self):
        """(owner, attribute, span name, hook) for every wrapped call."""
        return (
            (ptraffic.TrafficProcess, "spawn", "traffic.spawn", None),
            (ptraffic.TrafficProcess, "step", "traffic.step", None),
            (ptraffic.TrafficProcess, "maybe_park", "traffic.maybe_park", self._on_park),
            (psim, "should_depart", "traffic.should_depart", None),
            (psim, "sample_rssi_many", "radio.sample_rssi_many", self._on_rssi),
            (pradio.FootprintCache, "footprint", "radio.footprint", self._on_footprint),
            (pmaps.CoverageMapBuilder, "record", "maps.record", None),
            (pmaps.CoverageMapBuilder, "finalize_coverage", "maps.finalize", None),
            (pdecision, "enumerate_solutions", "decision.enumerate", self._on_enumerate),
            (psim, "decide", "decision.decide", self._on_decide),
            (psim.Simulation, "run", "sim.run", self._on_run),
            (psim, "random_assignment_bounds", "sim.bounds", self._on_bounds),
            (psim, "write_metrics_csv", WRITE_SPAN, self._on_write),
            (psim, "write_lifetimes_csv", WRITE_SPAN, self._on_write),
            (psim, "write_commands_csv", WRITE_SPAN, self._on_write),
            (psim, "write_manifest", WRITE_SPAN, self._on_write_manifest),
            (psim, "write_bounds_csv", WRITE_SPAN, self._on_write),
        )

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, hook in self._entry_points():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # hooks

    def _on_park(self, args, parked):
        if parked:
            self.parking_events += 1

    def _on_rssi(self, args, readings):
        self.rssi_samples += len(readings)

    def _on_footprint(self, args, fp):
        # The cache never evicts, so the first request for a cell on a given
        # cache is the one that computes the footprint.
        cache, cell = args
        seen = self._footprints_seen.setdefault(cache, set())
        if cell not in seen:
            seen.add(cell)
            self.footprints_computed += 1

    def _on_enumerate(self, args, solutions):
        self._last_solutions = solutions

    def _on_decide(self, args, decision):
        self.decisions.append((args[0], decision, self._last_solutions))

    def _on_run(self, args, result):
        self.results.append(result)

    def _on_bounds(self, args, bounds):
        self.fill_cars += len(bounds.fill_cells)

    def _on_write(self, args, _):
        self.bytes_written += os.path.getsize(args[1])

    def _on_write_manifest(self, args, _):
        self.bytes_written += os.path.getsize(args[2])

    # reporting

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start_s": np.frombuffer(self.start, dtype=np.float64) - self.t0,
            "end_s": np.frombuffer(self.end, dtype=np.float64) - self.t0,
        }

    def write(self, path: str) -> None:
        np.savez(path, **self.arrays())

    def layer_metrics(self) -> tuple[dict[str, tuple[float, str]], list[str]]:
        """Per-layer metrics {name: (value, unit)} and human-readable notes."""
        a = self.arrays()
        names = list(a["names"])
        nid, parent = a["name_id"], a["parent"]
        dur = a["end_s"] - a["start_s"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child

        def ids(*span_names):
            return [i for i, n in enumerate(names) if n in span_names]

        def mask(*span_names):
            return np.isin(nid, ids(*span_names))

        def count(*span_names):
            return int(mask(*span_names).sum())

        def busy(*span_names):
            return float(dur[mask(*span_names)].sum())

        notes: list[str] = []

        def latency_us(label, values_s):
            values = np.asarray(values_s) * 1e6
            if values.size == 0:
                return 0.0, 0.0
            p50 = float(np.percentile(values, 50))
            p = tail_percentile(values.size)
            tail = float(np.percentile(values, p)) if p is not None else p50
            notes.append(f"{label}: n={values.size} p50={p50:.1f}us p{p if p else 50:g}={tail:.1f}us")
            return p50, tail

        decide_mask = mask("decision.decide")
        decide_p50, decide_tail = latency_us("decision.decide latency", dur[decide_mask])

        # A tick starts where the loop asks traffic to spawn; the last tick of
        # each run ends with the run span.
        run_spans = np.flatnonzero(mask("sim.run"))
        tick_lengths = []
        for r in run_spans:
            starts = a["start_s"][mask("traffic.spawn") & (parent == r)]
            edges = np.append(starts, a["end_s"][r])
            tick_lengths.append(np.diff(edges))
        ticks = np.concatenate(tick_lengths) if tick_lengths else np.empty(0)
        tick_p50, tick_tail = latency_us("sim tick latency", ticks)

        rssi_calls = count("radio.sample_rssi_many")
        fp_calls = count("radio.footprint")
        decide_calls = int(decide_mask.sum())
        scored = sum(1 for _, _, sols in self.decisions for s in sols if s.score is not None)
        neighbors = sum(len(pool.neighbors) for pool, _, _ in self.decisions)
        mc = [r.message_counts for r in self.results]

        m = {
            "traffic.vehicle_steps": (count("traffic.step"), "count"),
            "traffic.parking_trials": (count("traffic.maybe_park"), "count"),
            "traffic.parking_events": (self.parking_events, "count"),
            "traffic.busy_s": (busy(*TRAFFIC_SPANS), "s"),
            "radio.rssi_calls": (rssi_calls, "count"),
            "radio.rssi_samples": (self.rssi_samples, "count"),
            "radio.rssi_samples_per_call": (self.rssi_samples / rssi_calls if rssi_calls else 0.0, "count"),
            "radio.rssi_busy_s": (busy("radio.sample_rssi_many"), "s"),
            "radio.footprint_calls": (fp_calls, "count"),
            "radio.footprint_computed": (self.footprints_computed, "count"),
            "radio.footprint_hit_ratio": (
                1.0 - self.footprints_computed / fp_calls if fp_calls else 0.0,
                "ratio",
            ),
            "radio.footprint_busy_s": (busy("radio.footprint"), "s"),
            "maps.records": (count("maps.record"), "count"),
            "maps.record_busy_s": (busy("maps.record"), "s"),
            "maps.finalize_calls": (count("maps.finalize"), "count"),
            "maps.finalize_busy_s": (busy("maps.finalize"), "s"),
            "decision.decide_calls": (decide_calls, "count"),
            "decision.solutions_scored": (scored, "count"),
            "decision.pool_neighbors_mean": (neighbors / decide_calls if decide_calls else 0.0, "count"),
            "decision.decide_busy_s": (busy("decision.decide"), "s"),
            "decision.decide_p50_us": (decide_p50, "us"),
            "decision.decide_tail_us": (decide_tail, "us"),
            "sim.ticks": (int(ticks.size), "count"),
            "sim.tick_p50_us": (tick_p50, "us"),
            "sim.tick_tail_us": (tick_tail, "us"),
            "sim.self_s": (float(self_time[run_spans].sum()), "s"),
            "sim.cam_messages": (sum(c[psim.KIND_CAM] for c in mc), "count"),
            "sim.map_messages": (
                sum(c[psim.KIND_MAP_REQUEST] + c[psim.KIND_MAP_RESPONSE] for c in mc),
                "count",
            ),
            "sim.role_commands": (
                sum(c[psim.KIND_ROLE_ASSIGN] + c[psim.KIND_ROLE_REVOKE] for c in mc),
                "count",
            ),
            "sim.bounds_busy_s": (busy("sim.bounds"), "s"),
            "sim.bounds_fill_cars": (self.fill_cars, "count"),
            "sim.write_s": (busy(WRITE_SPAN), "s"),
            "sim.bytes_written": (self.bytes_written, "bytes"),
        }
        notes.append(f"spans recorded: {len(dur)}")
        return m, notes
