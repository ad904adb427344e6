"""Run configuration: defaults, INI parsing, overrides, and digests.

The on-disk format is a flat key-value INI whose sections mirror the
package modules, so configs diff cleanly and any field can be overridden
from the command line by its flat name.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field, fields

from .decision import BatteryPolicy, ScoringWeights
from .errors import ConfigurationError
from .grid import DEFAULT_CELL_SIZE_M, CityGrid, build_manhattan_city, load_city
from .radio import DEFAULT_NOISE_SD, PropagationConfig
from .traffic import (
    DAY_PROFILE,
    DEFAULT_DAY_PROFILE,
    UNIFORM,
    ParkingModel,
    day_profile_model,
    load_day_profile,
)


@dataclass
class GridSection:
    blocks_x: int = 8
    blocks_y: int = 8
    road_width_cells: int = 1
    block_size_cells: int = 3
    cell_size_m: float = DEFAULT_CELL_SIZE_M
    city_file: str = ""


@dataclass
class RadioSection:
    base_range_m: float = 155.0
    range_multiplier: float = 1.0
    nlos_penalty: int = 2
    noise_sd: float = DEFAULT_NOISE_SD


@dataclass
class MapsSection:
    min_samples: int = 5


@dataclass
class DecisionSection:
    w_sig: float = 1.0
    w_sat: float = 0.2
    w_cov: float = 0.3
    w_bat: float = 0.0
    learning_period_s: float = 60.0


@dataclass
class BatterySection:
    standard_time_s: float = 1800.0
    max_time_s: float = 3600.0


@dataclass
class TrafficSection:
    mode: str = UNIFORM
    arrival_rate_vps: float = 0.5
    target_moving_vehicles: float = 55.0
    mean_duration_s: float = 3600.0
    speed_mps: float = 8.0
    daily_total: int = 4000
    cruise_mean_s: float = 120.0
    profile_file: str = ""


@dataclass
class SimSection:
    duration_s: float = 7200.0
    seed: int = 1
    discard_s: float = 1800.0
    always_grow: bool = False
    bounds_fill_count: int = 4000


_SECTIONS = {
    "grid": GridSection,
    "radio": RadioSection,
    "maps": MapsSection,
    "decision": DecisionSection,
    "battery": BatterySection,
    "traffic": TrafficSection,
    "sim": SimSection,
}


@dataclass
class RunConfig:
    grid: GridSection = field(default_factory=GridSection)
    radio: RadioSection = field(default_factory=RadioSection)
    maps: MapsSection = field(default_factory=MapsSection)
    decision: DecisionSection = field(default_factory=DecisionSection)
    battery: BatterySection = field(default_factory=BatterySection)
    traffic: TrafficSection = field(default_factory=TrafficSection)
    sim: SimSection = field(default_factory=SimSection)

    @classmethod
    def default(cls) -> "RunConfig":
        return cls()

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        parser = configparser.ConfigParser()
        with open(path) as fh:
            parser.read_file(fh, source=str(path))
        for section_name in parser.sections():
            if section_name not in _SECTIONS:
                raise ConfigurationError(f"{path}: unknown section [{section_name}]")
        cfg = cls()
        for section_name, section_cls in _SECTIONS.items():
            if not parser.has_section(section_name):
                continue
            target = getattr(cfg, section_name)
            known = {f.name: f for f in fields(section_cls)}
            for key, raw in parser.items(section_name):
                if key not in known:
                    raise ConfigurationError(f"{path}: unknown field {section_name}.{key}")
                setattr(target, key, _coerce(section_name, key, raw, known[key].type))
        cfg.validate()
        return cfg

    def flat_items(self) -> dict[str, object]:
        out = {}
        for section_name in _SECTIONS:
            section = getattr(self, section_name)
            for f in fields(section):
                out[f.name] = getattr(section, f.name)
        return out

    def with_overrides(self, **overrides) -> "RunConfig":
        """Copy with flat-name field overrides (e.g. w_sat=0.3, seed=7)."""
        cfg = RunConfig(**{name: dataclasses.replace(getattr(self, name)) for name in _SECTIONS})
        registry = _flat_registry()
        for key, value in overrides.items():
            if key not in registry:
                raise ConfigurationError(f"unknown config field {key!r}")
            section_name, ftype = registry[key]
            section = getattr(cfg, section_name)
            setattr(section, key, _coerce(section_name, key, value, ftype))
        cfg.validate()
        return cfg

    def validate(self) -> None:
        # NaN compares false and inf passes every lower bound, so no range
        # check below could catch either. The one meaningful non-finite
        # value is battery.max_time_s = +inf: no cap on a duty.
        for section_name in _SECTIONS:
            section = getattr(self, section_name)
            for f in fields(section):
                value = getattr(section, f.name)
                if f.type not in (float, "float") or math.isfinite(value):
                    continue
                if math.isnan(value):
                    raise ConfigurationError(f"{section_name}.{f.name}: NaN is not a value")
                if (section_name, f.name, value) != ("battery", "max_time_s", math.inf):
                    raise ConfigurationError(f"{section_name}.{f.name} must be finite")
        g = self.grid
        if not g.city_file and min(g.blocks_x, g.blocks_y, g.road_width_cells, g.block_size_cells) < 1:
            raise ConfigurationError("grid.blocks_x/blocks_y/road_width_cells/block_size_cells must be >= 1")
        if g.cell_size_m <= 0:
            raise ConfigurationError("grid.cell_size_m must be positive")
        r = self.radio
        if r.base_range_m <= 0:
            raise ConfigurationError("radio.base_range_m must be positive")
        if r.range_multiplier <= 0:
            raise ConfigurationError("radio.range_multiplier must be positive")
        if r.nlos_penalty < 0:
            raise ConfigurationError("radio.nlos_penalty must be non-negative")
        if r.noise_sd < 0:
            raise ConfigurationError("radio.noise_sd must be non-negative")
        if self.maps.min_samples < 1:
            raise ConfigurationError("maps.min_samples must be >= 1")
        d = self.decision
        for name in ("w_sig", "w_sat", "w_cov", "w_bat"):
            v = getattr(d, name)
            if v < 0:
                raise ConfigurationError(f"decision.{name} must be non-negative")
        if d.learning_period_s <= 0:
            raise ConfigurationError("decision.learning_period_s must be positive")
        b = self.battery
        if b.standard_time_s <= 0 or b.max_time_s <= b.standard_time_s:
            raise ConfigurationError("battery requires 0 < standard_time_s < max_time_s")
        t = self.traffic
        if t.mode not in (UNIFORM, DAY_PROFILE):
            raise ConfigurationError(f"traffic.mode must be {UNIFORM!r} or {DAY_PROFILE!r}")
        if t.arrival_rate_vps < 0:
            raise ConfigurationError("traffic.arrival_rate_vps must be non-negative")
        if t.target_moving_vehicles <= 0:
            raise ConfigurationError("traffic.target_moving_vehicles must be positive")
        if t.mean_duration_s <= 0:
            raise ConfigurationError("traffic.mean_duration_s must be positive")
        if t.speed_mps <= 0:
            raise ConfigurationError("traffic.speed_mps must be positive")
        if t.daily_total < 0:
            raise ConfigurationError("traffic.daily_total must be non-negative")
        if t.cruise_mean_s <= 0:
            raise ConfigurationError("traffic.cruise_mean_s must be positive")
        s = self.sim
        if s.seed < 0:
            raise ConfigurationError("sim.seed must be non-negative")
        if s.duration_s < 0:
            raise ConfigurationError("sim.duration_s must be non-negative")
        if t.mode == DAY_PROFILE and s.duration_s > 86400:
            raise ConfigurationError("sim.duration_s must be at most 86400 in day_profile mode (one day of arrivals)")
        if s.discard_s < 0:
            raise ConfigurationError("sim.discard_s must be non-negative")
        if s.bounds_fill_count < 1:
            raise ConfigurationError("sim.bounds_fill_count must be >= 1")

    def to_ini(self) -> str:
        lines = []
        for section_name in _SECTIONS:
            lines.append(f"[{section_name}]")
            section = getattr(self, section_name)
            for f in fields(section):
                lines.append(f"{f.name} = {getattr(section, f.name)}")
            lines.append("")
        return "\n".join(lines)

    def digest(self) -> str:
        payload = json.dumps(self.flat_items(), sort_keys=True, default=str)
        return hashlib.sha256(payload.encode()).hexdigest()


def _flat_registry() -> dict[str, tuple[str, object]]:
    registry = {}
    for section_name, section_cls in _SECTIONS.items():
        for f in fields(section_cls):
            registry[f.name] = (section_name, f.type)
    return registry


def _coerce(section: str, key: str, raw, ftype):
    if isinstance(ftype, str):
        ftype = {"int": int, "float": float, "str": str, "bool": bool}.get(ftype, str)
    try:
        if ftype is bool:
            if isinstance(raw, bool):
                return raw
            text = str(raw).strip().lower()
            if text in ("1", "true", "yes", "on"):
                return True
            if text in ("0", "false", "no", "off"):
                return False
            raise ValueError(text)
        if ftype is int:
            return int(str(raw).strip())
        if ftype is not float:
            return str(raw)
        return float(str(raw).strip())
    except ValueError:
        raise ConfigurationError(f"{section}.{key}: cannot parse {raw!r}") from None


def build_grid(cfg: RunConfig) -> CityGrid:
    if cfg.grid.city_file:
        return load_city(cfg.grid.city_file, cell_size_m=cfg.grid.cell_size_m)
    return build_manhattan_city(
        cfg.grid.blocks_x,
        cfg.grid.blocks_y,
        cfg.grid.road_width_cells,
        cfg.grid.block_size_cells,
        cell_size_m=cfg.grid.cell_size_m,
    )


def build_propagation(cfg: RunConfig) -> PropagationConfig:
    return PropagationConfig(
        base_range_m=cfg.radio.base_range_m,
        range_multiplier=cfg.radio.range_multiplier,
        nlos_penalty=cfg.radio.nlos_penalty,
    )


def build_weights(cfg: RunConfig) -> ScoringWeights:
    d = cfg.decision
    return ScoringWeights(signal=d.w_sig, saturation=d.w_sat, coverage=d.w_cov, battery=d.w_bat)


def build_policy(cfg: RunConfig) -> BatteryPolicy:
    return BatteryPolicy(standard_time_s=cfg.battery.standard_time_s, max_time_s=cfg.battery.max_time_s)


def build_parking_model(cfg: RunConfig) -> ParkingModel:
    t = cfg.traffic
    if t.mode == UNIFORM:
        return ParkingModel(
            mode=UNIFORM,
            arrival_rate_vps=t.arrival_rate_vps,
            target_moving_vehicles=t.target_moving_vehicles,
            mean_duration_s=t.mean_duration_s,
        )
    profile = load_day_profile(t.profile_file) if t.profile_file else DEFAULT_DAY_PROFILE
    return day_profile_model(t.daily_total, profile=profile, cruise_mean_s=t.cruise_mean_s)
