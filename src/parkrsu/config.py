"""Run configuration: defaults, INI parsing, overrides, and digests.

The on-disk format is a flat key-value INI whose sections mirror the
package modules, so configs diff cleanly and any field can be overridden
from the command line by its flat name.
"""

import configparser
import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

from .decision import BatteryPolicy, ScoringWeights
from .errors import ConfigurationError, open_text
from .grid import DEFAULT_CELL_SIZE_M, CityGrid, build_manhattan_city, load_city
from .maps import DEFAULT_MIN_SAMPLES
from .radio import DEFAULT_NOISE_SD, PropagationConfig
from .traffic import DAY_PROFILE, DEFAULT_SPEED_MPS, ParkingModel, check_speed, load_day_profile, profile_fields


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
    base_range_m: float = PropagationConfig.base_range_m
    range_multiplier: float = PropagationConfig.range_multiplier
    nlos_penalty: int = PropagationConfig.nlos_penalty
    noise_sd: float = DEFAULT_NOISE_SD


@dataclass
class MapsSection:
    min_samples: int = DEFAULT_MIN_SAMPLES


@dataclass
class DecisionSection:
    w_sig: float = ScoringWeights.signal
    w_sat: float = ScoringWeights.saturation
    w_cov: float = ScoringWeights.coverage
    w_bat: float = ScoringWeights.battery
    learning_period_s: float = 60.0


@dataclass
class BatterySection:
    standard_time_s: float = BatteryPolicy.standard_time_s
    max_time_s: float = BatteryPolicy.max_time_s


@dataclass
class TrafficSection:
    mode: str = ParkingModel.mode
    arrival_rate_vps: float = ParkingModel.arrival_rate_vps
    target_moving_vehicles: float = ParkingModel.target_moving_vehicles
    mean_duration_s: float = ParkingModel.mean_duration_s
    speed_mps: float = DEFAULT_SPEED_MPS
    daily_total: int = ParkingModel.daily_total
    cruise_mean_s: float = ParkingModel.cruise_mean_s
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

# Flat field name -> (section name, field type); every flat name is unique.
_FIELDS = {f.name: (name, f.type) for name, cls in _SECTIONS.items() for f in fields(cls)}


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
        cfg = cls()._parsed(_read_ini(path))
        cfg.validate()
        return cfg

    def flat_items(self) -> dict[str, object]:
        return {name: getattr(getattr(self, section_name), name) for name, (section_name, _) in _FIELDS.items()}

    def with_overrides(self, **overrides) -> "RunConfig":
        """Copy with flat-name field overrides (e.g. w_sat=0.3, seed=7)."""
        cfg = self._parsed(overrides)
        cfg.validate()
        return cfg

    def _parsed(self, items: dict[str, object]) -> "RunConfig":
        """Copy with flat-name fields parsed from text or values, unchecked."""
        cfg = RunConfig(**{name: dataclasses.replace(getattr(self, name)) for name in _SECTIONS})
        for key, raw in items.items():
            if key not in _FIELDS:
                raise ConfigurationError(f"unknown config field {key!r}")
            section_name, ftype = _FIELDS[key]
            setattr(getattr(cfg, section_name), key, _coerce(section_name, key, raw, ftype))
        return cfg

    def validate(self) -> "RunModels":
        """Check every field and build the run's models, each once.

        The model types own their range rules; building them applies those
        rules and reads the city and profile files.
        """
        # A non-finite value is reported by name before any range rule sees
        # it. The one meaningful non-finite value is battery.max_time_s =
        # +inf: no cap on a duty.
        for name, (section_name, ftype) in _FIELDS.items():
            value = getattr(getattr(self, section_name), name)
            if ftype is not float or math.isfinite(value):
                continue
            if math.isnan(value):
                raise ConfigurationError(f"{section_name}.{name}: NaN is not a value")
            if (section_name, name, value) != ("battery", "max_time_s", math.inf):
                raise ConfigurationError(f"{section_name}.{name} must be finite")
        if self.radio.noise_sd < 0:
            raise ConfigurationError("radio.noise_sd must be non-negative")
        if self.maps.min_samples < 1:
            raise ConfigurationError("maps.min_samples must be >= 1")
        if self.decision.learning_period_s <= 0:
            raise ConfigurationError("decision.learning_period_s must be positive")
        grid = build_grid(self)
        check_speed(self.traffic.speed_mps, grid)
        s = self.sim
        if s.seed < 0:
            raise ConfigurationError("sim.seed must be non-negative")
        if s.duration_s < 0:
            raise ConfigurationError("sim.duration_s must be non-negative")
        if self.traffic.mode == DAY_PROFILE and s.duration_s > 86400:
            raise ConfigurationError("sim.duration_s must be at most 86400 in day_profile mode (one day of arrivals)")
        if s.discard_s < 0:
            raise ConfigurationError("sim.discard_s must be non-negative")
        if s.bounds_fill_count < 1:
            raise ConfigurationError("sim.bounds_fill_count must be >= 1")
        return RunModels(
            grid,
            build_propagation(self),
            build_weights(self),
            build_policy(self),
            build_parking_model(self),
        )

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


class RunModels(NamedTuple):
    """The model objects of one run, as RunConfig.validate builds them."""

    grid: CityGrid
    prop: PropagationConfig
    weights: ScoringWeights
    policy: BatteryPolicy
    model: ParkingModel


def _read_ini(path) -> dict[str, str]:
    """Flat name -> raw text of every field in an INI config file, read literally (no % interpolation)."""
    # No header names the empty section, so [DEFAULT] is an ordinary, unknown section.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open_text(path) as fh:
            parser.read_file(fh, source=str(path))
    except (configparser.DuplicateOptionError, configparser.DuplicateSectionError, configparser.ParsingError) as exc:
        raise ConfigurationError(f"{path}: {_ini_problem(exc)}") from None
    items = {}
    for section_name in parser.sections():
        if section_name not in _SECTIONS:
            raise ConfigurationError(f"{path}: unknown section [{section_name}]")
        for key, raw in parser.items(section_name):
            if key not in _FIELDS or _FIELDS[key][0] != section_name:
                raise ConfigurationError(f"{path}: unknown field {section_name}.{key}")
            items[key] = raw
    return items


def _ini_problem(exc) -> str:
    """One line for what the INI parser rejected; its own messages span lines."""
    if isinstance(exc, configparser.DuplicateOptionError):
        return f"line {exc.lineno}: repeated field {exc.section}.{exc.option}"
    if isinstance(exc, configparser.DuplicateSectionError):
        return f"line {exc.lineno}: repeated section [{exc.section}]"
    if isinstance(exc, configparser.MissingSectionHeaderError):
        return f"line {exc.lineno}: text before the first [section] header"
    return f"line {exc.errors[0][0]}: not a [section] header, a field = value line or a comment"


def _coerce(section: str, key: str, raw, ftype):
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
    model = ParkingModel(
        mode=t.mode,
        arrival_rate_vps=t.arrival_rate_vps,
        target_moving_vehicles=t.target_moving_vehicles,
        mean_duration_s=t.mean_duration_s,
        daily_total=t.daily_total,
        cruise_mean_s=t.cruise_mean_s,
    )
    if not t.profile_file:
        return model
    profile = profile_fields(load_day_profile(t.profile_file))
    # The scalar fields passed above, so a rule broken now is the file's.
    try:
        return dataclasses.replace(model, **profile)
    except ConfigurationError as exc:
        raise ConfigurationError(f"traffic.profile_file {t.profile_file}: {exc}") from None
