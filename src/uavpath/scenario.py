"""Problem instances: terrain + cylindrical threats + endpoints + flight
constraints + cost weights, with a YAML config loader/saver.

The config schema (all keys documented in the README):

    terrain:               # exactly one of dem_path / synthetic
      dem_path: relative/or/absolute.asc
      synthetic: {<SyntheticTerrainSpec fields>, seed}
    threats: [{x, y, r}, ...]
    start: {x, y, z}
    goal: {x, y, z}
    constraints: {<FlightConstraints fields>}
    weights: {<CostWeights fields>}
    n_waypoints: 12

The section keys and their number kinds are read from the dataclasses'
own fields, and ``save_scenario`` writes those fields back, so the
dataclasses are the one statement of the schema.  Every section must be
a mapping (``threats`` a list), every value a number, and a field
annotated ``int`` a whole number.  Unknown keys anywhere are errors.
A schema violation raises a ``ConfigError`` that names the field, and so
does a file that cannot be read or decoded: ``load_scenario`` names the
config file and a bad DEM names ``terrain.dem_path``.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np
import yaml

from .terrain import (
    SyntheticTerrainSpec, TerrainError, TerrainMap, generate_synthetic, height_at, load_dem, save_dem,
)


# Most waypoints a path may have, checked before any swarm is allocated: at
# the default swarm of 500 each of a solver's (swarm, 3n) float64 arrays
# takes 12 MB, each of F2's (threats, swarm * n) ones 4 MB per threat, and
# init's block of 4 tries per particle 64 MB of draws and 48 MB of genomes.
MAX_WAYPOINTS = 1000

EPS_LEN = 1e-9  # below this a path segment counts as degenerate


class ConfigError(ValueError):
    """Raised for every bad input where it is read: a schema violation, a
    scenario invariant, an unreadable config or DEM file, and a bad
    ``SwarmConfig``, ``run`` algorithm, ``BenchmarkSpec`` or suite seed.
    The constructors raise it too: ``Scenario`` for an ``n_waypoints``
    that is not an integer, and ``Threat``, ``FlightConstraints`` and
    ``CostWeights`` for an integer beyond the float range."""


def require_int(name: str, value, minimum: int | None = None) -> None:
    """Reject a value that is not an integer (a bool is not one) or is
    below ``minimum``, naming the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")


def _require_finite(record) -> None:
    """Reject NaN and infinite fields of a dataclass, naming the field."""
    for f in fields(record):
        value = getattr(record, f.name)
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an integer beyond the float range
            raise ConfigError(f"{f.name} is out of range") from None
        if not finite:
            raise ConfigError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class Threat:
    """Cylindrical no-fly zone, unbounded in z."""

    center_x: float
    center_y: float
    radius: float

    def __post_init__(self):
        _require_finite(self)
        if self.radius <= 0:
            raise ConfigError(f"threat radius must be > 0, got {self.radius}")


@dataclass(frozen=True)
class FlightConstraints:
    h_min: float = 20.0
    h_max: float = 120.0
    drone_diameter: float = 1.0
    danger_distance: float = 10.0

    def __post_init__(self):
        _require_finite(self)
        if not (0 <= self.h_min < self.h_max):
            raise ConfigError(
                f"h_min < h_max violated: h_min={self.h_min}, h_max={self.h_max}"
            )
        if self.drone_diameter <= 0:
            raise ConfigError("drone_diameter must be > 0")
        if self.danger_distance < 0:
            raise ConfigError("danger_distance must be >= 0")
        # Read on every F3 call, so taken once.
        object.__setattr__(self, "corridor_mid", 0.5 * (self.h_max + self.h_min))


@dataclass(frozen=True)
class CostWeights:
    b1: float = 1.0
    b2: float = 1.0
    b3: float = 1.0
    b4: float = 1.0
    a1: float = 1.0
    a2: float = 1.0

    def __post_init__(self):
        _require_finite(self)
        for f in fields(self):
            value = getattr(self, f.name)
            if value < 0:
                raise ConfigError(f"{f.name} must be >= 0, got {value}")
        if self.b1 == self.b2 == self.b3 == self.b4 == 0:
            raise ConfigError("at least one of b1..b4 must be > 0")


@dataclass(frozen=True, eq=False)
class Scenario:
    """A full path-planning instance; immutable and safe to share."""

    terrain: TerrainMap
    threats: tuple[Threat, ...]
    start: np.ndarray
    goal: np.ndarray
    constraints: FlightConstraints
    weights: CostWeights
    n_waypoints: int
    name: str = "scenario"
    # Feasibility witness stored by the suite builder; not serialized.
    witness: np.ndarray | None = None

    def __post_init__(self):
        start = np.array(self.start, dtype=float).reshape(3)
        goal = np.array(self.goal, dtype=float).reshape(3)
        start.setflags(write=False)
        goal.setflags(write=False)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "goal", goal)
        object.__setattr__(self, "threats", tuple(self.threats))
        # Every field is immutable, so what scoring and decoding read from
        # them is built once: F2's threat columns (validation reads them too)
        # and the read-only (3, 2) box of x/y from the terrain rectangle and
        # z spanning the altitude corridor over the terrain's elevation range.
        object.__setattr__(self, "threat_table", threat_table(self.threats, self.constraints))
        validate_scenario(self)
        x_min, x_max, y_min, y_max = self.terrain.bounds
        bounds = np.array([
            [x_min, x_max],
            [y_min, y_max],
            [self.terrain.z_min + self.constraints.h_min, self.terrain.z_max + self.constraints.h_max],
        ])
        bounds.setflags(write=False)
        object.__setattr__(self, "axis_bounds", bounds)

    @property
    def n_interior(self) -> int:
        return self.n_waypoints - 2


def threat_table(threats, constraints: FlightConstraints) -> np.ndarray:
    """The (4, K, 1) columns F2 reads per threat, read-only: centre x,
    centre y, collision radius (drone diameter + r) and danger radius
    (danger distance + collision radius)."""
    table = np.empty((4, len(threats), 1))
    for k, t in enumerate(threats):
        collide = constraints.drone_diameter + t.radius
        table[:, k, 0] = t.center_x, t.center_y, collide, constraints.danger_distance + collide
    table.setflags(write=False)
    return table


def rho_max(scenario: Scenario) -> float:
    """Spherical step-length cap: allows a decoded chain about twice the
    direct start-goal distance."""
    direct = float(np.linalg.norm(scenario.goal - scenario.start))
    return 2.0 * direct / (scenario.n_waypoints - 1)


def validate_scenario(sc: Scenario) -> None:
    """Check every Scenario invariant; raise ConfigError naming the field."""
    require_int("n_waypoints", sc.n_waypoints, 3)
    if sc.n_waypoints > MAX_WAYPOINTS:
        raise ConfigError(f"n_waypoints must be <= {MAX_WAYPOINTS}, got {sc.n_waypoints}")
    if rho_max(sc) <= EPS_LEN:  # the spherical step cap must exceed its floor
        raise ConfigError("goal coincides with start")
    x_min, x_max, y_min, y_max = sc.terrain.bounds
    collide = sc.threat_table[2, :, 0]
    for label, p in (("start", sc.start), ("goal", sc.goal)):
        if not (x_min <= p[0] <= x_max and y_min <= p[1] <= y_max):
            raise ConfigError(f"{label} outside terrain bounds")
        try:
            ground = height_at(sc.terrain, p[0], p[1])
        except TerrainError as exc:
            raise ConfigError(f"{label} over unusable terrain: {exc}") from exc
        h = p[2] - ground
        if not (sc.constraints.h_min <= h <= sc.constraints.h_max):
            raise ConfigError(
                f"{label} altitude {h:.1f} m outside corridor "
                f"[{sc.constraints.h_min}, {sc.constraints.h_max}]"
            )
        for k, threat in enumerate(sc.threats):
            if math.hypot(p[0] - threat.center_x, p[1] - threat.center_y) <= collide[k]:
                raise ConfigError(f"{label} inside collision zone of threat {k}")
    for k, threat in enumerate(sc.threats):
        if not (x_min <= threat.center_x <= x_max and y_min <= threat.center_y <= y_max):
            raise ConfigError(f"threat {k} center outside terrain bounds")


# --- config parsing helpers -------------------------------------------------


def _mapping(section, keys, where: str) -> dict:
    """``section`` as a dict with no key outside ``keys``; null reads as empty."""
    section = {} if section is None else section
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a mapping, got {section!r}")
    unknown = set(section) - set(keys)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown, key=str)} in {where}")
    return section


def _number(value, where: str, kind=float):
    """A YAML number as ``kind``; an int must be a whole number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        if kind is int and not float(value).is_integer():
            raise ConfigError(f"{where} must be a whole number, got {value!r}")
        return kind(value)
    except OverflowError:  # a YAML integer beyond the float range
        raise ConfigError(f"{where} is out of range") from None


def _record(cls, section, where: str, extra=()):
    """Build dataclass ``cls`` from the matching keys of ``section``; its
    fields are annotated ``"int"`` or ``"float"``."""
    kinds = {f.name: int if f.type == "int" else float for f in fields(cls)}
    section = _mapping(section, (*kinds, *extra), where)
    values = {k: _number(v, f"{where}.{k}", kinds[k]) for k, v in section.items() if k in kinds}
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _point(section, where: str, keys: str = "xyz") -> list[float]:
    section = _mapping(section, keys, where)
    return [_number(section.get(k), f"{where}.{k}") for k in keys]


def _build_terrain(section, base_dir: str, dems: dict) -> TerrainMap:
    section = _mapping(section, ("dem_path", "synthetic"), "terrain")
    if ("dem_path" in section) == ("synthetic" in section):
        raise ConfigError("terrain needs exactly one of dem_path or synthetic")
    if "dem_path" in section:
        if not isinstance(section["dem_path"], str):
            raise ConfigError(f"terrain.dem_path must be a string, got {section['dem_path']!r}")
        path = os.path.join(base_dir, section["dem_path"])
        key = os.path.realpath(path)
        if key not in dems:
            try:
                dems[key] = load_dem(path)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"terrain.dem_path {path}: {exc}") from exc
        return dems[key]
    synth = section["synthetic"]
    spec = _record(SyntheticTerrainSpec, synth, "terrain.synthetic", extra=("seed",))
    seed = _number(synth.get("seed", 0), "terrain.synthetic.seed", int)
    if seed < 0:
        raise ConfigError(f"terrain.synthetic.seed must be >= 0, got {seed}")
    return generate_synthetic(spec, seed)


def scenario_from_dict(cfg: dict, base_dir: str = ".", name: str = "scenario") -> Scenario:
    """Build and validate a Scenario from a parsed config mapping."""
    return _scenario_from_dict(cfg, base_dir, name, {})


def _scenario_from_dict(cfg, base_dir: str, name: str, dems: dict) -> Scenario:
    """``scenario_from_dict``; a DEM file whose resolved path is a key of
    ``dems`` is not parsed again, and one parsed here is added to it."""
    cfg = _mapping(
        cfg,
        ("terrain", "threats", "start", "goal", "constraints", "weights", "n_waypoints"),
        "config root",
    )
    for req in ("terrain", "start", "goal"):
        if req not in cfg:
            raise ConfigError(f"missing required section {req!r}")
    terrain = _build_terrain(cfg["terrain"], base_dir, dems)
    threat_list = cfg.get("threats")
    if not isinstance(threat_list, (list, type(None))):
        raise ConfigError(f"threats must be a list, got {threat_list!r}")
    threats = []
    for k, t in enumerate(threat_list or []):
        where = f"threats[{k}]"
        x, y, r = _point(t, where, "xyr")
        try:
            threats.append(Threat(x, y, r))
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    return Scenario(
        terrain=terrain,
        threats=tuple(threats),
        start=_point(cfg["start"], "start"),
        goal=_point(cfg["goal"], "goal"),
        constraints=_record(FlightConstraints, cfg.get("constraints"), "constraints"),
        weights=_record(CostWeights, cfg.get("weights"), "weights"),
        n_waypoints=_number(cfg.get("n_waypoints", 12), "n_waypoints", int),
        name=name,
    )


def load_scenario(file_path) -> Scenario:
    """Load and fully validate a scenario config file."""
    return scenario_from_dict(*_read_config(file_path))


def load_scenarios(file_paths) -> list[Scenario]:
    """Load several scenario config files.  Files that name the same DEM
    file share one ``TerrainMap``, parsed once; nothing is kept between
    calls."""
    dems: dict = {}
    return [_scenario_from_dict(*_read_config(p), dems) for p in file_paths]


def _read_config(file_path) -> tuple:
    """The parsed mapping of a config file, the directory its relative
    paths start from, and the scenario name (the file's stem)."""
    try:
        with open(file_path) as fh:
            cfg = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {file_path}: {exc}") from exc
    except (OSError, ValueError) as exc:  # missing, a directory, not UTF-8
        raise ConfigError(f"cannot read {file_path}: {exc}") from exc
    base_dir = os.path.dirname(os.path.abspath(file_path))
    name = os.path.splitext(os.path.basename(file_path))[0]
    return cfg, base_dir, name


def save_scenario(sc: Scenario, file_path) -> None:
    """Write a scenario config; the terrain goes to ``<stem>.asc`` beside
    it, referenced relative to the config."""
    abs_path = os.path.abspath(str(file_path))
    abs_dem = os.path.splitext(abs_path)[0] + ".asc"
    save_dem(sc.terrain, abs_dem)
    cfg = {
        "terrain": {"dem_path": os.path.basename(abs_dem)},
        "threats": [dict(zip("xyr", map(float, astuple(t)))) for t in sc.threats],
        "start": dict(zip("xyz", map(float, sc.start))),
        "goal": dict(zip("xyz", map(float, sc.goal))),
        "constraints": asdict(sc.constraints),
        "weights": asdict(sc.weights),
        "n_waypoints": sc.n_waypoints,
    }
    with open(file_path, "w") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=False)
