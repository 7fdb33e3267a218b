"""Problem instances: terrain + cylindrical threats + endpoints + flight
constraints + cost weights, with a YAML config loader/saver.

The config schema (all keys documented in the README):

    terrain:               # exactly one of dem_path / synthetic
      dem_path: relative/or/absolute.asc
      synthetic: {n_cols, n_rows, cell_size, base_elevation, n_hills,
                  amp_min, amp_max, sigma_min, sigma_max,
                  origin_x, origin_y, seed}
    threats: [{x, y, r}, ...]
    start: {x, y, z}
    goal: {x, y, z}
    constraints: {h_min, h_max, drone_diameter, danger_distance}
    weights: {b1, b2, b3, b4, a1, a2}
    n_waypoints: 12

Unknown keys anywhere are errors.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

import numpy as np
import yaml

from .terrain import SyntheticTerrainSpec, TerrainMap, TerrainError, generate_synthetic, height_at, load_dem


class ConfigError(ValueError):
    """Raised for schema violations and scenario invariant failures."""


def _require_finite(record) -> None:
    """Reject NaN and infinite fields of a dataclass, naming the field."""
    for f in fields(record):
        value = getattr(record, f.name)
        if not math.isfinite(value):
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

    @property
    def corridor_mid(self) -> float:
        return 0.5 * (self.h_max + self.h_min)


@dataclass(frozen=True)
class CostWeights:
    b1: float = 1.0
    b2: float = 1.0
    b3: float = 1.0
    b4: float = 1.0
    a1: float = 1.0
    a2: float = 1.0

    def __post_init__(self):
        vals = (self.b1, self.b2, self.b3, self.b4, self.a1, self.a2)
        if any(not math.isfinite(v) or v < 0 for v in vals):
            raise ConfigError("weights must be finite and >= 0")
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
        validate_scenario(self)

    @property
    def n_interior(self) -> int:
        return self.n_waypoints - 2


def validate_scenario(sc: Scenario) -> None:
    """Check every Scenario invariant; raise ConfigError naming the field."""
    if sc.n_waypoints < 3:
        raise ConfigError(f"n_waypoints must be >= 3, got {sc.n_waypoints}")
    x_min, x_max, y_min, y_max = sc.terrain.bounds
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
            d = math.hypot(p[0] - threat.center_x, p[1] - threat.center_y)
            if d <= sc.constraints.drone_diameter + threat.radius:
                raise ConfigError(f"{label} inside collision zone of threat {k}")
    for k, threat in enumerate(sc.threats):
        if not (x_min <= threat.center_x <= x_max and y_min <= threat.center_y <= y_max):
            raise ConfigError(f"threat {k} center outside terrain bounds")


# --- config parsing helpers -------------------------------------------------

_SYNTH_KEYS = {
    "n_cols", "n_rows", "cell_size", "base_elevation", "n_hills",
    "amp_min", "amp_max", "sigma_min", "sigma_max", "origin_x", "origin_y", "seed",
}


def _check_keys(section: dict, allowed, where: str) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _get_point(section, where: str) -> np.ndarray:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a mapping with x, y, z")
    _check_keys(section, ("x", "y", "z"), where)
    try:
        return np.array([float(section["x"]), float(section["y"]), float(section["z"])])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where} needs numeric x, y, z") from exc


def _build_terrain(section, base_dir: str) -> TerrainMap:
    if not isinstance(section, dict):
        raise ConfigError("terrain must be a mapping")
    _check_keys(section, ("dem_path", "synthetic"), "terrain")
    if ("dem_path" in section) == ("synthetic" in section):
        raise ConfigError("terrain needs exactly one of dem_path or synthetic")
    if "dem_path" in section:
        path = section["dem_path"]
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        if not os.path.exists(path):
            raise ConfigError(f"terrain.dem_path does not exist: {path}")
        return load_dem(path)
    synth = section["synthetic"]
    if not isinstance(synth, dict):
        raise ConfigError("terrain.synthetic must be a mapping")
    _check_keys(synth, _SYNTH_KEYS, "terrain.synthetic")
    seed = int(synth.get("seed", 0))
    fields = {k: v for k, v in synth.items() if k != "seed"}
    try:
        spec = SyntheticTerrainSpec(**fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"terrain.synthetic: {exc}") from exc
    return generate_synthetic(spec, seed)


def scenario_from_dict(cfg: dict, base_dir: str = ".", name: str = "scenario") -> Scenario:
    """Build and validate a Scenario from a parsed config mapping."""
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    _check_keys(
        cfg,
        ("terrain", "threats", "start", "goal", "constraints", "weights", "n_waypoints"),
        "config root",
    )
    for req in ("terrain", "start", "goal"):
        if req not in cfg:
            raise ConfigError(f"missing required section {req!r}")
    terrain = _build_terrain(cfg["terrain"], base_dir)
    threats = []
    for k, t in enumerate(cfg.get("threats") or []):
        if not isinstance(t, dict):
            raise ConfigError(f"threats[{k}] must be a mapping with x, y, r")
        _check_keys(t, ("x", "y", "r"), f"threats[{k}]")
        try:
            threats.append(Threat(float(t["x"]), float(t["y"]), float(t["r"])))
        except ConfigError as exc:
            raise ConfigError(f"threats[{k}]: {exc}") from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"threats[{k}] needs numeric x, y, r") from exc
    cons_cfg = cfg.get("constraints") or {}
    _check_keys(cons_cfg, ("h_min", "h_max", "drone_diameter", "danger_distance"), "constraints")
    weights_cfg = cfg.get("weights") or {}
    _check_keys(weights_cfg, ("b1", "b2", "b3", "b4", "a1", "a2"), "weights")
    try:
        constraints = FlightConstraints(**{k: float(v) for k, v in cons_cfg.items()})
        weights = CostWeights(**{k: float(v) for k, v in weights_cfg.items()})
        n_waypoints = int(cfg.get("n_waypoints", 12))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return Scenario(
        terrain=terrain,
        threats=tuple(threats),
        start=_get_point(cfg["start"], "start"),
        goal=_get_point(cfg["goal"], "goal"),
        constraints=constraints,
        weights=weights,
        n_waypoints=n_waypoints,
        name=name,
    )


def load_scenario(file_path) -> Scenario:
    """Load and fully validate a scenario config file."""
    try:
        with open(file_path) as fh:
            cfg = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {file_path}: {exc}") from exc
    base_dir = os.path.dirname(os.path.abspath(file_path))
    name = os.path.splitext(os.path.basename(file_path))[0]
    return scenario_from_dict(cfg, base_dir=base_dir, name=name)


def save_scenario(sc: Scenario, file_path, dem_path: str | None = None) -> None:
    """Write a scenario config; the terrain goes to ``dem_path`` (an .asc
    file referenced relative to the config) supplied by the caller."""
    from .terrain import save_dem

    base_dir = os.path.dirname(os.path.abspath(str(file_path)))
    if dem_path is None:
        abs_dem = os.path.splitext(os.path.abspath(str(file_path)))[0] + ".asc"
    else:
        abs_dem = dem_path if os.path.isabs(dem_path) else os.path.join(base_dir, dem_path)
    save_dem(sc.terrain, abs_dem)
    cfg = {
        "terrain": {"dem_path": os.path.relpath(abs_dem, base_dir)},
        "threats": [
            {"x": float(t.center_x), "y": float(t.center_y), "r": float(t.radius)}
            for t in sc.threats
        ],
        "start": {"x": float(sc.start[0]), "y": float(sc.start[1]), "z": float(sc.start[2])},
        "goal": {"x": float(sc.goal[0]), "y": float(sc.goal[1]), "z": float(sc.goal[2])},
        "constraints": {
            "h_min": sc.constraints.h_min,
            "h_max": sc.constraints.h_max,
            "drone_diameter": sc.constraints.drone_diameter,
            "danger_distance": sc.constraints.danger_distance,
        },
        "weights": {
            "b1": sc.weights.b1, "b2": sc.weights.b2, "b3": sc.weights.b3,
            "b4": sc.weights.b4, "a1": sc.weights.a1, "a2": sc.weights.a2,
        },
        "n_waypoints": sc.n_waypoints,
    }
    with open(file_path, "w") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=False)
