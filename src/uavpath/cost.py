"""Path cost model: length, threat, altitude and smoothness terms plus the
weighted total.

A path is an (n, 3) array of waypoints in meters whose first and last rows
are the fixed start and goal.  Infeasible features (collision, corridor
violation, off-map flight) make the affected term infinite, and any
infinite weighted term makes the total infinite.

All functions are pure; the ``*_many`` variants evaluate a whole stack of
paths (M, n, 3) in vectorized form and are what the optimizers call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario import FlightConstraints, Scenario, Threat

EPS_LEN = 1e-9  # below this a segment counts as degenerate


@dataclass(frozen=True)
class CostBreakdown:
    f1: float
    f2: float
    f3: float
    f4: float
    total: float


def _as_paths(waypoints) -> np.ndarray:
    """Coerce (n,3) or (M,n,3) input to (M,n,3)."""
    arr = np.asarray(waypoints, dtype=float)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3 or arr.shape[-1] != 3:
        raise ValueError(f"expected waypoints of shape (n, 3), got {arr.shape}")
    return arr


# --- F1: path length ---------------------------------------------------------

def length_cost_many(paths: np.ndarray) -> np.ndarray:
    # Two infinite coordinates in a row give inf - inf; the NaN that
    # follows scores the path +inf, so the warning adds nothing.
    with np.errstate(invalid="ignore"):
        steps = np.diff(paths, axis=-2)
    return np.sqrt((steps**2).sum(axis=-1)).sum(axis=-1)


def path_length_cost(waypoints) -> float:
    """Sum of Euclidean segment lengths."""
    return float(length_cost_many(_as_paths(waypoints))[0])


# --- F2: threat cost ---------------------------------------------------------

def threat_cost_many(paths: np.ndarray, threats, constraints: FlightConstraints) -> np.ndarray:
    if len(threats) == 0:
        return np.zeros(paths.shape[0])
    # An infinite coordinate gives inf - inf and inf / inf below; the NaN
    # that follows scores the path +inf, so the warning adds nothing.
    with np.errstate(invalid="ignore"):
        # x and y are kept apart as (M, n-1, K) arrays, updated in place:
        # reducing a length-2 axis and allocating temporaries cost more than
        # the arithmetic.
        cx = np.array([t.center_x for t in threats])  # (K,)
        cy = np.array([t.center_y for t in threats])
        radii = np.array([t.radius for t in threats])
        ax, ay = paths[:, :-1, 0, None], paths[:, :-1, 1, None]  # (M, n-1, 1)
        abx, aby = paths[:, 1:, 0, None] - ax, paths[:, 1:, 1, None] - ay
        denom = abx * abx + aby * aby
        # closest point a + t * ab to each centre, t clamped to the segment; a
        # zero-length segment has a zero numerator, so t = 0 (its start point)
        t = (cx - ax) * abx
        t += (cy - ay) * aby
        t /= np.where(denom > 0, denom, np.inf)
        np.maximum(t, 0.0, out=t)
        np.minimum(t, 1.0, out=t)
        dx = t * abx
        dx += ax
        np.subtract(cx, dx, out=dx)  # cx - (ax + t * abx)
        dy = t * aby
        dy += ay
        np.subtract(cy, dy, out=dy)
        dx *= dx
        dy *= dy
        dx += dy
        d = np.sqrt(dx, out=dx)
        collide_r = constraints.drone_diameter + radii  # (K,)
        danger_r = constraints.danger_distance + collide_r
        penalty = danger_r - d
        np.maximum(penalty, 0.0, out=penalty)
        penalty[d <= collide_r] = np.inf
        return penalty.sum(axis=(1, 2))


def segment_threat_penalty(seg_start, seg_end, threat: Threat, constraints: FlightConstraints) -> float:
    """Penalty of one segment against one cylinder.

    d is the minimum horizontal distance from the cylinder axis to the
    segment's x-y projection: zero beyond the danger annulus, linear
    inside it, infinite in the collision disc.
    """
    seg = np.vstack([np.asarray(seg_start, dtype=float), np.asarray(seg_end, dtype=float)])
    return float(threat_cost_many(seg[None], [threat], constraints)[0])


def threat_cost(waypoints, threats, constraints: FlightConstraints) -> float:
    """Penalty summed over every segment and every threat."""
    return float(threat_cost_many(_as_paths(waypoints), threats, constraints)[0])


# --- F3: altitude cost -------------------------------------------------------

def altitude_cost_many(paths: np.ndarray, terrain, constraints: FlightConstraints) -> np.ndarray:
    ground = terrain.heights(paths[..., 0], paths[..., 1])  # NaN off-map / nodata
    h = paths[..., 2] - ground
    in_corridor = (h >= constraints.h_min) & (h <= constraints.h_max)
    penalty = np.where(in_corridor, np.abs(h - constraints.corridor_mid), np.inf)
    return penalty.sum(axis=-1)


def altitude_penalty(waypoint, terrain, constraints: FlightConstraints) -> float:
    """Deviation from mid-corridor height above ground, or infinity when the
    waypoint leaves the [h_min, h_max] band (or flies off the map)."""
    p = np.asarray(waypoint, dtype=float).reshape(1, 1, 3)
    return float(altitude_cost_many(p, terrain, constraints)[0])


def altitude_cost(waypoints, terrain, constraints: FlightConstraints) -> float:
    return float(altitude_cost_many(_as_paths(waypoints), terrain, constraints)[0])


# --- F4: smoothness ----------------------------------------------------------

def _segments(paths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Segment vectors (M, n-1, 3) and their horizontal lengths (M, n-1)."""
    steps = np.diff(paths, axis=-2)
    return steps, np.hypot(steps[..., 0], steps[..., 1])


def _turn_angles(steps: np.ndarray, horiz: np.ndarray) -> np.ndarray:
    """Horizontal turn angle at each interior waypoint, (M, n-2)."""
    ux, uy = steps[:, :-1, 0], steps[:, :-1, 1]
    vx, vy = steps[:, 1:, 0], steps[:, 1:, 1]
    ang = np.arctan2(np.abs(ux * vy - uy * vx), ux * vx + uy * vy)
    ok = (horiz[:, :-1] > EPS_LEN) & (horiz[:, 1:] > EPS_LEN)
    return np.where(ok, ang, 0.0)


def _climb_angles(steps: np.ndarray, horiz: np.ndarray) -> np.ndarray:
    """Climb angle of each segment, (M, n-1); degenerate segments give 0."""
    dz = steps[..., 2]
    ang = np.arctan2(dz, horiz)
    sx, sy = steps[..., 0], steps[..., 1]
    ok = np.sqrt(sx * sx + sy * sy + dz * dz) > EPS_LEN
    return np.where(ok, ang, 0.0)


def smooth_cost_many(paths: np.ndarray, weights) -> np.ndarray:
    # As in F1 and F2, an infinite coordinate's inf - inf only makes the
    # path's NaN, which scores +inf.
    with np.errstate(invalid="ignore"):
        steps, horiz = _segments(paths)
        turns = _turn_angles(steps, horiz).sum(axis=-1)
        climbs = _climb_angles(steps, horiz)
        deltas = np.abs(np.diff(climbs, axis=-1)).sum(axis=-1)
        return weights.a1 * turns + weights.a2 * deltas


def turn_angle(p0, p1, p2) -> float:
    """Angle in [0, pi] between consecutive segments projected on the
    horizontal plane; zero when either projection is degenerate."""
    path = np.vstack([p0, p1, p2]).astype(float)
    return float(_turn_angles(*_segments(path[None]))[0, 0])


def climb_angle(p0, p1) -> float:
    """Angle in [-pi/2, pi/2] between a segment and its horizontal
    projection; vertical segments give +-pi/2, zero-length segments 0."""
    path = np.vstack([p0, p1]).astype(float)
    return float(_climb_angles(*_segments(path[None]))[0, 0])


def smooth_cost(waypoints, weights) -> float:
    """a1 * sum of turn angles + a2 * sum of |climb delta| over consecutive
    segment pairs."""
    return float(smooth_cost_many(_as_paths(waypoints), weights)[0])


# --- total -------------------------------------------------------------------

def cost_components(paths: np.ndarray, scenario: Scenario):
    """(f1, f2, f3, f4) arrays for a stack of paths."""
    f1 = length_cost_many(paths)
    f2 = threat_cost_many(paths, scenario.threats, scenario.constraints)
    f3 = altitude_cost_many(paths, scenario.terrain, scenario.constraints)
    f4 = smooth_cost_many(paths, scenario.weights)
    return f1, f2, f3, f4


def _weighted_total(f1, f2, f3, f4, weights) -> np.ndarray:
    total = np.zeros_like(f1)
    for b, f in ((weights.b1, f1), (weights.b2, f2), (weights.b3, f3), (weights.b4, f4)):
        if b > 0:  # skip zero weights so 0 * inf cannot poison the sum
            total = total + b * f
    # A NaN coordinate makes a term NaN; such a path is infeasible, and a
    # NaN fitness must never win an argmin.
    total[np.isnan(total)] = np.inf
    return total


def _in_running(term: np.ndarray, weight: float) -> np.ndarray:
    """Rows a term leaves feasible; a zero-weight term is not in the total,
    so it rules out none."""
    return np.isfinite(term) | (weight == 0)


def evaluate_paths(paths, scenario: Scenario) -> np.ndarray:
    """Total cost of each path in an (M, n, 3) stack; the optimizer hot path.

    Feasibility first: F3 runs on every path, F2 on the paths F3 left
    finite, F1 and F4 on the paths both left finite, and every other path
    scores +inf, as its weighted total would.  The kernels work row by row,
    so each surviving total is bit-identical to that of the full batch.
    """
    paths = _as_paths(paths)
    weights, cons = scenario.weights, scenario.constraints
    f3 = altitude_cost_many(paths, scenario.terrain, cons)
    rows = np.flatnonzero(_in_running(f3, weights.b3))
    f2 = threat_cost_many(paths[rows], scenario.threats, cons)
    keep = _in_running(f2, weights.b2)
    rows, f2 = rows[keep], f2[keep]
    live = paths[rows]
    total = np.full(paths.shape[0], np.inf)
    total[rows] = _weighted_total(
        length_cost_many(live), f2, f3[rows], smooth_cost_many(live, weights), weights
    )
    return total


def total_cost(waypoints, scenario: Scenario) -> CostBreakdown:
    """Full cost of one path whose endpoints must equal the scenario's."""
    paths = _as_paths(waypoints)
    n = paths.shape[1]
    if n < 3:
        raise ValueError(f"a path needs at least 3 waypoints, got {n}")
    if not (np.array_equal(paths[0, 0], scenario.start) and np.array_equal(paths[0, -1], scenario.goal)):
        raise ValueError("path endpoints do not match the scenario start/goal")
    f1, f2, f3, f4 = cost_components(paths, scenario)
    total = _weighted_total(f1, f2, f3, f4, scenario.weights)
    return CostBreakdown(float(f1[0]), float(f2[0]), float(f3[0]), float(f4[0]), float(total[0]))
