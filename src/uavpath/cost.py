"""Path cost model: length, threat, altitude and smoothness terms plus the
weighted total.

A path is an (n, 3) array of waypoints in meters whose first and last rows
are the fixed start and goal.  Infeasible features (collision, corridor
violation, off-map flight) make the affected term infinite, and any
infinite weighted term makes the total infinite.

All functions are pure.  Each term is a ``*_many`` kernel over a stack of
paths (M, n, 3), one value per path; ``evaluate_paths`` is what the
optimizers call, and ``total_cost`` breaks one path into its terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scenario import EPS_LEN, FlightConstraints, Scenario


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
    """Sum of Euclidean segment lengths."""
    # Two infinite coordinates in a row give inf - inf, a huge one overflows
    # the square; the NaN or inf that follows scores the path +inf, so the
    # warning adds nothing.
    with np.errstate(invalid="ignore", over="ignore"):
        steps = paths[..., 1:, :] - paths[..., :-1, :]
        return np.sqrt((steps**2).sum(axis=-1)).sum(axis=-1)


# --- F2: threat cost ---------------------------------------------------------

def threat_cost_many(paths: np.ndarray, threats, constraints: FlightConstraints) -> np.ndarray:
    """Sum over segments and threats of a penalty in the horizontal distance
    d from the cylinder axis to the segment: zero beyond the danger annulus,
    linear inside it, infinite in the collision disc."""
    if len(threats) == 0:
        return np.zeros(paths.shape[0])
    # An infinite coordinate gives inf - inf and inf / inf below, a huge one
    # overflows a product; the NaN or inf that follows scores the path +inf,
    # so the warning adds nothing.
    with np.errstate(invalid="ignore", over="ignore"):
        # Threat-major layout: the P = M * (n-1) segments sit on one flat
        # contiguous axis and each threat is a row of (K, P) arrays, so every
        # op below runs one loop of P elements; x and y are kept apart and
        # updated in place, since reducing a length-2 axis and allocating
        # temporaries cost more than the arithmetic.
        m, n = paths.shape[:2]
        circles = np.array([(t.center_x, t.center_y, t.radius) for t in threats])
        cx, cy, radii = circles.T[..., None]  # (K, 1) each
        x, y = paths[..., 0], paths[..., 1]  # (M, n)
        ax, ay = x[:, :-1].reshape(-1), y[:, :-1].reshape(-1)  # (P,) copies
        abx = (x[:, 1:] - x[:, :-1]).reshape(-1)
        aby = (y[:, 1:] - y[:, :-1]).reshape(-1)
        denom = abx * abx + aby * aby
        # closest point a + t * ab to each centre, t clamped to the segment; a
        # zero-length segment has a zero numerator, so t = 0 (its start point)
        t = cx - ax
        t *= abx
        dy = cy - ay
        dy *= aby
        t += dy
        t /= np.where(denom > 0, denom, np.inf)
        np.maximum(t, 0.0, out=t)
        np.minimum(t, 1.0, out=t)
        dx = t * abx
        dx += ax
        np.subtract(cx, dx, out=dx)  # cx - (ax + t * abx)
        np.multiply(t, aby, out=dy)
        dy += ay
        np.subtract(cy, dy, out=dy)
        dx *= dx
        dy *= dy
        dx += dy
        d = np.sqrt(dx, out=dx)
        collide_r = constraints.drone_diameter + radii  # (K, 1)
        penalty = constraints.danger_distance + collide_r - d
        np.maximum(penalty, 0.0, out=penalty)
        np.putmask(penalty, d <= collide_r, np.inf)
        # Summed from segment-major (M, n-1, K) order, as numpy's pairwise
        # sum of the original layout did, so every total keeps its bits.
        by_path = penalty.reshape(len(threats), m, n - 1).transpose(1, 2, 0)
        return np.ascontiguousarray(by_path).sum(axis=(1, 2))


# --- F3: altitude cost -------------------------------------------------------

def altitude_cost_many(paths: np.ndarray, terrain, constraints: FlightConstraints) -> np.ndarray:
    """Sum of |height above ground - corridor midpoint| over the waypoints;
    infinite once a waypoint leaves [h_min, h_max] or the map."""
    ground = terrain.heights(paths[..., 0], paths[..., 1])  # NaN off-map / nodata
    h = paths[..., 2] - ground
    in_corridor = (h >= constraints.h_min) & (h <= constraints.h_max)
    penalty = np.where(in_corridor, np.abs(h - constraints.corridor_mid), np.inf)
    return penalty.sum(axis=-1)


# --- F4: smoothness ----------------------------------------------------------

def _segments(paths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Segment vectors (M, n-1, 3) and their horizontal lengths (M, n-1)."""
    steps = paths[..., 1:, :] - paths[..., :-1, :]
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
    """a1 * sum of turn angles + a2 * sum of |climb delta| over consecutive
    segment pairs."""
    # As in F1 and F2, an infinite coordinate's inf - inf, or a huge one's
    # overflow, only makes the path's NaN or inf, which scores +inf.
    with np.errstate(invalid="ignore", over="ignore"):
        steps, horiz = _segments(paths)
        turns = _turn_angles(steps, horiz).sum(axis=-1)
        climbs = _climb_angles(steps, horiz)
        deltas = np.abs(climbs[..., 1:] - climbs[..., :-1]).sum(axis=-1)
        return weights.a1 * turns + weights.a2 * deltas


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
    scores +inf, as its weighted total would.  Once no path is left in the
    running the call returns, so F2, F1 and F4 never run on an empty stack.
    The kernels work row by row, so each surviving total is bit-identical
    to that of the full batch.
    """
    paths = _as_paths(paths)
    weights, cons = scenario.weights, scenario.constraints
    total = np.full(paths.shape[0], np.inf)
    f3 = altitude_cost_many(paths, scenario.terrain, cons)
    rows = np.flatnonzero(_in_running(f3, weights.b3))
    if rows.size == 0:
        return total
    f2 = threat_cost_many(paths[rows], scenario.threats, cons)
    keep = _in_running(f2, weights.b2)
    rows, f2 = rows[keep], f2[keep]
    if rows.size == 0:
        return total
    live = paths[rows]
    total[rows] = _weighted_total(
        length_cost_many(live), f2, f3[rows], smooth_cost_many(live, weights), weights
    )
    return total


def total_cost(waypoints, scenario: Scenario) -> CostBreakdown:
    """Full cost of one path whose endpoints must equal the scenario's."""
    paths = _as_paths(waypoints)
    if paths.shape[0] != 1:
        raise ValueError(f"total_cost scores one path, got a stack of {paths.shape[0]}")
    n = paths.shape[1]
    if n < 3:
        raise ValueError(f"a path needs at least 3 waypoints, got {n}")
    if not (np.array_equal(paths[0, 0], scenario.start) and np.array_equal(paths[0, -1], scenario.goal)):
        raise ValueError("path endpoints do not match the scenario start/goal")
    terms = cost_components(paths, scenario)
    total = _weighted_total(*terms, scenario.weights)
    # A NaN term reads +inf, as the total does: the path is infeasible.
    f1, f2, f3, f4 = (math.inf if math.isnan(f[0]) else float(f[0]) for f in terms)
    return CostBreakdown(f1, f2, f3, f4, float(total[0]))
