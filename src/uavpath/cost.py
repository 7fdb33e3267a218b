"""Path cost model: length, threat, altitude and smoothness terms plus the
weighted total.

A path is an (n, 3) array of waypoints in meters whose first and last rows
are the fixed start and goal.  Infeasible features (collision, corridor
violation, off-map flight) make the affected term infinite, and any
infinite weighted term makes the total infinite.

All functions are pure.  ``evaluate_paths`` is what the optimizers call,
and ``total_cost`` breaks one path into its terms.  Each term is a
``*_many`` kernel with one value per path of a stack (M, n, 3);
``evaluate_paths`` runs them in passes of at most ``MAX_STACK`` rows.  The
kernels read a pass's stack laid out once: its x, y and z planes
(``path_planes``), its segment vectors (``segment_steps``) and their
lengths (``segment_lengths``), which F1 and F4 share.  F2 reads the
scenario's ``threat_table``, built once with the scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scenario import EPS_LEN, FlightConstraints, Scenario, planar_distance


# Most rows per kernel pass.  The cost per path of a pass rises past about
# 1500 rows (s4 and the 1201x1201 DEM; see CHANGES.md), and F2's
# (K, M * (n-1)) arrays grow with the rows.
MAX_STACK = 1000


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


# --- layout -----------------------------------------------------------------

def path_planes(paths: np.ndarray) -> np.ndarray:
    """The (3, M, n) x, y and z planes of an (M, n, 3) stack, the layout the
    kernels read: each plane is one contiguous (M, n) array."""
    return np.ascontiguousarray(paths.transpose(2, 0, 1))


def segment_steps(points: np.ndarray) -> np.ndarray:
    """Segment vectors of ``path_planes`` output as (3, M, n-1) planes."""
    # Two infinite coordinates in a row give inf - inf, two huge ones of
    # opposite sign overflow; the NaN or inf that follows scores the path
    # +inf, so the warning adds nothing.
    with np.errstate(invalid="ignore", over="ignore"):
        return points[..., 1:] - points[..., :-1]


def segment_lengths(steps: np.ndarray) -> np.ndarray:
    """Euclidean length of each segment, (M, n-1): F1 sums them and F4
    reads them to tell degenerate segments."""
    # A huge coordinate overflows the square; the path then scores +inf.
    with np.errstate(invalid="ignore", over="ignore"):
        sx, sy, sz = steps
        lengths = sx * sx
        lengths += sy * sy
        lengths += sz * sz
        return np.sqrt(lengths, out=lengths)


# --- F1: path length ---------------------------------------------------------

def length_cost_many(lengths: np.ndarray) -> np.ndarray:
    """Sum of the Euclidean segment lengths (``segment_lengths``)."""
    return lengths.sum(axis=-1)


# --- F2: threat cost ---------------------------------------------------------

def threat_cost_many(points: np.ndarray, steps: np.ndarray, threats: np.ndarray) -> np.ndarray:
    """Sum over segments and threats of a penalty in the horizontal distance
    d from the cylinder axis to the segment: zero beyond the danger annulus,
    linear inside it, infinite in the collision disc.  ``threats`` is a
    ``threat_table``; d is ``planar_distance``, as the endpoint check's."""
    _, m, segs = steps.shape
    k = threats.shape[1]
    if k == 0:
        return np.zeros(m)
    # An infinite coordinate gives inf - inf and inf / inf below, a huge one
    # overflows a product; the NaN or inf that follows scores the path +inf,
    # so the warning adds nothing.
    with np.errstate(invalid="ignore", over="ignore"):
        # Threat-major layout: the P = M * (n-1) segments sit on one flat
        # contiguous axis and each threat is a row of (K, P) arrays, so every
        # op below runs one loop of P elements; x and y are kept apart and
        # updated in place, since reducing a length-2 axis and allocating
        # temporaries cost more than the arithmetic.
        cx, cy, collide_r, danger_r = threats  # (K, 1) each
        ax = points[0, :, :-1].reshape(-1)  # (P,) copies
        ay = points[1, :, :-1].reshape(-1)
        abx = steps[0].reshape(-1)
        aby = steps[1].reshape(-1)
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
        d = planar_distance(dx, dy)
        penalty = danger_r - d
        np.maximum(penalty, 0.0, out=penalty)
        np.putmask(penalty, d <= collide_r, np.inf)
        # Summed from segment-major (M, n-1, K) order, as numpy's pairwise
        # sum of the original layout did, so every total keeps its bits.
        by_path = penalty.reshape(k, m, segs).transpose(1, 2, 0)
        return np.ascontiguousarray(by_path).sum(axis=(1, 2))


# --- F3: altitude cost -------------------------------------------------------

def altitude_cost_many(points: np.ndarray, terrain, constraints: FlightConstraints) -> np.ndarray:
    """Sum of |height above ground - corridor midpoint| over the waypoints;
    infinite once a waypoint leaves the map or the corridor (``in_corridor``)."""
    ground = terrain.heights(points[0], points[1])  # NaN off-map / nodata
    h = points[2] - ground
    penalty = np.where(constraints.in_corridor(h), np.abs(h - constraints.corridor_mid), np.inf)
    return penalty.sum(axis=-1)


# --- F4: smoothness ----------------------------------------------------------

def _turn_angles(sx: np.ndarray, sy: np.ndarray, horiz: np.ndarray) -> np.ndarray:
    """Horizontal turn angle at each interior waypoint, (M, n-2), from the
    segments' x and y planes and horizontal lengths."""
    ux, uy = sx[:, :-1], sy[:, :-1]
    vx, vy = sx[:, 1:], sy[:, 1:]
    ang = np.arctan2(np.abs(ux * vy - uy * vx), ux * vx + uy * vy)
    ok = (horiz[:, :-1] > EPS_LEN) & (horiz[:, 1:] > EPS_LEN)
    return np.where(ok, ang, 0.0)


def _climb_angles(sz: np.ndarray, horiz: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Climb angle of each segment, (M, n-1); degenerate segments give 0."""
    return np.where(lengths > EPS_LEN, np.arctan2(sz, horiz), 0.0)


def smooth_cost_many(steps: np.ndarray, lengths: np.ndarray, weights) -> np.ndarray:
    """a1 * sum of turn angles + a2 * sum of |climb delta| over consecutive
    segment pairs, from ``segment_steps`` and ``segment_lengths``."""
    # As in F2, an infinite coordinate's inf - inf, or a huge one's
    # overflow, only makes the path's NaN or inf, which scores +inf.
    with np.errstate(invalid="ignore", over="ignore"):
        sx, sy, sz = steps
        horiz = np.hypot(sx, sy)
        turns = _turn_angles(sx, sy, horiz).sum(axis=-1)
        climbs = _climb_angles(sz, horiz, lengths)
        deltas = np.abs(climbs[..., 1:] - climbs[..., :-1]).sum(axis=-1)
        return weights.a1 * turns + weights.a2 * deltas


# --- total -------------------------------------------------------------------

def cost_components(paths: np.ndarray, scenario: Scenario):
    """(f1, f2, f3, f4) arrays for a stack of paths."""
    points = path_planes(paths)
    steps = segment_steps(points)
    lengths = segment_lengths(steps)
    f1 = length_cost_many(lengths)
    f2 = threat_cost_many(points, steps, scenario.threat_table)
    f3 = altitude_cost_many(points, scenario.terrain, scenario.constraints)
    f4 = smooth_cost_many(steps, lengths, scenario.weights)
    return f1, f2, f3, f4


def _weighted_total(f1, f2, f3, f4, weights) -> np.ndarray:
    total = None
    for b, f in ((weights.b1, f1), (weights.b2, f2), (weights.b3, f3), (weights.b4, f4)):
        if b > 0:  # skip zero weights so 0 * inf cannot poison the sum
            # Every term is >= 0 or NaN, so starting from the first term
            # gives the bits of starting from zero.
            total = b * f if total is None else total + b * f
    # A NaN coordinate makes a term NaN; such a path is infeasible, and a
    # NaN fitness must never win an argmin.
    total[np.isnan(total)] = np.inf
    return total


def _in_running(term: np.ndarray, weight: float) -> np.ndarray:
    """Rows a term leaves feasible; a zero-weight term is not in the total,
    so it rules out none."""
    return np.isfinite(term) if weight else np.ones(term.shape, dtype=bool)


def evaluate_paths(paths, scenario: Scenario) -> np.ndarray:
    """Total cost of each path in an (M, n, 3) stack; the optimizer hot path.
    The stack is scored in passes of at most ``MAX_STACK`` rows (``_evaluate_slice``);
    the kernels work row by row, so each total has the bits of its path alone."""
    paths = _as_paths(paths)
    if len(paths) <= MAX_STACK:
        return _evaluate_slice(paths, scenario)
    starts = range(0, len(paths), MAX_STACK)
    return np.concatenate([_evaluate_slice(paths[a:a + MAX_STACK], scenario) for a in starts])


def _evaluate_slice(paths: np.ndarray, scenario: Scenario) -> np.ndarray:
    """``evaluate_paths`` of an (M, n, 3) stack in one kernel pass.

    Feasibility first: F3 runs on every path, F2 on the paths F3 left
    finite, F1 and F4 on the paths both left finite, and every other path
    scores +inf, as its weighted total would.  Once no path is left in the
    running the pass returns, so F2, F1 and F4 never run on an empty stack.
    The stack is laid out as planes once, and its segments are taken once,
    for the rows F3 leaves.
    """
    points = path_planes(paths)
    weights = scenario.weights
    m = points.shape[1]
    f3 = altitude_cost_many(points, scenario.terrain, scenario.constraints)
    rows = np.flatnonzero(_in_running(f3, weights.b3))
    if rows.size == 0:
        return np.full(m, np.inf)
    if rows.size < m:
        points, f3 = points[:, rows], f3[rows]
    steps = segment_steps(points)
    f2 = threat_cost_many(points, steps, scenario.threat_table)
    keep = _in_running(f2, weights.b2)
    if not keep.all():
        rows, f2, f3, steps = rows[keep], f2[keep], f3[keep], steps[:, keep]
        if rows.size == 0:
            return np.full(m, np.inf)
    lengths = segment_lengths(steps)
    live = _weighted_total(
        length_cost_many(lengths), f2, f3, smooth_cost_many(steps, lengths, weights), weights
    )
    if rows.size == m:
        return live
    total = np.full(m, np.inf)
    total[rows] = live
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
