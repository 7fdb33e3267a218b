"""Independent reference implementations used to cross-check the package.

The cost references are written from scratch in scalar Python on top of
the math module; none of it calls into uavpath.cost, so a disagreement
points at a real defect in one of the two sides.  The solver-step
references build DE trials and ABC candidates one member at a time from
the arrays the step draws for its whole generation, and the initial
population one redraw round at a time.  The DEM writer reference writes
its grid one cell at a time.  The witness reference is the suite builder's
search one attempt at a time: each bowed detour is drawn, then scored alone
through ``total_cost``.
"""

import math

import numpy as np

from uavpath import suite
from uavpath.cost import total_cost

EPS_LEN = 1e-9


def _segment_point_dist_xy(cx, cy, x0, y0, x1, y1):
    """Minimum distance from (cx, cy) to the 2D segment (x0,y0)-(x1,y1)."""
    dx, dy = x1 - x0, y1 - y0
    denom = dx * dx + dy * dy
    if denom == 0.0:
        return math.hypot(cx - x0, cy - y0)
    t = ((cx - x0) * dx + (cy - y0) * dy) / denom
    t = min(1.0, max(0.0, t))
    return math.hypot(cx - (x0 + t * dx), cy - (y0 + t * dy))


def _bilinear_ground(terrain, x, y):
    """Ground height by direct array indexing; None when unusable."""
    if not (terrain.origin_x <= x <= terrain.x_max and terrain.origin_y <= y <= terrain.y_max):
        return None
    gx = (x - terrain.origin_x) / terrain.cell_size
    gy = (y - terrain.origin_y) / terrain.cell_size
    ix = min(int(gx), terrain.n_cols - 2)
    iy = min(int(gy), terrain.n_rows - 2)
    u, v = gx - ix, gy - iy
    f00 = terrain.elevations[iy, ix]
    f10 = terrain.elevations[iy, ix + 1]
    f01 = terrain.elevations[iy + 1, ix]
    f11 = terrain.elevations[iy + 1, ix + 1]
    if any(math.isnan(c) for c in (f00, f10, f01, f11)):
        return None
    return (1 - u) * (1 - v) * f00 + u * (1 - v) * f10 + (1 - u) * v * f01 + u * v * f11


def encode_spherical(waypoints):
    """Inverse of decode_spherical for the N interior steps of a path.

    Each step from the start through the last interior waypoint becomes
    (|delta|, atan2(hypot(dx, dy), dz), atan2(dy, dx)), flattened into a
    3N genome; a pure vertical step gets azimuth 0 by atan2 convention.
    Degenerate steps are rejected.
    """
    pts = [(float(p[0]), float(p[1]), float(p[2])) for p in waypoints]
    if len(pts) < 3:
        raise ValueError("expected an (n, 3) path with n >= 3")
    genome = []
    for (x0, y0, z0), (x1, y1, z1) in zip(pts[:-2], pts[1:-1]):
        dx, dy, dz = x1 - x0, y1 - y0, z1 - z0
        rho = math.sqrt(dx * dx + dy * dy + dz * dz)
        if rho <= EPS_LEN:
            raise ValueError("degenerate interior step; cannot encode")
        genome += [rho, math.atan2(math.hypot(dx, dy), dz), math.atan2(dy, dx)]
    return genome


def oracle_total_cost(waypoints, scenario):
    """Single-function re-derivation of the whole cost model.

    Returns (f1, f2, f3, f4, total) as plain floats (math.inf allowed).
    """
    cons = scenario.constraints
    pts = [(float(p[0]), float(p[1]), float(p[2])) for p in waypoints]
    n = len(pts)

    f1 = 0.0
    for (x0, y0, z0), (x1, y1, z1) in zip(pts, pts[1:]):
        f1 += math.sqrt((x1 - x0) ** 2 + (y1 - y0) ** 2 + (z1 - z0) ** 2)

    f2 = 0.0
    for (x0, y0, _), (x1, y1, _) in zip(pts, pts[1:]):
        for t in scenario.threats:
            d = _segment_point_dist_xy(t.center_x, t.center_y, x0, y0, x1, y1)
            collide = cons.drone_diameter + t.radius
            danger = cons.danger_distance + collide
            if d <= collide:
                f2 = math.inf
            elif d <= danger:
                f2 += danger - d

    f3 = 0.0
    mid = 0.5 * (cons.h_max + cons.h_min)
    for x, y, z in pts:
        ground = _bilinear_ground(scenario.terrain, x, y)
        if ground is None:
            f3 = math.inf
            continue
        h = z - ground
        if cons.h_min <= h <= cons.h_max:
            f3 += abs(h - mid)
        else:
            f3 = math.inf

    turns = 0.0
    for (x0, y0, _), (x1, y1, _), (x2, y2, _) in zip(pts, pts[1:], pts[2:]):
        ux, uy = x1 - x0, y1 - y0
        vx, vy = x2 - x1, y2 - y1
        if math.hypot(ux, uy) <= EPS_LEN or math.hypot(vx, vy) <= EPS_LEN:
            continue
        turns += math.atan2(abs(ux * vy - uy * vx), ux * vx + uy * vy)
    climbs = []
    for (x0, y0, z0), (x1, y1, z1) in zip(pts, pts[1:]):
        if math.sqrt((x1 - x0) ** 2 + (y1 - y0) ** 2 + (z1 - z0) ** 2) <= EPS_LEN:
            climbs.append(0.0)
        else:
            climbs.append(math.atan2(z1 - z0, math.hypot(x1 - x0, y1 - y0)))
    deltas = sum(abs(b - a) for a, b in zip(climbs, climbs[1:]))
    f4 = scenario.weights.a1 * turns + scenario.weights.a2 * deltas

    total = 0.0
    for b, f in (
        (scenario.weights.b1, f1),
        (scenario.weights.b2, f2),
        (scenario.weights.b3, f3),
        (scenario.weights.b4, f4),
    ):
        if b > 0:
            total += b * f
    return f1, f2, f3, f4, total


def de_trials_reference(x, rng, f, cr):
    """DE/rand/1/bin trials, member by member and before clamping, from the
    arrays de_step draws, in its order: (m, m) partner keys, an (m, d)
    crossover draw and m forced mutant dimensions.  Member i's partners are
    the three other members with the lowest keys in row i, in key order."""
    m, d = x.shape
    keys = rng.random((m, m))
    draws = rng.random((m, d))
    forced = rng.integers(d, size=m)
    trials = np.empty_like(x)
    for i in range(m):
        r1, r2, r3 = sorted((j for j in range(m) if j != i), key=lambda j: keys[i, j])[:3]
        mutant = x[r1] + f * (x[r2] - x[r3])
        cross = draws[i] < cr
        cross[forced[i]] = True
        trials[i] = np.where(cross, mutant, x[i])
    return trials


def abc_candidates_reference(sources, picks, rng):
    """ABC neighbour moves v = x + phi (x - x_partner), row by row, from the
    arrays _abc_candidates draws, in its order: one dimension per row, one
    index k < s - 1 per row that skips the source itself, then phi ~ U(-1, 1)
    per row."""
    s, d = sources.shape
    dims = rng.integers(d, size=len(picks))
    ks = rng.integers(s - 1, size=len(picks))
    phis = rng.uniform(-1.0, 1.0, len(picks))
    cands = sources[picks].copy()
    for row, i in enumerate(picks):
        j, k = dims[row], ks[row]
        if k >= i:
            k += 1
        cands[row, j] = sources[i, j] + phis[row] * (sources[i, j] - sources[k, j])
    return cands


def sample_reference(draw, evaluate, streams, retries):
    """Initial population, round by round: one genome per stream, then each
    infeasible one redrawn from its own stream, ``retries`` draws at most.
    ``draw(streams)`` gives one genome per stream and ``evaluate(genomes)``
    their fitness; returns (genomes, fitness, evaluations)."""
    genomes = draw(streams)
    fitness = evaluate(genomes)
    evaluations = len(genomes)
    for _ in range(retries - 1):
        bad = np.flatnonzero(~np.isfinite(fitness))
        if bad.size == 0:
            break
        genomes[bad] = draw([streams[i] for i in bad])
        fitness[bad] = evaluate(genomes[bad])
        evaluations += bad.size
    return genomes, fitness, evaluations


def save_dem_reference(terrain, file_path):
    """ESRI ASCII grid writer, one cell at a time: each NaN cell is written
    as the nodata sentinel and every other cell as repr of its float."""
    with open(file_path, "w") as fh:
        fh.write(f"ncols {terrain.n_cols}\n")
        fh.write(f"nrows {terrain.n_rows}\n")
        fh.write(f"xllcorner {terrain.origin_x!r}\n")
        fh.write(f"yllcorner {terrain.origin_y!r}\n")
        fh.write(f"cellsize {terrain.cell_size!r}\n")
        fh.write(f"NODATA_value {terrain.nodata_value!r}\n")
        for row in terrain.elevations[::-1]:  # northernmost row first
            out = [
                repr(terrain.nodata_value) if np.isnan(v) else repr(float(v))
                for v in row
            ]
            fh.write(" ".join(out) + "\n")


def witness_reference(rng, scenario):
    """The suite's feasibility witness, attempt by attempt: draw a laterally
    bowed detour at mid-corridor height, score it through ``total_cost``
    and return the first finite one, or None after
    ``suite._WITNESS_ATTEMPTS`` attempts."""
    n = scenario.n_waypoints
    start, goal = scenario.start, scenario.goal
    dx, dy = goal[0] - start[0], goal[1] - start[1]
    nx, ny = -dy, dx
    norm = math.hypot(nx, ny)
    nx, ny = nx / norm, ny / norm
    ts = np.linspace(0.0, 1.0, n)[1:-1]
    x_min, x_max, y_min, y_max = scenario.terrain.bounds
    mid = scenario.constraints.corridor_mid
    for _ in range(suite._WITNESS_ATTEMPTS):
        side = 1.0 if rng.random() < 0.5 else -1.0
        bow = rng.uniform(0.0, 280.0)
        noise = rng.normal(0.0, 15.0, size=ts.size)
        off = side * bow * np.sin(math.pi * ts) + noise
        xs = np.clip(start[0] + ts * dx + off * nx, x_min + 5.0, x_max - 5.0)
        ys = np.clip(start[1] + ts * dy + off * ny, y_min + 5.0, y_max - 5.0)
        ground = scenario.terrain.heights(xs, ys)
        zs = ground + mid
        path = np.vstack(
            [start, np.column_stack([xs, ys, zs]), goal]
        )
        if math.isfinite(total_cost(path, scenario).total):
            return path
    return None
