"""Genome encodings for candidate paths and their decode maps.

Three encodings share an interleaved per-node layout of 3N values for the
N = n - 2 free interior waypoints (start and goal are fixed outside the
genome):

* cartesian: (x1, y1, z1, ..., xN, yN, zN), bounded per axis.
* angle:     3N phase angles in [-pi/2, pi/2]; each maps monotonically to
             its axis interval through x = ((hi - lo) * sin(theta) + hi + lo) / 2.
* spherical: N motion vectors (rho, psi, phi) = (step length, polar angle
             from vertical, azimuth); the chain x_j = x_{j-1} + rho sin(psi) cos(phi),
             y_j = y_{j-1} + rho sin(psi) sin(phi), z_j = z_{j-1} + rho cos(psi)
             grows from the start, and the goal is appended as the fixed
             final waypoint.  With psi clamped to [-pi/2, pi/2] decoded
             steps never descend; descent happens on the final fixed
             segment.

All decodes are pure; batched inputs (M, 3N) give batched outputs (M, n, 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cost import EPS_LEN
from .scenario import Scenario

# Velocity cap: half the per-dimension interval width.
V_CAP_FRACTION = 0.5
# Spherical init bias: azimuth within +-pi/2 of the start->goal bearing,
# polar angle within this band below horizontal (pi/2).  The band is kept
# narrow so a random chain's total climb stays inside the altitude corridor.
SPSO_INIT_PHI_HALFWIDTH = math.pi / 2
SPSO_INIT_PSI_BAND = 0.2


@dataclass(frozen=True)
class SearchSpace:
    """Per-dimension bounds and wrap policy for one encoding."""

    kind: str
    lower: np.ndarray  # (3N,)
    upper: np.ndarray  # (3N,)
    wrap: np.ndarray   # (3N,) bool; wrapped dims use (-pi, pi] instead of clipping

    def __post_init__(self):
        for name in ("lower", "upper", "wrap"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dims(self) -> int:
        return self.lower.size

    @property
    def v_cap(self) -> np.ndarray:
        return V_CAP_FRACTION * (self.upper - self.lower)


def axis_bounds(scenario: Scenario) -> np.ndarray:
    """(3, 2) bounds: x/y from the terrain rectangle, z spanning the
    altitude corridor over the terrain's elevation range."""
    x_min, x_max, y_min, y_max = scenario.terrain.bounds
    z_lo = scenario.terrain.z_min + scenario.constraints.h_min
    z_hi = scenario.terrain.z_max + scenario.constraints.h_max
    return np.array([[x_min, x_max], [y_min, y_max], [z_lo, z_hi]])


def rho_max(scenario: Scenario) -> float:
    """Step-length cap: allows a decoded chain about twice the direct
    start-goal distance."""
    direct = float(np.linalg.norm(scenario.goal - scenario.start))
    return 2.0 * direct / (scenario.n_waypoints - 1)


def cartesian_space(scenario: Scenario) -> SearchSpace:
    n = scenario.n_interior
    bounds = np.tile(axis_bounds(scenario), (n, 1))
    return SearchSpace("cartesian", bounds[:, 0], bounds[:, 1], np.zeros(3 * n, dtype=bool))


def angle_space(scenario: Scenario) -> SearchSpace:
    d = 3 * scenario.n_interior
    half = np.full(d, math.pi / 2)
    return SearchSpace("angle", -half, half, np.zeros(d, dtype=bool))


def spherical_space(scenario: Scenario) -> SearchSpace:
    n = scenario.n_interior
    cap = rho_max(scenario)
    lower = np.tile([EPS_LEN, -math.pi / 2, -math.pi], n)
    upper = np.tile([cap, math.pi / 2, math.pi], n)
    wrap = np.tile([False, False, True], n)
    return SearchSpace("spherical", lower, upper, wrap)


# --- wrapping / clamping ------------------------------------------------------

def wrap_to_pi(values) -> np.ndarray:
    """Wrap angles into (-pi, pi]; values already in range pass through
    bit-identically."""
    a = np.asarray(values, dtype=float)
    out_of_range = (a > math.pi) | (a <= -math.pi)
    wrapped = np.where(out_of_range, np.mod(a + math.pi, 2.0 * math.pi) - math.pi, a)
    return np.where(wrapped == -math.pi, math.pi, wrapped)


def wrap_difference(delta, space: SearchSpace) -> np.ndarray:
    """Shortest signed difference: azimuth dims wrap, others pass through."""
    delta = np.asarray(delta, dtype=float)
    if not space.wrap.any():
        return delta
    return np.where(space.wrap, wrap_to_pi(delta), delta)


def clamp_wrap(genome, space: SearchSpace) -> np.ndarray:
    """Normalize a genome into its domain: clip bounded dims, wrap azimuths.
    In-range genomes come back unchanged."""
    g = np.asarray(genome, dtype=float)
    clipped = np.clip(g, space.lower, space.upper)
    if not space.wrap.any():
        return clipped
    return np.where(space.wrap, wrap_to_pi(g), clipped)


def clamp_velocity(velocity, space: SearchSpace) -> np.ndarray:
    cap = space.v_cap
    return np.clip(np.asarray(velocity, dtype=float), -cap, cap)


# --- decode maps ---------------------------------------------------------------

def _check_dims(genome, scenario: Scenario) -> tuple[np.ndarray, bool]:
    g = np.asarray(genome, dtype=float)
    squeeze = g.ndim == 1
    g = np.atleast_2d(g)
    want = 3 * scenario.n_interior
    if g.shape[1] != want:
        raise ValueError(f"genome length {g.shape[1]} != 3*(n-2) = {want}")
    return g, squeeze


def assemble_path(interior, scenario: Scenario) -> np.ndarray:
    """[start] + interior waypoints + [goal]; accepts (k,3) or (M,k,3)."""
    interior = np.asarray(interior, dtype=float)
    squeeze = interior.ndim == 2
    if squeeze:
        interior = interior[None]
    m = interior.shape[0]
    start = np.broadcast_to(scenario.start, (m, 1, 3))
    goal = np.broadcast_to(scenario.goal, (m, 1, 3))
    path = np.concatenate([start, interior, goal], axis=1)
    return path[0] if squeeze else path


def decode_cartesian(genome, scenario: Scenario) -> np.ndarray:
    """Interior coordinates placed verbatim between start and goal."""
    g, squeeze = _check_dims(genome, scenario)
    path = assemble_path(g.reshape(g.shape[0], -1, 3), scenario)
    return path[0] if squeeze else path


def decode_angle(genome, scenario: Scenario) -> np.ndarray:
    """Monotone sine map from phase angles to axis intervals, then placed
    like cartesian interior coordinates."""
    g, squeeze = _check_dims(genome, scenario)
    lo, hi = axis_bounds(scenario).T
    coords = 0.5 * ((hi - lo) * np.sin(g.reshape(g.shape[0], -1, 3)) + hi + lo)
    path = assemble_path(coords, scenario)
    return path[0] if squeeze else path


def decode_spherical(genome, scenario: Scenario) -> np.ndarray:
    """Chain the motion vectors from the start, then append the goal."""
    g, squeeze = _check_dims(genome, scenario)
    triples = g.reshape(g.shape[0], -1, 3)
    rho, psi, phi = triples[..., 0], triples[..., 1], triples[..., 2]
    steps = np.stack(
        [
            rho * np.sin(psi) * np.cos(phi),
            rho * np.sin(psi) * np.sin(phi),
            rho * np.cos(psi),
        ],
        axis=-1,
    )
    interior = scenario.start + np.cumsum(steps, axis=1)
    path = assemble_path(interior, scenario)
    return path[0] if squeeze else path


def encode_spherical(waypoints) -> np.ndarray:
    """Inverse of decode_spherical for the N interior steps of a path.

    Each step delta becomes (|delta|, atan2(hypot(dx, dy), dz),
    atan2(dy, dx)); a pure vertical step gets azimuth 0 by atan2
    convention.  Degenerate steps are rejected.
    """
    path = np.asarray(waypoints, dtype=float)
    if path.ndim != 2 or path.shape[1] != 3 or path.shape[0] < 3:
        raise ValueError("expected an (n, 3) path with n >= 3")
    steps = np.diff(path[:-1], axis=0)  # start -> w1 -> ... -> wN
    rho = np.linalg.norm(steps, axis=1)
    if np.any(rho <= EPS_LEN):
        raise ValueError("degenerate interior step; cannot encode")
    horiz = np.hypot(steps[:, 0], steps[:, 1])
    psi = np.arctan2(horiz, steps[:, 2])
    phi = np.arctan2(steps[:, 1], steps[:, 0])
    return np.stack([rho, psi, phi], axis=1).reshape(-1)


# encoding kind -> (search space builder, decode)
_ENCODINGS = {
    "cartesian": (cartesian_space, decode_cartesian),
    "angle": (angle_space, decode_angle),
    "spherical": (spherical_space, decode_spherical),
}


def decode(kind: str, genome, scenario: Scenario) -> np.ndarray:
    _, decode_kind = _ENCODINGS[kind]
    return decode_kind(genome, scenario)


# --- random genomes -------------------------------------------------------------

def random_genomes(space: SearchSpace, scenario: Scenario, streams) -> np.ndarray:
    """Sample one genome per generator in ``streams``, within the bounds of
    ``space`` (the scenario's search space of one encoding); returns a
    (len(streams), 3N) batch.

    Horizontal coordinates (and angles) are uniform over their intervals.
    Waypoint altitudes are sampled relative to the ground under the drawn
    (x, y) so every node starts inside the flight corridor; a box-uniform
    z makes an all-nodes-in-corridor draw vanishingly rare.  Spherical
    genomes are biased forward (azimuth near the start->goal bearing) and
    nearly horizontal so the non-descending chain stays inside the
    corridor too.  Row i depends on ``streams[i]`` alone, whatever the
    batch.
    """
    # Each draw is ``lo + (hi - lo) * rng.random(n)``, the arithmetic of
    # ``rng.uniform(lo, hi, n)`` on the same stream values, without the
    # Python-level bound checks ``Generator.uniform`` makes on every call.
    # The golden hashes and test_sampler_draws_equal_generator_uniform
    # guard that equivalence against a numpy that computes it differently.
    kind = space.kind
    cons = scenario.constraints
    if kind == "spherical":
        n = scenario.n_interior
        bearing = math.atan2(
            scenario.goal[1] - scenario.start[1], scenario.goal[0] - scenario.start[0]
        )
        lo = np.tile(
            [EPS_LEN, math.pi / 2 - SPSO_INIT_PSI_BAND, bearing - SPSO_INIT_PHI_HALFWIDTH], n
        )
        hi = np.tile([rho_max(scenario), math.pi / 2, bearing + SPSO_INIT_PHI_HALFWIDTH], n)
        draws = np.stack([rng.random(lo.size) for rng in streams])
        return clamp_wrap(lo + (hi - lo) * draws, space)
    bounds = axis_bounds(scenario)
    draws = np.stack([rng.random(space.dims) for rng in streams])
    genomes = space.lower + (space.upper - space.lower) * draws
    if kind == "angle":
        xs = 0.5 * ((bounds[0, 1] - bounds[0, 0]) * np.sin(genomes[:, 0::3]) + bounds[0].sum())
        ys = 0.5 * ((bounds[1, 1] - bounds[1, 0]) * np.sin(genomes[:, 1::3]) + bounds[1].sum())
    else:
        xs, ys = genomes[:, 0::3], genomes[:, 1::3]
    ground = scenario.terrain.heights(xs, ys)
    draws = np.stack([rng.random(xs.shape[1]) for rng in streams])
    z = ground + (cons.h_min + (cons.h_max - cons.h_min) * draws)
    if kind == "angle":
        lo_z, hi_z = bounds[2]
        z_genes = np.arcsin(np.clip((2.0 * z - hi_z - lo_z) / (hi_z - lo_z), -1.0, 1.0))
    else:
        z_genes = np.clip(z, space.lower[2::3], space.upper[2::3])
    # Nodata ground (possible on real DEMs) falls back to the box-uniform z.
    genomes[:, 2::3] = np.where(np.isnan(z), genomes[:, 2::3], z_genes)
    return genomes


def random_genome(kind: str, scenario: Scenario, rng: np.random.Generator) -> np.ndarray:
    """Sample one genome from ``rng``: ``random_genomes`` for one stream."""
    space_of, _ = _ENCODINGS[kind]
    return random_genomes(space_of(scenario), scenario, [rng])[0]
