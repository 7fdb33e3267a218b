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
from .scenario import Scenario, rho_max

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
        # The velocity cap of every clamp_velocity call, taken once.
        v_cap = V_CAP_FRACTION * (self.upper - self.lower)
        v_cap.setflags(write=False)
        object.__setattr__(self, "v_cap", v_cap)

    @property
    def dims(self) -> int:
        return self.lower.size


def cartesian_space(scenario: Scenario) -> SearchSpace:
    n = scenario.n_interior
    bounds = np.tile(scenario.axis_bounds, (n, 1))
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

def _wrap_in_place(a: np.ndarray) -> np.ndarray:
    """wrap_to_pi of a float array, written over its values."""
    out_of_range = a > math.pi
    out_of_range |= a <= -math.pi
    # Only the out-of-range values pay for the modulo; the rest keep their bits.
    b = a[out_of_range]
    b += math.pi
    np.mod(b, 2.0 * math.pi, out=b)
    b -= math.pi
    a[out_of_range] = b
    a[a == -math.pi] = math.pi
    return a


def wrap_to_pi(values) -> np.ndarray:
    """Wrap angles into (-pi, pi]; values already in range pass through
    bit-identically."""
    return _wrap_in_place(np.array(values, dtype=float))


def wrap_difference(delta, space: SearchSpace) -> np.ndarray:
    """Shortest signed difference: azimuth dims wrap, others pass through."""
    delta = np.asarray(delta, dtype=float)
    if not space.wrap.any():
        return delta
    out = delta.copy()
    out[..., space.wrap] = _wrap_in_place(delta[..., space.wrap])
    return out


def clamp_wrap(genome, space: SearchSpace) -> np.ndarray:
    """Normalize a genome into its domain: clip bounded dims, wrap azimuths.
    In-range genomes come back unchanged."""
    g = np.asarray(genome, dtype=float)
    clipped = np.clip(g, space.lower, space.upper)
    if space.wrap.any():
        clipped[..., space.wrap] = _wrap_in_place(g[..., space.wrap])
    return clipped


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


def _empty_paths(m: int, k: int, scenario: Scenario) -> np.ndarray:
    """(m, k+2, 3) paths with start and goal set and k interior rows to fill."""
    path = np.empty((m, k + 2, 3))
    path[:, 0] = scenario.start
    path[:, -1] = scenario.goal
    return path


def assemble_path(interior, scenario: Scenario) -> np.ndarray:
    """[start] + interior waypoints + [goal]; accepts (k,3) or (M,k,3)."""
    interior = np.asarray(interior, dtype=float)
    squeeze = interior.ndim == 2
    if squeeze:
        interior = interior[None]
    path = _empty_paths(interior.shape[0], interior.shape[1], scenario)
    path[:, 1:-1] = interior
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
    lo, hi = scenario.axis_bounds.T
    path = _empty_paths(g.shape[0], scenario.n_interior, scenario)
    # 0.5 * ((hi - lo) * sin(g) + hi + lo), evaluated in place
    coords = np.sin(g.reshape(g.shape[0], -1, 3))
    coords *= hi - lo
    coords += hi
    coords += lo
    np.multiply(coords, 0.5, out=path[:, 1:-1])
    return path[0] if squeeze else path


def decode_spherical(genome, scenario: Scenario) -> np.ndarray:
    """Chain the motion vectors from the start, then append the goal."""
    g, squeeze = _check_dims(genome, scenario)
    m = g.shape[0]
    rho, psi, phi = g.reshape(m, -1, 3).transpose(2, 0, 1)  # (M, N) each
    # The x, y and z steps are contiguous (M, N) planes of one array, so
    # the products, the chain sum and the shift to the start each run on
    # long loops; the planes are interleaved into the path once at the end.
    steps = np.empty((3,) + rho.shape)
    horiz = np.sin(psi)
    horiz *= rho
    np.cos(phi, out=steps[0])
    steps[0] *= horiz
    np.sin(phi, out=steps[1])
    steps[1] *= horiz
    np.cos(psi, out=steps[2])
    steps[2] *= rho
    np.cumsum(steps, axis=2, out=steps)
    steps += scenario.start[:, None, None]
    path = _empty_paths(m, rho.shape[1], scenario)
    path[:, 1:-1] = steps.transpose(1, 2, 0)
    return path[0] if squeeze else path


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

def random_genomes(space: SearchSpace, scenario: Scenario, streams, tries=None) -> np.ndarray:
    """Sample genomes from each generator in ``streams``, within the bounds
    of ``space`` (the scenario's search space of one encoding).  Returns a
    (len(streams), 3N) batch, one genome per stream; given ``tries``, a
    (len(streams), tries, 3N) block whose try t of a stream is the genome
    the t-th of ``tries`` successive one-genome calls would draw from it.

    Horizontal coordinates (and angles) are uniform over their intervals.
    Waypoint altitudes are sampled relative to the ground under the drawn
    (x, y) so every node starts inside the flight corridor; a box-uniform
    z makes an all-nodes-in-corridor draw vanishingly rare.  Spherical
    genomes are biased forward (azimuth near the start->goal bearing) and
    nearly horizontal so the non-descending chain stays inside the
    corridor too.  Row i depends on ``streams[i]`` alone, whatever the
    batch.

    Each stream fills its (tries, width) draws in one ``rng.random`` call.
    A try's ``width`` values are its 3N genome values, then, for cartesian
    and angle genomes, one altitude offset per node (4N in all).
    ``Generator.random`` spends one 64-bit word per double and buffers
    none, so a block of tries holds the values successive calls would
    draw.  At MAX_WAYPOINTS and a swarm of 500, a block of 4 tries takes
    64 MB of draws and 48 MB of genomes.
    """
    # Each value is ``lo + (hi - lo) * u``, the arithmetic of
    # ``rng.uniform(lo, hi)`` on the same stream value u, without the
    # Python-level bound checks ``Generator.uniform`` makes on every call.
    # The golden hashes and test_sampler_draws_equal_generator_uniform
    # guard that equivalence against a numpy that computes it differently.
    kind = space.kind
    cons = scenario.constraints
    n = scenario.n_interior
    width = 3 * n if kind == "spherical" else 4 * n
    draws = np.empty((len(streams), 1 if tries is None else tries, width))
    for rng, out in zip(streams, draws):
        rng.random(out=out)
    if kind == "spherical":
        bearing = math.atan2(
            scenario.goal[1] - scenario.start[1], scenario.goal[0] - scenario.start[0]
        )
        lo = np.tile(
            [EPS_LEN, math.pi / 2 - SPSO_INIT_PSI_BAND, bearing - SPSO_INIT_PHI_HALFWIDTH], n
        )
        hi = np.tile([rho_max(scenario), math.pi / 2, bearing + SPSO_INIT_PHI_HALFWIDTH], n)
        genomes = clamp_wrap(lo + (hi - lo) * draws, space)
        return genomes if tries is not None else genomes[:, 0]
    bounds = scenario.axis_bounds
    genomes = space.lower + (space.upper - space.lower) * draws[..., : 3 * n]
    if kind == "angle":
        xs = 0.5 * ((bounds[0, 1] - bounds[0, 0]) * np.sin(genomes[..., 0::3]) + bounds[0].sum())
        ys = 0.5 * ((bounds[1, 1] - bounds[1, 0]) * np.sin(genomes[..., 1::3]) + bounds[1].sum())
    else:
        xs, ys = genomes[..., 0::3], genomes[..., 1::3]
    ground = scenario.terrain.heights(xs, ys)
    z = ground + (cons.h_min + (cons.h_max - cons.h_min) * draws[..., 3 * n :])
    if kind == "angle":
        lo_z, hi_z = bounds[2]
        z_genes = np.arcsin(np.clip((2.0 * z - hi_z - lo_z) / (hi_z - lo_z), -1.0, 1.0))
    else:
        z_genes = np.clip(z, space.lower[2::3], space.upper[2::3])
    # Nodata ground (possible on real DEMs) falls back to the box-uniform z.
    genomes[..., 2::3] = np.where(np.isnan(z), genomes[..., 2::3], z_genes)
    return genomes if tries is not None else genomes[:, 0]
