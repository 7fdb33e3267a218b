"""Golden encodings and terrain queries: bit-exact outputs of the decode
maps, path assembly, genome wrapping/clamping and ``TerrainMap.heights``,
pinned by SHA-256.

The inputs are fixed genomes and queries on the scenarios of the benchmark
suite (suite seed 0) plus a small grid with a nodata hole: sampled and
uniform genomes of every encoding, genomes at and beyond their bounds,
azimuths of exactly +-pi, +-3pi and beyond +-1e3, NaNs, and height queries
as scalars, 1-D, 2-D and broadcast arrays at grid edges, off the map and
over the hole.  Each hash covers the shape and the float64 bytes of every
output, NaN payloads included.  A rewrite that must keep its arithmetic
keeps every hash below; a change that alters these values on purpose
copies the new hashes from the assertion messages and says so in
CHANGES.md.  The hashes were taken with numpy 2.x on x86-64 at the AVX2
dispatch level that ``tests/conftest.py`` pins through
``NPY_DISABLE_CPU_FEATURES``.
"""

import hashlib
import math

import numpy as np
import pytest

from uavpath.encodings import (
    angle_space,
    assemble_path,
    cartesian_space,
    clamp_velocity,
    clamp_wrap,
    random_genomes,
    spherical_space,
    wrap_difference,
    wrap_to_pi,
)
from uavpath.suite import build_benchmark_suite
from uavpath.terrain import TerrainMap

N_SAMPLED = 8  # genomes from the solvers' initial sampler, per encoding
N_UNIFORM = 8  # genomes uniform over the search box, per encoding
SPACES = {"cartesian": cartesian_space, "angle": angle_space, "spherical": spherical_space}

# Azimuths every wrapping routine must map the same way as before.
SPECIAL_ANGLES = np.array([
    math.pi, -math.pi, 3 * math.pi, -3 * math.pi, 2 * math.pi, -2 * math.pi,
    np.nextafter(math.pi, 0.0), np.nextafter(-math.pi, 0.0),
    np.nextafter(math.pi, 4.0), np.nextafter(-math.pi, -4.0),
    0.0, -0.0, 1e3 + 0.5, -1e3 - 0.7, 12345.678, -98765.4321, 1e17, -1e17, np.nan,
])

GOLDEN = {
    "decode_cartesian": "492634499a0be7e7b748625fd66ac49e032d54cab90952435a09233dd0cd713a",
    "decode_angle": "02e5d9a7cf351ac9550c30463ad601caf2f35b9465be41df9549486644170e63",
    "decode_spherical": "b1ea9f370bebc1a901feb7b14f5c810b2314e3d959bba23d7aa5e28883793ed5",
    "assemble_path": "b4584cf3bd7b01f5b113d38f3597624a748bccced14c35e263444d9e207f617c",
    "wrap_to_pi": "f98f0da06993efe952f92fada9ab830f189402fdd57b7ad944a032919e6e2ff6",
    "wrap_difference": "55024bf877793b8fb6e59267e7d441a1ac1abd2cfbc4a8729909aeedf41bf526",
    "clamp_wrap": "897e05b2e7b098283868c18b0dc9ef9aca9bedcac7a07d8951e593d5d0e7c177",
    "clamp_velocity": "71537a66fe0984a29f0dc7fe14f488639ab017ccf20ac4757f13341c907a3be2",
    "heights": "db979da7f83b4927c18e42685803af8b999aa59ccca19c51cadf9c1a5eae6dfd",
}


class Digest:
    """SHA-256 over the shapes and float64 bytes of a run of outputs."""

    def __init__(self):
        self.h = hashlib.sha256()

    def add(self, out) -> None:
        out = np.asarray(out)
        assert out.dtype == np.float64
        self.h.update(repr(out.shape).encode())
        self.h.update(np.ascontiguousarray(out, dtype="<f8").tobytes())

    def check(self, name: str) -> None:
        digest = self.h.hexdigest()
        assert digest == GOLDEN[name], f"{name}: {digest}"


@pytest.fixture(scope="module")
def suite():
    return build_benchmark_suite(0)


def genome_batch(space, scenario, seed: int) -> np.ndarray:
    """Sampled, uniform, on-bound and out-of-bound genomes, (M, 3N)."""
    rng = np.random.default_rng(seed)
    streams = [np.random.default_rng([seed, i]) for i in range(N_SAMPLED)]
    sampled = random_genomes(space, scenario, streams, 1)[:, 0]
    uniform = rng.uniform(space.lower, space.upper, (N_UNIFORM, space.dims))
    span = space.upper - space.lower
    beyond = rng.uniform(space.lower - 2 * span, space.upper + 2 * span, (4, space.dims))
    rows = [sampled, uniform, space.lower[None], space.upper[None], beyond]
    return np.concatenate(rows)


def special_genomes(space) -> np.ndarray:
    """Rows of SPECIAL_ANGLES, rotated one place per dimension so that every
    dimension takes each value once, (len(SPECIAL_ANGLES), 3N)."""
    rows = np.arange(SPECIAL_ANGLES.size)[:, None]
    return SPECIAL_ANGLES[(rows + np.arange(space.dims)) % SPECIAL_ANGLES.size]


@pytest.mark.parametrize("kind", list(SPACES))
def test_golden_decode(kind, suite):
    d = Digest()
    for i, scenario in enumerate(suite):
        space = SPACES[kind](scenario)
        genomes = np.concatenate([genome_batch(space, scenario, i), special_genomes(space)])
        d.add(space.decode(genomes, scenario))
        d.add(space.decode(genomes[0], scenario))  # one genome, (n, 3)
        d.add(space.decode(genomes[-3:].tolist(), scenario))  # a list input
    d.check(f"decode_{kind}")


def test_golden_assemble_path(suite):
    d = Digest()
    for i, scenario in enumerate(suite):
        rng = np.random.default_rng(i)
        space = cartesian_space(scenario)
        lo, hi = space.lower[:3], space.upper[:3]
        # GA members hold 1 .. 2N interior nodes; batches group one k.
        for k in (1, 2, 3, scenario.n_interior, 2 * scenario.n_interior):
            nodes = rng.uniform(lo, hi, (5, k, 3))
            d.add(assemble_path(nodes, scenario))
            d.add(assemble_path(nodes[2], scenario))
            d.add(assemble_path(nodes[:1], scenario))
        d.add(assemble_path([[1, 2, 3], [4, 5, 6]], scenario))  # ints in a list
    d.check("assemble_path")


def test_golden_wrap_to_pi():
    d = Digest()
    d.add(wrap_to_pi(SPECIAL_ANGLES))
    d.add(wrap_to_pi(SPECIAL_ANGLES.reshape(-1, 1) + SPECIAL_ANGLES[::3]))
    d.add(wrap_to_pi(np.linspace(-40.0, 40.0, 1001)))
    d.add(wrap_to_pi(3 * math.pi))
    d.check("wrap_to_pi")


def wrap_cases(suite):
    """(space, a, b) triples: genome pairs for every encoding of every
    scenario, as 2-D batches and as single genomes."""
    for i, scenario in enumerate(suite):
        for space_of in SPACES.values():
            space = space_of(scenario)
            a = np.concatenate([genome_batch(space, scenario, i), special_genomes(space)])
            b = np.random.default_rng(100 + i).permutation(a)
            yield space, a, b


def test_golden_wrap_difference(suite):
    d = Digest()
    for space, a, b in wrap_cases(suite):
        d.add(wrap_difference(a - b, space))
        d.add(wrap_difference(b[0][None, :] - a, space))  # the global-best form
        d.add(wrap_difference(a[-1] - b[-1], space))  # one genome
        d.add(wrap_difference(a, space))  # raw values, special azimuths included
    d.check("wrap_difference")


def test_golden_clamp_wrap(suite):
    d = Digest()
    for space, a, b in wrap_cases(suite):
        d.add(clamp_wrap(a, space))
        d.add(clamp_wrap(a + 3.0 * (b - a), space))
        d.add(clamp_wrap(a[-1], space))  # one genome
        d.add(clamp_wrap(a[:2].tolist(), space))  # a list input
    d.check("clamp_wrap")


def test_golden_clamp_velocity(suite):
    d = Digest()
    for space, a, b in wrap_cases(suite):
        d.add(clamp_velocity(a - b, space))
        d.add(clamp_velocity(5.0 * (a - b), space))
        d.add(clamp_velocity(a[-1], space))  # one genome
    d.check("clamp_velocity")


def holed_terrain() -> TerrainMap:
    """A 9 x 7 grid, non-unit origin and cell size, with a nodata hole."""
    rng = np.random.default_rng(42)
    elev = rng.uniform(-20.0, 300.0, (7, 9))
    elev[3, 4] = np.nan
    elev[0, 8] = np.nan  # a corner node
    return TerrainMap(
        origin_x=-35.5, origin_y=120.25, cell_size=12.5,
        nodata_value=-9999.0, elevations=elev,
    )


def height_queries(terrain, seed: int):
    """(xs, ys) pairs: scalars, 1-D, 2-D and broadcast arrays reaching
    grid nodes, edges, corners, points just off the map and NaNs."""
    rng = np.random.default_rng(seed)
    x_min, x_max, y_min, y_max = terrain.bounds
    cs = terrain.cell_size
    edge_x = np.array([
        x_min, x_max, np.nextafter(x_min, -np.inf), np.nextafter(x_max, np.inf),
        np.nextafter(x_max, -np.inf), x_min + cs, x_max - cs, x_min - cs, x_max + cs,
        0.5 * (x_min + x_max), np.nan, np.inf, -np.inf,
    ])
    edge_y = np.array([
        y_min, y_max, np.nextafter(y_min, -np.inf), np.nextafter(y_max, np.inf),
        np.nextafter(y_max, -np.inf), y_min + cs, y_max - cs, y_min - cs, y_max + cs,
        0.5 * (y_min + y_max), np.nan, -np.inf, np.inf,
    ])
    yield x_min + 0.3 * cs, y_min + 0.7 * cs  # scalars
    yield float(x_max), float(y_max)
    yield int(x_min) + 1, int(y_min) + 1  # ints
    yield edge_x, edge_y
    yield edge_x[:, None], edge_y[None, :]  # broadcast to (13, 13)
    xs = rng.uniform(x_min - 2 * cs, x_max + 2 * cs, (6, 40))
    ys = rng.uniform(y_min - 2 * cs, y_max + 2 * cs, (6, 40))
    yield xs, ys
    yield xs[:, ::3], ys[:, ::3]  # strided views
    grid_x = x_min + cs * np.arange(terrain.n_cols)
    grid_y = y_min + cs * np.arange(terrain.n_rows)
    yield grid_x[None, :], grid_y[:, None]  # every node
    yield (grid_x[:-1] + 0.5 * cs)[None, :], (grid_y[:-1] + 0.5 * cs)[:, None]  # cell centres


def test_golden_heights(suite):
    d = Digest()
    for i, terrain in enumerate([holed_terrain()] + [s.terrain for s in suite[:3]]):
        for xs, ys in height_queries(terrain, i):
            d.add(terrain.heights(xs, ys))
    d.check("heights")


def test_queries_cover_edge_cases(suite):
    """The pinned queries reach finite heights, off-map NaNs and the hole."""
    terrain = holed_terrain()
    hole_x = terrain.origin_x + 4.5 * terrain.cell_size
    hole_y = terrain.origin_y + 3.5 * terrain.cell_size
    assert np.isnan(terrain.heights(hole_x, hole_y))
    out = np.concatenate([np.ravel(terrain.heights(x, y)) for x, y in height_queries(terrain, 0)])
    assert np.isfinite(out).any() and np.isnan(out).any()
    assert np.isnan(wrap_to_pi(SPECIAL_ANGLES)).sum() == 1
