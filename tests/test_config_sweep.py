"""The input boundary is closed: every leaf of a scenario config, set to
each of a set of awkward values, makes ``uavpath plan`` exit 0 or exit 2
with a message that names the leaf, and nothing warns.  Every number past
``MAX_MAGNITUDE`` exits 2.

The configs are the built-in suite's ``s1.yaml`` (DEM terrain) and a copy
of it on a synthetic terrain, whose recipe adds the ``terrain.synthetic``
leaves.
"""

import copy
import math
import re
import warnings
from dataclasses import asdict

import pytest
import yaml

from uavpath import SyntheticTerrainSpec
from uavpath.cli import main
from uavpath.terrain import MAX_MAGNITUDE, is_real

VALUES = [True, "x", None, math.nan, math.inf, -math.inf, 0, -1, 5e-324, 1e300, -1e300, 1e308, 10**400,
          2.5, [], {}]
SYNTHETIC = {
    **asdict(SyntheticTerrainSpec(n_cols=61, n_rows=61, cell_size=10.0, n_hills=5, amp_min=4.0, amp_max=11.0,
                                  sigma_min=60.0, sigma_max=140.0)),
    "seed": 0,
}
# A value inside the bound can leave an endpoint infeasible (a map too small
# to hold it, a corridor or a threat that excludes it); the endpoint check
# then names the endpoint.
ENDPOINT_CHECK = re.compile(
    r"\b(start|goal) (outside terrain bounds|over unusable terrain|altitude|inside collision zone)"
)


def leaves(node, path=()):
    """The key paths of a config's scalar values."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, (*path, key))
    elif isinstance(node, list):
        for k, value in enumerate(node):
            yield from leaves(value, (*path, k))
    else:
        yield path


def names(path) -> list[str]:
    """What an error about the leaf at ``path`` may name: the field, its
    section or its threat index."""
    section = path[0]
    if section == "threats":
        return [f"threats[{path[1]}]", f"threat {path[1]}"]
    if section == "terrain":
        return [".".join(path[:2]), path[-1]]
    return [section, path[-1]] if len(path) > 1 else [section]


def past_bound(value) -> bool:
    return is_real(value) and not abs(value) <= MAX_MAGNITUDE


@pytest.fixture(scope="module")
def configs(tmp_path_factory):
    """(directory, {name: config}): the suite's s1 and its synthetic copy,
    beside the suite's DEM file."""
    suite = tmp_path_factory.mktemp("suite")
    assert main(["suite", "generate", "--seed", "0", "--out", str(suite)]) == 0
    dem = yaml.safe_load((suite / "s1.yaml").read_text())
    synthetic = dict(copy.deepcopy(dem), terrain={"synthetic": SYNTHETIC})
    return suite, {"dem": dem, "synthetic": synthetic}


def plan(directory, cfg, capsys) -> tuple[int, str]:
    path = directory / "sweep.yaml"
    path.write_text(yaml.safe_dump(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["plan", str(path), "--algo", "spso", "--swarm", "6", "--iters", "3",
                     "--out", str(directory / "out")])
    return code, capsys.readouterr().err


@pytest.mark.parametrize(
    "config, section",
    [("dem", s) for s in ("terrain", "threats", "start", "goal", "constraints", "weights", "n_waypoints")]
    + [("synthetic", "terrain")],
)
def test_every_leaf_exits_0_or_names_itself(configs, capsys, config, section):
    directory, cfgs = configs
    base = cfgs[config]
    assert plan(directory, base, capsys)[0] == 0
    wrong = []
    for path in leaves(base[section], (section,)):
        for value in VALUES:
            cfg = copy.deepcopy(base)
            *parents, leaf = path
            target = cfg
            for key in parents:
                target = target[key]
            target[leaf] = value
            code, err = plan(directory, cfg, capsys)
            named = any(name in err for name in names(path))
            if past_bound(value) and path[-1] != "seed":  # a seed is any integer >= 0
                ok = code == 2 and named
            else:
                ok = code == 0 or (code == 2 and (named or bool(ENDPOINT_CHECK.search(err))))
            if not ok:
                wrong.append(f"{'.'.join(map(str, path))} = {value!r}: exit {code}, {err.strip()!r}")
    assert not wrong, "\n".join(wrong)
