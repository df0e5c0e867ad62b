"""Fuzz the config edge: mutate one key path of a valid config at a time.

Property 1: ``parse_config`` returns or raises ``ConfigError`` for any JSON
value at any key path.  Property 2: on configs small enough to run (dims <= 3,
grid.N <= 16, n_paths <= 16, workers <= 2), ``cli.main`` returns 0, 1 or 2 for
every experiment and raises nothing.  Larger sizes only ever reach the parser,
so no run starts many threads or allocates huge arrays.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stochconv import ConfigError
from stochconv.cli import main
from stochconv.config import parse_config

_DENSE = {"kind": "dense", "rows": [[1.0, 0.5], [0.0, 1.0]]}


def _base(experiment, **changes):
    cfg = {
        "experiment": experiment,
        "dims": {"U": 2, "H": 2},
        "grid": {"T": 1.0, "N": 8},
        "semigroup": {"kind": "diagonal", "rates": [1.0, 4.0]},
        "q_eigenvalues": [1.0, 0.25],
        "integrand": {
            "kind": "constant",
            "operator": {"kind": "diagonal", "eigenvalues": [1.0, 0.5]},
        },
        "exponents": {"p": 2.0, "q": 2.0, "r": 4.0},
        "beta": 0.3,
        "seed": 7,
        "n_paths": 8,
    }
    cfg.update(changes)
    return cfg


BASES = [
    _base("ou-check"),
    _base("heat-spde", workers=2),
    _base("fubini", options={"family": {"atoms": [0.5, 1.5], "weights": [0.5, 0.5]}}),
    _base(
        "fubini",
        integrand={"kind": "time_varying", "operators": [_DENSE] * 8},
        options={"family": {"quadrature": {"n": 3, "interval": [0.0, 1.0], "rule": "left"}}},
    ),
    _base("factorize-compare", options={"refinement_factors": [2, 1], "final_threshold": 0.5}),
    _base("constants", options={"betas": [0.25, 0.5]}),
    _base(
        "norms",
        semigroup={"kind": "dense", "generator": [[-1.0, 0.5], [0.0, -2.0]]},
        integrand={"kind": "constant", "operator": _DENSE},
    ),
    _base("measure-kernel-props", options={"n_cases": 3}),
]

DELETE = object()


def _paths(node, prefix=()):
    """Every key path below ``node``: dict keys and list indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


# a base first, then one of its key paths, so that bases with long lists are not favoured
SITES = st.integers(0, len(BASES) - 1).flatmap(
    lambda i: st.tuples(st.just(i), st.sampled_from(list(_paths(BASES[i]))))
)

_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from([10**400, -(10**400), 1e308, -1e308, 5e-324, 0, -1, 1, 2, 3, 17])
)
JSON_VALUES = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# plausible numbers keep many mutated configs valid, so that the runs are reached
PLAUSIBLE = st.floats(0.0, 4.0) | st.integers(0, 20) | st.sampled_from([1e-300, 1e300, 0.999999])
MUTATIONS = st.tuples(
    SITES, st.one_of(st.just(DELETE), PLAUSIBLE, JSON_VALUES)
)


def _mutated(site, value):
    base_index, path = site
    data = copy.deepcopy(BASES[base_index])
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return data


def _small_enough(cfg) -> bool:
    opts = cfg.options
    family = opts.get("family", {})
    quadrature = family.get("quadrature", {}) if isinstance(family, dict) else {}
    sizes = [
        cfg.noise_spec.space.dim <= 3,
        cfg.semigroup.space.dim <= 3,
        cfg.grid.n_steps <= 16,
        cfg.n_paths <= 16,
        cfg.workers <= 2,
        # option counts that set the amount of work; bad types fail before any work
        not isinstance(opts.get("n_cases", 1000), int) or opts.get("n_cases", 1000) <= 50,
        not isinstance(quadrature, dict) or not isinstance(quadrature.get("n", 16), int)
        or quadrature.get("n", 16) <= 16,
    ]
    return all(sizes)


@settings(max_examples=400, deadline=None)
@given(MUTATIONS)
def test_parse_config_returns_or_raises_config_error(mutation):
    data = _mutated(*mutation)
    try:
        parse_config(data)
    except ConfigError:
        pass


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(MUTATIONS)
def test_cli_exits_cleanly_on_small_mutated_configs(mutation):
    data = _mutated(*mutation)
    try:
        cfg = parse_config(data)
    except ConfigError:
        cfg = None
    if cfg is not None and not _small_enough(cfg):
        return  # only the parser may see large sizes
    experiment = BASES[mutation[0][0]]["experiment"]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)  # NaN and Infinity are written as JSON's extensions
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = main([experiment, "--config", path, "--out", tmp, "--check"])
    assert rc in (0, 1, 2)
