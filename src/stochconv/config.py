"""Scenario configuration: the only reader of the JSON schema, and canonical hashing.

Each section is checked, then built into the object that runners read.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .hilbert import DenseOperator, HilbertSpec, Operator, SemigroupSpec, SpectralOperator
from .ito import TIME_VARYING, IntegrandSpec, _Fresh
from .noise import QWienerSpec, TimeGrid

__all__ = ["ScenarioConfig", "EXPERIMENTS", "load_config", "canonical_hash"]

EXPERIMENTS = (
    "ou-check",
    "heat-spde",
    "fubini",
    "factorize-compare",
    "constants",
    "norms",
    "measure-kernel-props",
)


def canonical_hash(data: dict) -> str:
    """SHA-256 of the canonical (sorted, compact) JSON form."""
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _require(data: dict, key: str, kinds, where: str):
    if key not in data:
        raise ConfigError(f"missing required key {key!r} in {where}")
    value = data[key]
    if not isinstance(value, kinds):
        raise ConfigError(
            f"key {key!r} in {where} must be {kinds}, got {type(value).__name__}"
        )
    return value


def _is_finite(value) -> bool:
    try:  # bool is an int subclass, but true and false are not numbers of the schema
        return type(value) is not bool and isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def _number(data: dict, key: str, where: str) -> float:
    value = _require(data, key, (int, float), where)
    if not _is_finite(value):
        raise ConfigError(f"key {key!r} in {where} must be a finite number")
    return float(value)


def _finite(values: list, key: str, where: str) -> np.ndarray:
    """A flat list of finite numbers as a float array.

    A list of plain ints and floats whose sum is finite is converted at once:
    a NaN or an inf makes the sum NaN or inf.  Any other list (bools,
    subclasses, strings, an int too large for a float, NaN, inf, or finite
    values whose sum overflows) is checked one element at a time.
    """
    if set(map(type, values)) <= {int, float}:
        try:
            if math.isfinite(sum(values)):
                return np.asarray(values, float)
        except OverflowError:  # an integer too large for a float
            pass
    if not all(_is_finite(v) for v in values):
        raise ConfigError(f"key {key!r} in {where} must hold finite numbers")
    return np.asarray(values, float)


def _numbers(data: dict, key: str, where: str) -> np.ndarray:
    return _finite(_require(data, key, list, where), key, where)


def _matrix(data: dict, key: str, n_rows: int, n_cols: int, where: str) -> np.ndarray:
    rows = _require(data, key, list, where)
    if len(rows) != n_rows or any(not isinstance(row, list) or len(row) != n_cols for row in rows):
        raise ConfigError(f"key {key!r} in {where} must be a {n_rows} x {n_cols} list of rows")
    return _finite([v for row in rows for v in row], key, where).reshape(n_rows, n_cols)


def _positive_int(data: dict, key: str, where: str) -> int:
    value = _require(data, key, int, where)
    if isinstance(value, bool) or value < 1:
        raise ConfigError(f"key {key!r} in {where} must be a positive integer")
    return value


def _positive_ints(data: dict, key: str, where: str) -> list:
    values = _require(data, key, list, where)
    if not all(isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in values):
        raise ConfigError(f"key {key!r} in {where} must hold positive integers")
    return values


@dataclass(frozen=True)
class ScenarioConfig:
    """Built scenario objects (U = noise_spec.space, H = semigroup.space) plus options."""

    experiment: str
    grid: TimeGrid
    semigroup: SemigroupSpec
    noise_spec: QWienerSpec
    integrand: IntegrandSpec
    p: float
    q: float
    r: float
    beta: float
    seed: int
    n_paths: int
    workers: int = 1
    options: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)

    @cached_property
    def config_hash(self) -> str:
        # hashed once per config (the raw dict can hold tens of thousands of floats);
        # worker count is execution infrastructure: artifacts must not depend on it
        payload = {k: v for k, v in self.raw.items() if k != "workers"}
        return canonical_hash(payload)


def _semigroup(data: dict, space: HilbertSpec, horizon: float) -> SemigroupSpec:
    kind = _require(data, "kind", str, "semigroup")
    if kind == "diagonal":
        rates = _require(data, "rates", list, "semigroup")
        if len(rates) != space.dim:
            raise ConfigError(
                f"semigroup rates length {len(rates)} must equal dims.H={space.dim}"
            )
        rates = _finite(rates, "rates", "semigroup")
        if np.any(rates < 0):
            raise ConfigError("semigroup rates must be nonnegative numbers")
        return SemigroupSpec(space, rates=rates, horizon=horizon)
    if kind == "dense":
        generator = _matrix(data, "generator", space.dim, space.dim, "semigroup")
        semigroup = SemigroupSpec(space, generator=generator, horizon=horizon)
        if not math.isfinite(semigroup.bound):
            raise ConfigError(
                "key 'generator' in semigroup gives no finite bound on |S(t)| over [0, grid.T]"
            )
        return semigroup
    raise ConfigError(f"semigroup kind must be diagonal or dense, got {kind!r}")


def _integrand(data: dict, space_u: HilbertSpec, space_h: HilbertSpec, n_steps: int):
    kind = _require(data, "kind", str, "integrand")
    if kind == "constant":
        operator = _require(data, "operator", dict, "integrand")
        return IntegrandSpec.from_constant(_operator(operator, space_u, space_h))
    if kind == "time_varying":
        ops = _require(data, "operators", list, "integrand")
        if not ops:
            raise ConfigError("time_varying integrand needs at least one operator")
        if not all(isinstance(op, dict) for op in ops):
            raise ConfigError("key 'operators' in integrand must hold operator objects")
        if len(ops) < n_steps:
            raise ConfigError(
                f"key 'operators' in integrand has {len(ops)} entries; "
                f"time_varying needs one per step, grid.N={n_steps}"
            )
        mats = _node_table(ops, space_u, space_h).view(_Fresh)
        return IntegrandSpec(space_u, space_h, TIME_VARYING, node_matrices=mats)
    raise ConfigError(f"integrand kind must be constant or time_varying, got {kind!r}")


def _node_table(ops: list, space_u: HilbertSpec, space_h: HilbertSpec) -> np.ndarray:
    """The (n, dim_H, dim_U) matrices of a time-varying integrand's operator objects.

    The nodes are checked one by one, in order, straight into one array; the
    first bad node raises the error it raises as a constant operator, and a
    diagonal node enters as its diagonal matrix.
    """
    mats = np.zeros((len(ops), space_h.dim, space_u.dim))
    for op, mat in zip(ops, mats):
        kind, values = _operator_values(op, space_u, space_h)
        if kind == "diagonal":
            np.fill_diagonal(mat, values)
        else:
            mat[:] = values
    return mats


def _operator_values(data: dict, space_u: HilbertSpec, space_h: HilbertSpec):
    """The checked kind of an operator object and its eigenvalues or (dim_H, dim_U) rows."""
    kind = _require(data, "kind", str, "operator")
    if kind == "diagonal":
        eig = _require(data, "eigenvalues", list, "operator")
        if space_u.dim != space_h.dim:
            raise ConfigError("diagonal operator requires dims.U == dims.H")
        if len(eig) != space_u.dim:
            raise ConfigError(f"operator eigenvalue count {len(eig)} must equal {space_u.dim}")
        return kind, _finite(eig, "eigenvalues", "operator")
    if kind == "dense":
        return kind, _matrix(data, "rows", space_h.dim, space_u.dim, "operator")
    raise ConfigError(f"operator kind must be diagonal or dense, got {kind!r}")


def _operator(data: dict, space_u: HilbertSpec, space_h: HilbertSpec) -> Operator:
    kind, values = _operator_values(data, space_u, space_h)
    build = SpectralOperator if kind == "diagonal" else DenseOperator
    return build(space_u, space_h, values)


def _noise_spec(data: dict, space_u: HilbertSpec) -> QWienerSpec:
    q_eig = _require(data, "q_eigenvalues", list, "config")
    if len(q_eig) != space_u.dim:
        raise ConfigError(f"q_eigenvalues length {len(q_eig)} must equal dims.U={space_u.dim}")
    q_eig = _finite(q_eig, "q_eigenvalues", "config")
    if np.any(q_eig < 0):
        raise ConfigError("q_eigenvalues must be nonnegative numbers")
    return QWienerSpec(space_u, q_eig)


def parse_config(data: dict) -> ScenarioConfig:
    """Validate a raw config dict and build its objects into a ``ScenarioConfig``.

    Raises:
      ConfigError: on any schema violation; the message names the bad key.
    """
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    experiment = _require(data, "experiment", str, "config")
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; expected one of {', '.join(EXPERIMENTS)}"
        )
    dims = _require(data, "dims", dict, "config")
    space_u = HilbertSpec(_positive_int(dims, "U", "dims"))
    space_h = HilbertSpec(_positive_int(dims, "H", "dims"))
    grid_data = _require(data, "grid", dict, "config")
    horizon = _number(grid_data, "T", "grid")
    if horizon <= 0:
        raise ConfigError("grid.T must be positive")
    n_steps = _positive_int(grid_data, "N", "grid")
    if horizon / n_steps == 0.0:
        raise ConfigError(f"grid.T={horizon!r} over grid.N={n_steps} steps gives a step dt of 0")
    semigroup = _semigroup(_require(data, "semigroup", dict, "config"), space_h, horizon)
    noise_spec = _noise_spec(data, space_u)
    integrand = _integrand(_require(data, "integrand", dict, "config"), space_u, space_h, n_steps)
    expo = _require(data, "exponents", dict, "config")
    p = _number(expo, "p", "exponents")
    q = _number(expo, "q", "exponents")
    r = _number(expo, "r", "exponents")
    if p < 1 or q < 1:
        raise ConfigError("exponents.p and exponents.q must be >= 1")
    if r <= 1:
        raise ConfigError("exponents.r must be > 1")
    beta = _number(data, "beta", "config")
    if not 0.0 <= beta < 1.0:
        raise ConfigError("beta must lie in [0, 1)")
    if experiment in ("factorize-compare", "norms") and beta * r <= 1.0:
        raise ConfigError(
            f"experiment {experiment!r} requires beta in (1/r, 1), got beta={beta}, r={r}"
        )
    seed = _require(data, "seed", int, "config")
    if isinstance(seed, bool) or not 0 <= seed < 2**64:
        raise ConfigError("seed must be a nonnegative integer below 2**64")
    n_paths = _positive_int(data, "n_paths", "config")
    dim = max(space_u.dim, space_h.dim)
    if 8 * n_paths * (n_steps + 1) * dim > np.iinfo(np.intp).max:
        raise ConfigError(
            f"n_paths={n_paths} and grid.N={n_steps} need a ({n_paths}, {n_steps + 1}, {dim})"
            " float64 array, larger than the address space"
        )
    workers = _positive_int(data, "workers", "config") if "workers" in data else 1
    options = data.get("options", {})
    if not isinstance(options, dict):
        raise ConfigError("options must be an object")
    return ScenarioConfig(
        experiment=experiment,
        grid=TimeGrid(horizon, n_steps),
        semigroup=semigroup,
        noise_spec=noise_spec,
        integrand=integrand,
        p=p,
        q=q,
        r=r,
        beta=beta,
        seed=int(seed),
        n_paths=n_paths,
        workers=workers,
        options=options,
        raw=data,
    )


def load_config(path: str, overrides: dict | None = None) -> ScenarioConfig:
    """Load a scenario config file, replace top-level keys by ``overrides``, parse once.

    Raises:
      ConfigError: unreadable file, invalid JSON, or schema violation.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if overrides and isinstance(data, dict):
        data.update(overrides)
    return parse_config(data)
