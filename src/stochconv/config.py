"""Scenario configuration: JSON schema, validation and canonical hashing."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .hilbert import HilbertSpec, SemigroupSpec, operator_from_json
from .ito import IntegrandSpec
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
    try:
        return isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def _number(data: dict, key: str, where: str) -> float:
    value = _require(data, key, (int, float), where)
    if not _is_finite(value):
        raise ConfigError(f"key {key!r} in {where} must be a finite number")
    return float(value)


def _finite(values: list, key: str, where: str) -> None:
    """Reject any entry of a list, or of its row lists, that is not a finite number."""
    flat = [v for item in values for v in (item if isinstance(item, list) else [item])]
    if not all(_is_finite(v) for v in flat):
        raise ConfigError(f"key {key!r} in {where} must hold finite numbers")


def _matrix(data: dict, key: str, n_rows: int, n_cols: int, where: str) -> None:
    rows = _require(data, key, list, where)
    if len(rows) != n_rows or any(not isinstance(row, list) or len(row) != n_cols for row in rows):
        raise ConfigError(f"key {key!r} in {where} must be a {n_rows} x {n_cols} list of rows")
    _finite(rows, key, where)


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
    """Validated scenario parameters plus experiment-specific options."""

    experiment: str
    dim_u: int
    dim_h: int
    grid: TimeGrid
    semigroup_json: dict
    q_eigenvalues: tuple
    integrand_json: dict
    p: float
    q: float
    r: float
    beta: float
    seed: int
    n_paths: int
    workers: int = 1
    options: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)

    @property
    def config_hash(self) -> str:
        # worker count is execution infrastructure: artifacts must not depend on it
        payload = {k: v for k, v in self.raw.items() if k != "workers"}
        return canonical_hash(payload)

    def space_u(self) -> HilbertSpec:
        return HilbertSpec(self.dim_u, "U")

    def space_h(self) -> HilbertSpec:
        return HilbertSpec(self.dim_h, "H")

    def build_semigroup(self) -> SemigroupSpec:
        data = self.semigroup_json
        kind = data.get("kind")
        if kind == "diagonal":
            return SemigroupSpec(
                self.space_h(),
                rates=np.asarray(data["rates"], float),
                horizon=self.grid.horizon,
            )
        if kind == "dense":
            return SemigroupSpec(
                self.space_h(),
                generator=np.asarray(data["generator"], float),
                horizon=self.grid.horizon,
            )
        raise ConfigError(f"unknown semigroup kind {kind!r}")

    def build_noise_spec(self) -> QWienerSpec:
        return QWienerSpec(self.space_u(), np.asarray(self.q_eigenvalues, float))

    def build_integrand(self) -> IntegrandSpec:
        data = self.integrand_json
        kind = data.get("kind")
        if kind == "constant":
            op = operator_from_json(data["operator"], self.space_u(), self.space_h())
            return IntegrandSpec.from_constant(op)
        if kind == "time_varying":
            ops = [
                operator_from_json(entry, self.space_u(), self.space_h())
                for entry in data["operators"]
            ]
            return IntegrandSpec.from_operators(ops)
        raise ConfigError(f"unknown integrand kind {kind!r}")


def _validate_semigroup(data: dict, dim_h: int):
    kind = _require(data, "kind", str, "semigroup")
    if kind == "diagonal":
        rates = _require(data, "rates", list, "semigroup")
        if len(rates) != dim_h:
            raise ConfigError(
                f"semigroup rates length {len(rates)} must equal dims.H={dim_h}"
            )
        _finite(rates, "rates", "semigroup")
        if any(v < 0 for v in rates):
            raise ConfigError("semigroup rates must be nonnegative numbers")
    elif kind == "dense":
        _matrix(data, "generator", dim_h, dim_h, "semigroup")
    else:
        raise ConfigError(f"semigroup kind must be diagonal or dense, got {kind!r}")


def _validate_integrand(data: dict, dim_u: int, dim_h: int):
    kind = _require(data, "kind", str, "integrand")
    if kind == "constant":
        _validate_operator(_require(data, "operator", dict, "integrand"), dim_u, dim_h)
    elif kind == "time_varying":
        ops = _require(data, "operators", list, "integrand")
        if not ops:
            raise ConfigError("time_varying integrand needs at least one operator")
        for entry in ops:
            _validate_operator(entry, dim_u, dim_h)
    else:
        raise ConfigError(f"integrand kind must be constant or time_varying, got {kind!r}")


def _validate_operator(data: dict, dim_u: int, dim_h: int):
    kind = _require(data, "kind", str, "operator")
    if kind == "diagonal":
        eig = _require(data, "eigenvalues", list, "operator")
        if dim_u != dim_h:
            raise ConfigError("diagonal operator requires dims.U == dims.H")
        if len(eig) != dim_u:
            raise ConfigError(f"operator eigenvalue count {len(eig)} must equal {dim_u}")
        _finite(eig, "eigenvalues", "operator")
    elif kind == "dense":
        _matrix(data, "rows", dim_h, dim_u, "operator")
    else:
        raise ConfigError(f"operator kind must be diagonal or dense, got {kind!r}")


def parse_config(data: dict) -> ScenarioConfig:
    """Validate a raw config dict and freeze it into a ``ScenarioConfig``.

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
    dim_u = _positive_int(dims, "U", "dims")
    dim_h = _positive_int(dims, "H", "dims")
    grid_data = _require(data, "grid", dict, "config")
    horizon = _number(grid_data, "T", "grid")
    if horizon <= 0:
        raise ConfigError("grid.T must be positive")
    n_steps = _positive_int(grid_data, "N", "grid")
    semigroup = _require(data, "semigroup", dict, "config")
    _validate_semigroup(semigroup, dim_h)
    q_eig = _require(data, "q_eigenvalues", list, "config")
    if len(q_eig) != dim_u:
        raise ConfigError(f"q_eigenvalues length {len(q_eig)} must equal dims.U={dim_u}")
    _finite(q_eig, "q_eigenvalues", "config")
    if any(v < 0 for v in q_eig):
        raise ConfigError("q_eigenvalues must be nonnegative numbers")
    integrand = _require(data, "integrand", dict, "config")
    _validate_integrand(integrand, dim_u, dim_h)
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
    workers = _positive_int(data, "workers", "config") if "workers" in data else 1
    options = data.get("options", {})
    if not isinstance(options, dict):
        raise ConfigError("options must be an object")
    return ScenarioConfig(
        experiment=experiment,
        dim_u=dim_u,
        dim_h=dim_h,
        grid=TimeGrid(horizon, n_steps),
        semigroup_json=semigroup,
        q_eigenvalues=tuple(float(v) for v in q_eig),
        integrand_json=integrand,
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


def load_config(path: str) -> ScenarioConfig:
    """Load and validate a scenario config file.

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
    return parse_config(data)
