"""Finite (Galerkin-truncated) Hilbert spaces, linear operators and semigroups.

Vectors are coordinate arrays with respect to a fixed orthonormal basis of the
truncated space.  Operators come in two flavours: diagonal in the shared basis
(``SpectralOperator``) or a full matrix (``DenseOperator``).  Strongly
continuous semigroups are represented either by a nonnegative spectrum
(S(t) = coordinatewise exp(-rate*t)) or by a dense generator matrix
(S(t) = expm(t*A), evaluated with scipy's scaling-and-squaring Pade method).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .errors import DimensionMismatchError, StochConvError

__all__ = [
    "HilbertSpec",
    "SpectralOperator",
    "DenseOperator",
    "SemigroupSpec",
    "apply_operator",
    "hs_norm",
    "semigroup_eval",
    "lag_operators",
    "operator_matrix",
    "identity_operator",
]


def _frozen_array(values, dtype=np.float64):
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class HilbertSpec:
    """A truncated separable Hilbert space: the first ``dim`` basis modes."""

    dim: int
    label: str = "H"

    def __post_init__(self):
        if self.dim < 1:
            raise StochConvError(f"space dimension must be >= 1, got {self.dim}")


@dataclass(frozen=True)
class SpectralOperator:
    """Operator acting coordinatewise on the shared basis of domain/codomain."""

    domain: HilbertSpec
    codomain: HilbertSpec
    eigenvalues: np.ndarray

    def __post_init__(self):
        if self.domain.dim != self.codomain.dim:
            raise DimensionMismatchError(
                "spectral operator needs equal domain/codomain dims",
                expected=self.domain.dim,
                got=self.codomain.dim,
            )
        object.__setattr__(self, "eigenvalues", _frozen_array(self.eigenvalues))
        if self.eigenvalues.shape != (self.domain.dim,):
            raise DimensionMismatchError(
                "eigenvalue list length must match space dimension",
                expected=(self.domain.dim,),
                got=self.eigenvalues.shape,
            )


@dataclass(frozen=True)
class DenseOperator:
    """General linear map stored as a codomain.dim x domain.dim matrix."""

    domain: HilbertSpec
    codomain: HilbertSpec
    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _frozen_array(self.entries))
        if self.entries.shape != (self.codomain.dim, self.domain.dim):
            raise DimensionMismatchError(
                "operator matrix shape must be (codomain.dim, domain.dim)",
                expected=(self.codomain.dim, self.domain.dim),
                got=self.entries.shape,
            )


Operator = SpectralOperator | DenseOperator


def identity_operator(space: HilbertSpec) -> SpectralOperator:
    return SpectralOperator(space, space, np.ones(space.dim))


def operator_matrix(op: Operator) -> np.ndarray:
    """Dense matrix of an operator (read-only view for dense operators)."""
    if isinstance(op, SpectralOperator):
        return np.diag(op.eigenvalues)
    return op.entries


def apply_operator(op: Operator, v: np.ndarray) -> np.ndarray:
    """Apply a linear operator to a vector or a batch of vectors.

    Args:
      op: a ``SpectralOperator`` or ``DenseOperator``.
      v: array whose last axis has length ``op.domain.dim``; leading axes are
        treated as batch dimensions.

    Returns:
      Array of the same leading shape with last axis ``op.codomain.dim``.

    Raises:
      DimensionMismatchError: if the last axis of ``v`` does not match.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1] != op.domain.dim:
        raise DimensionMismatchError(
            "vector length must match operator domain",
            expected=op.domain.dim,
            got=v.shape[-1],
        )
    if isinstance(op, SpectralOperator):
        return v * op.eigenvalues
    return v @ op.entries.T


def hs_norm(op: Operator, weight: SpectralOperator | None = None) -> float:
    """Hilbert-Schmidt norm of an operator, optionally weighted on the domain.

    Computes ``(sum_j |op(sqrt(q_j) u_j)|^2)^(1/2)`` over the domain basis
    ``u_j``, where ``q_j`` are the eigenvalues of ``weight`` (all ones when
    ``weight`` is None).

    Raises:
      DimensionMismatchError: weight defined on a different-dimensional space.
      StochConvError: weight has a negative eigenvalue.
    """
    if weight is not None:
        if weight.domain.dim != op.domain.dim:
            raise DimensionMismatchError(
                "weight must act on the operator domain",
                expected=op.domain.dim,
                got=weight.domain.dim,
            )
        q = weight.eigenvalues
        if np.any(q < 0.0):
            raise StochConvError("weight eigenvalues must be nonnegative")
    else:
        q = np.ones(op.domain.dim)
    if isinstance(op, SpectralOperator):
        return float(np.sqrt(np.sum(q * op.eigenvalues**2)))
    return float(np.sqrt(np.sum(q * np.sum(op.entries**2, axis=0))))


@dataclass(frozen=True)
class SemigroupSpec:
    """Strongly continuous semigroup S on a truncated space.

    ``rates`` set S(t) = coordinatewise exp(-rate_k * t) (requires
    rate_k >= 0, so the sup bound is exactly 1).  Alternatively ``generator``
    sets S(t) = expm(t * A).  ``bound`` is sup_{t in [0, horizon]} |S(t)|,
    exact for the diagonal kind and sampled on 257 nodes for the dense kind
    (infinite when some sampled S(t) overflows).
    """

    space: HilbertSpec
    rates: np.ndarray | None = None
    generator: np.ndarray | None = None
    horizon: float = 1.0
    bound: float = field(init=False, default=1.0)

    def __post_init__(self):
        if (self.rates is None) == (self.generator is None):
            raise StochConvError("provide exactly one of rates / generator")
        if self.horizon <= 0.0:
            raise StochConvError("horizon must be positive")
        if self.rates is not None:
            object.__setattr__(self, "rates", _frozen_array(self.rates))
            if self.rates.shape != (self.space.dim,):
                raise DimensionMismatchError(
                    "rate list length must match space dimension",
                    expected=(self.space.dim,),
                    got=self.rates.shape,
                )
            if np.any(self.rates < 0.0):
                raise StochConvError("diagonal semigroup rates must be >= 0")
            object.__setattr__(self, "bound", 1.0)
        else:
            object.__setattr__(self, "generator", _frozen_array(self.generator))
            if self.generator.shape != (self.space.dim, self.space.dim):
                raise DimensionMismatchError(
                    "generator must be a square matrix on the space",
                    expected=(self.space.dim, self.space.dim),
                    got=self.generator.shape,
                )
            ts = np.linspace(0.0, self.horizon, 257)
            # an overflowed S(t) counts as unbounded, not as a NaN norm that max() skips
            with np.errstate(over="ignore", invalid="ignore"):
                powers = (expm(t * self.generator) for t in ts)
                norms = [np.linalg.norm(s, 2) if np.isfinite(s).all() else np.inf for s in powers]
            object.__setattr__(self, "bound", float(max(norms)))

    @property
    def is_diagonal(self) -> bool:
        return self.rates is not None


def semigroup_eval(sg: SemigroupSpec, t: float) -> Operator:
    """Evaluate S(t) as an operator.

    Args:
      sg: semigroup description.
      t: time, must be >= 0.

    Returns:
      ``SpectralOperator`` for the diagonal kind, ``DenseOperator`` otherwise.

    Raises:
      StochConvError: if t < 0.
    """
    if t < 0.0:
        raise StochConvError(f"semigroup evaluated at negative time {t}")
    if sg.is_diagonal:
        return SpectralOperator(sg.space, sg.space, np.exp(-sg.rates * t))
    return DenseOperator(sg.space, sg.space, expm(t * sg.generator))


def lag_operators(sg: SemigroupSpec, dt: float, n_lags: int) -> list[Operator]:
    """S(j dt) for j = 0..n_lags: the one place where lag values of S are decided.

    Diagonal: ``SpectralOperator(exp(-rate j dt))``.  Dense: ``DenseOperator(S(dt)^j)``
    by repeated ``power @ step``, matching the one-step recursion of the direct
    convolution; it differs from expm(j dt A) by rounding that grows with j.
    """
    if sg.is_diagonal:
        decay = np.exp(-np.outer(np.arange(n_lags + 1) * dt, sg.rates))
        return [SpectralOperator(sg.space, sg.space, row) for row in decay]
    step = operator_matrix(semigroup_eval(sg, dt))
    power = np.eye(sg.space.dim)
    table = []
    for j in range(n_lags + 1):
        table.append(DenseOperator(sg.space, sg.space, power))
        power = step if j == 0 else power @ step
    return table
