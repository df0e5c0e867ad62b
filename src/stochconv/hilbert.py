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

from .errors import DimensionMismatchError, StochConvError, is_integer, is_real

__all__ = [
    "HilbertSpec",
    "SpectralOperator",
    "DenseOperator",
    "SemigroupSpec",
    "apply_operator",
    "hs_norm",
    "semigroup_eval",
    "lag_table",
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
        if not is_integer(self.dim) or self.dim < 1:
            raise StochConvError(f"space dimension dim must be an integer >= 1, got {self.dim!r}")


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


def weight_eigenvalues(weight: SpectralOperator | None, dim: int) -> np.ndarray:
    """Eigenvalues of a weight on a ``dim``-dimensional domain; all ones when it is None.

    Raises:
      DimensionMismatchError: weight defined on a different-dimensional space.
      StochConvError: weight has a negative eigenvalue.
    """
    if weight is None:
        return np.ones(dim)
    if weight.domain.dim != dim:
        raise DimensionMismatchError(
            "weight must act on the operator domain", expected=dim, got=weight.domain.dim
        )
    if np.any(weight.eigenvalues < 0.0):
        raise StochConvError("weight eigenvalues must be nonnegative")
    return weight.eigenvalues


def hs_norm(op: Operator, weight: SpectralOperator | None = None) -> float:
    """Hilbert-Schmidt norm of an operator, optionally weighted on the domain.

    Computes ``(sum_j |op(sqrt(q_j) u_j)|^2)^(1/2)`` over the domain basis
    ``u_j``, where ``q_j`` are the eigenvalues of ``weight`` (all ones when
    ``weight`` is None).

    Raises:
      DimensionMismatchError: weight defined on a different-dimensional space.
      StochConvError: weight has a negative eigenvalue.
    """
    q = weight_eigenvalues(weight, op.domain.dim)
    if isinstance(op, SpectralOperator):
        return float(np.sqrt(np.sum(q * op.eigenvalues**2)))
    return float(np.sqrt(np.sum(q * np.sum(op.entries**2, axis=0))))


def _expm(m: np.ndarray) -> np.ndarray:
    """expm(m), with a triangular m sent through scipy's generic branch.

    For a triangular input scipy rebuilds the first off-diagonal after each
    squaring from the divided difference (e^b - e^a) / (b - a), which cancels
    to 0 when two diagonal entries differ by a tiny nonzero amount: the
    generator [[0, 0], [1, 1e-81]] gave S(1.5)[1, 0] = 0, not 1.5.  The block
    matrix diag(m, m^T) is not triangular, and its top-left block is expm(m).
    """
    lower, upper = np.any(np.tril(m, -1)), np.any(np.triu(m, 1))
    if lower == upper:  # full or diagonal
        return expm(m)
    dim = m.shape[0]
    both = np.zeros((2 * dim, 2 * dim))
    both[:dim, :dim] = m
    both[dim:, dim:] = m.T
    return expm(both)[:dim, :dim]


def _dense_sup_bounds(generator: np.ndarray, horizon: float) -> tuple[float, float]:
    """Sampled and certified sup of |expm(t A)|_2 over [0, horizon]."""
    ts = np.linspace(0.0, horizon, 257)
    # an overflowed S(t) counts as unbounded, not as a NaN norm that max() skips
    with np.errstate(over="ignore", invalid="ignore"):
        powers = (_expm(t * generator) for t in ts)
        norms = [np.linalg.norm(s, 2) if np.isfinite(s).all() else np.inf for s in powers]
        sampled = float(max(norms))
        if not np.isfinite(sampled):
            return sampled, sampled
        log_norm = np.linalg.eigvalsh(0.5 * (generator + generator.T))[-1]
        return sampled, float(sampled * max(1.0, np.exp(horizon / 256 * log_norm)))


@dataclass(frozen=True)
class SemigroupSpec:
    """Strongly continuous semigroup S on a truncated space.

    ``rates`` set S(t) = coordinatewise exp(-rate_k * t) (requires
    rate_k >= 0, so the sup bound is exactly 1).  Alternatively ``generator``
    sets S(t) = expm(t * A).  ``bound`` is an upper bound on
    sup_{t in [0, horizon]} |S(t)|, exact for the diagonal kind.  For the
    dense kind ``sampled_bound`` is the largest |S(t)| on 257 equispaced nodes
    (a lower estimate of the sup), and ``bound`` is ``sampled_bound`` times
    max(1, exp(h mu(A))), with h = horizon / 256 the node gap and mu(A) the
    largest eigenvalue of (A + A^T) / 2: for t = t_i + s with 0 <= s <= h,
    |S(t)| <= |S(s)| |S(t_i)| and |S(s)| <= exp(s mu(A)).  That margin never
    exceeds the Lipschitz margin 1 + h|A| e^(h|A|), and it stays 1 for a
    dissipative generator however stiff.  Both are infinite when some sampled
    S(t) overflows.
    """

    space: HilbertSpec
    rates: np.ndarray | None = None
    generator: np.ndarray | None = None
    horizon: float = 1.0
    bound: float = field(init=False, default=1.0)
    sampled_bound: float = field(init=False, default=1.0)

    def __post_init__(self):
        if (self.rates is None) == (self.generator is None):
            raise StochConvError("provide exactly one of rates / generator")
        if not (is_real(self.horizon) and self.horizon > 0.0):  # NaN fails too
            raise StochConvError(f"horizon must be a positive number, got {self.horizon!r}")
        if self.rates is not None:
            object.__setattr__(self, "rates", _frozen_array(self.rates))
            if self.rates.shape != (self.space.dim,):
                raise DimensionMismatchError(
                    "rate list length must match space dimension",
                    expected=(self.space.dim,),
                    got=self.rates.shape,
                )
            if not np.all((self.rates >= 0.0) & (self.rates < np.inf)):  # NaN fails too
                raise StochConvError("diagonal semigroup rates must be finite and >= 0")
            object.__setattr__(self, "bound", 1.0)
            object.__setattr__(self, "sampled_bound", 1.0)
        else:
            object.__setattr__(self, "generator", _frozen_array(self.generator))
            if self.generator.shape != (self.space.dim, self.space.dim):
                raise DimensionMismatchError(
                    "generator must be a square matrix on the space",
                    expected=(self.space.dim, self.space.dim),
                    got=self.generator.shape,
                )
            sampled, bound = _dense_sup_bounds(self.generator, self.horizon)
            object.__setattr__(self, "sampled_bound", sampled)
            object.__setattr__(self, "bound", bound)

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
    return DenseOperator(sg.space, sg.space, _expm(t * sg.generator))


def lag_table(sg: SemigroupSpec, dt: float, n_lags: int) -> np.ndarray:
    """S(j dt) for j = 0..n_lags stacked: the one place where lag values of S are decided.

    Diagonal: rows exp(-rate j dt), shape (n_lags + 1, dim).  Dense: matrices S(dt)^j
    by repeated ``power @ step``, shape (n_lags + 1, dim, dim), matching the one-step
    recursion of the direct convolution; it differs from expm(j dt A) by rounding that
    grows with j.
    """
    if sg.is_diagonal:
        return np.exp(-np.outer(np.arange(n_lags + 1) * dt, sg.rates))
    step = operator_matrix(semigroup_eval(sg, dt))
    table = np.empty((n_lags + 1, sg.space.dim, sg.space.dim))
    table[0] = np.eye(sg.space.dim)
    if n_lags:
        table[1] = step
    for j in range(2, n_lags + 1):
        table[j] = table[j - 1] @ step
    return table
