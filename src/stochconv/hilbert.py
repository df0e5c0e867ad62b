"""Finite (Galerkin-truncated) Hilbert spaces, linear operators and semigroups.

Vectors are coordinate arrays with respect to a fixed orthonormal basis of the
truncated space.  Operators come in two flavours: diagonal in the shared basis
(``SpectralOperator``) or a full matrix (``DenseOperator``).  Strongly
continuous semigroups are represented either by a nonnegative spectrum
(S(t) = coordinatewise exp(-rate*t)) or by a dense generator matrix
(S(t) = expm(t*A), evaluated in numpy by scaling and squaring a degree-14
Taylor sum).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, StochConvError, frozen_array, is_integer, is_real

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
]


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
        object.__setattr__(self, "eigenvalues", frozen_array(self.eigenvalues, "eigenvalues"))
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
        object.__setattr__(self, "entries", frozen_array(self.entries, "operator entries"))
        if self.entries.shape != (self.codomain.dim, self.domain.dim):
            raise DimensionMismatchError(
                "operator matrix shape must be (codomain.dim, domain.dim)",
                expected=(self.codomain.dim, self.domain.dim),
                got=self.entries.shape,
            )


Operator = SpectralOperator | DenseOperator


def operator_matrix(op: Operator) -> np.ndarray:
    """Dense matrix of an operator (read-only view for dense operators)."""
    if isinstance(op, SpectralOperator):
        return np.diag(op.eigenvalues)
    return op.entries


def apply_operator(op: Operator, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Apply a linear operator to a vector or a batch of vectors.

    Args:
      op: a ``SpectralOperator`` or ``DenseOperator``.
      v: array whose last axis has length ``op.domain.dim``; leading axes are
        treated as batch dimensions.
      out: optional array of the result's shape to write into; it may be ``v``.

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
        return np.multiply(v, op.eigenvalues, out=out)
    return np.matmul(v, op.entries.T, out=out)


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
    """e^m of a matrix or a stack (..., d, d): scaling and squaring (Moler and Van Loan 2003).

    Each m / 2^s has 1-norm <= 1/2, where the degree-14 Taylor sum truncates below
    2^-53; it is squared s times.  The norm of m 2^-64 cannot overflow; e^0 is exactly I.
    The stack is sorted by s once, so the matrices still being squared are a suffix.
    """
    stack = np.array(m, dtype=np.float64, ndmin=3)
    norms = np.linalg.norm(np.ldexp(stack, -64), 1, axis=(-2, -1))
    steps = np.where(norms > 0.0, np.maximum(np.frexp(norms)[1] + 65, 0), 0)
    x = np.ldexp(stack, -steps[..., None, None])
    out = eye = np.eye(stack.shape[-1])
    for k in range(14, 0, -1):  # Horner: I + x (I + x/2 (I + ... (I + x/14)))
        out = eye + x @ out / k
    order = np.argsort(steps, axis=None, kind="stable")
    ranked = steps.ravel()[order]
    out = out.reshape((-1,) + out.shape[-2:])[order]
    # squaring i squares the suffix from the first matrix with s > i
    for lo in np.searchsorted(ranked, np.arange(ranked[-1]), side="right").tolist():
        if lo == 0:
            out = out @ out
        else:
            out[lo:] = out[lo:] @ out[lo:]
    result = np.empty_like(out)
    result[order] = out
    return result.reshape(np.shape(m))


def _dense_sup_bounds(generator: np.ndarray, horizon: float) -> tuple[float, float]:
    """Sampled and certified sup of |expm(t A)|_2 over [0, horizon]."""
    ts = np.linspace(0.0, horizon, 257)
    # an overflowed S(t) makes both bounds infinite: its SVD fails or returns NaN
    with np.errstate(over="ignore", invalid="ignore"):
        powers = _expm(ts[:, None, None] * generator)
        if not np.isfinite(powers).all():
            return np.inf, np.inf
        sampled = float(np.linalg.norm(powers, 2, axis=(-2, -1)).max())
        # halving before the sum keeps every entry of (A + A^T) / 2 finite
        log_norm = np.linalg.eigvalsh(0.5 * generator + 0.5 * generator.T)[-1]
        margin = np.exp(horizon / 256 * log_norm) if np.isfinite(log_norm) else np.inf
        return sampled, float(sampled * max(1.0, margin))


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
            rates = frozen_array(self.rates, "diagonal semigroup rates", nonnegative=True)
            object.__setattr__(self, "rates", rates)
            if self.rates.shape != (self.space.dim,):
                raise DimensionMismatchError(
                    "rate list length must match space dimension",
                    expected=(self.space.dim,),
                    got=self.rates.shape,
                )
        else:
            object.__setattr__(self, "generator", frozen_array(self.generator, "generator"))
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
