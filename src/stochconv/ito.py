"""Left-point Euler-Ito integration of operator step processes against noise.

The integral of a predictable operator-valued step process is the prefix sum
I(t_k) = sum_{i<k} Phi_{t_i} dW_i, evaluated at the left node of every step
(Ito convention).  Paths are reported at the grid nodes; between nodes the
convention is piecewise-linear interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError, PredictabilityError, StochConvError, check_exponent, frozen_array,
)
from .hilbert import (
    DenseOperator, HilbertSpec, Operator, SpectralOperator, apply_operator, operator_matrix,
)
from .noise import NoiseEnsemble, TimeGrid, prefix_sums, sample_increments

__all__ = [
    "IntegrandSpec",
    "NormReport",
    "PathEnsemble",
    "ito_integrate",
    "integrand_products",
    "lr_path_norm",
    "probe_predictability",
    "export_paths_csv",
]

CONSTANT = "constant"
TIME_VARYING = "time_varying"
ADAPTED = "adapted"


class _Fresh(np.ndarray):
    """Node matrices that an ``IntegrandSpec`` builder has just made and nobody else holds.

    ``IntegrandSpec`` freezes them without a copy; any other array it copies.  The
    builders are ``from_operators``, ``scaled`` and the config parser's node table.
    """


@dataclass(frozen=True)
class IntegrandSpec:
    """Rule producing the operator value Phi_{t_i} for every (path, node).

    Three kinds are supported: a single constant operator, a deterministic
    operator per time node, and an adapted callback ``cb(i, increments)``
    that receives the step index and the full read-only increment array of
    shape (paths, N, dim_U) and returns matrices of shape (dim_H, dim_U) or
    (paths, dim_H, dim_U).  The callback may only read increments with step
    index < i; ``probe_predictability`` enforces this by perturbing the
    increments at steps >= i and requiring exact invariance.
    """

    domain: HilbertSpec
    codomain: HilbertSpec
    kind: str
    constant: Operator | None = None
    node_matrices: np.ndarray | None = None
    callback: Callable[[int, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.kind not in (CONSTANT, TIME_VARYING, ADAPTED):
            raise StochConvError(f"unknown integrand kind {self.kind!r}")
        if self.kind == TIME_VARYING:
            fresh = isinstance(self.node_matrices, _Fresh)
            mats = frozen_array(self.node_matrices, "node matrices", copy=not fresh)
            object.__setattr__(self, "node_matrices", mats)
            if mats.ndim != 3 or mats.shape[1:] != (self.codomain.dim, self.domain.dim):
                raise DimensionMismatchError(
                    "node matrices must be (n_nodes, dim_H, dim_U)",
                    expected=("n", self.codomain.dim, self.domain.dim),
                    got=mats.shape,
                )

    @classmethod
    def from_constant(cls, op: Operator) -> "IntegrandSpec":
        return cls(op.domain, op.codomain, CONSTANT, constant=op)

    @classmethod
    def from_operators(cls, ops: Sequence[Operator]) -> "IntegrandSpec":
        mats = np.stack([operator_matrix(op) for op in ops]).view(_Fresh)
        return cls(ops[0].domain, ops[0].codomain, TIME_VARYING, node_matrices=mats)

    @classmethod
    def from_matrices(
        cls, domain: HilbertSpec, codomain: HilbertSpec, mats
    ) -> "IntegrandSpec":
        return cls(domain, codomain, TIME_VARYING, node_matrices=np.asarray(mats, float))

    @classmethod
    def from_callback(
        cls, domain: HilbertSpec, codomain: HilbertSpec, cb
    ) -> "IntegrandSpec":
        return cls(domain, codomain, ADAPTED, callback=cb)

    def scaled(self, factor: float) -> "IntegrandSpec":
        """The integrand pointwise multiplied by a scalar.

        A factor of 1.0 gives the integrand itself: 1.0 * x is exact, so no
        copy or callback wrapper is made.
        """
        if factor == 1.0:
            return self
        if self.kind == CONSTANT:
            return IntegrandSpec.from_constant(_scaled_operator(self.constant, factor))
        if self.kind == TIME_VARYING:
            mats = (factor * self.node_matrices).view(_Fresh)
            return IntegrandSpec(self.domain, self.codomain, TIME_VARYING, node_matrices=mats)
        cb = self.callback
        return IntegrandSpec.from_callback(
            self.domain, self.codomain, lambda i, past: factor * np.asarray(cb(i, past))
        )


def _scaled_operator(op: Operator, factor: float) -> Operator:
    if isinstance(op, SpectralOperator):
        return SpectralOperator(op.domain, op.codomain, factor * op.eigenvalues)
    return DenseOperator(op.domain, op.codomain, factor * op.entries)


@dataclass(frozen=True)
class PathEnsemble:
    """H-valued process values at grid nodes, shape (paths, N + 1, dim_H).

    A float64 ``values`` is not copied: ``.values`` is a read-only view of the
    caller's array, which stays writable.
    """

    values: np.ndarray
    grid: TimeGrid

    def __post_init__(self):
        vals = frozen_array(self.values, "path ensemble values", copy=False)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 3 or vals.shape[1] != self.grid.n_steps + 1:
            raise DimensionMismatchError(
                "values must be (paths, n_nodes, dim)",
                expected=("paths", self.grid.n_steps + 1, "dim"),
                got=vals.shape,
            )

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[2]


@dataclass(frozen=True)
class NormReport:
    """A norm estimate with its standard error and the exponents used."""

    estimate: float
    standard_error: float
    p: float
    q: float
    r: float | None = None
    n_paths: int = 0
    n_boot: int = 0

    def __post_init__(self):
        if not np.isfinite(self.estimate) or self.estimate < 0.0:
            raise StochConvError(f"estimate must be finite nonnegative, got {self.estimate}")
        if self.standard_error < 0.0:
            raise StochConvError("standard error must be nonnegative")

    def to_json(self) -> dict:
        return {
            "estimate": self.estimate,
            "se": self.standard_error,
            "p": self.p,
            "q": self.q,
            "r": self.r,
        }


def check_compatible(phi: IntegrandSpec, noise: NoiseEnsemble):
    if phi.domain.dim != noise.spec.space.dim:
        raise DimensionMismatchError(
            "integrand domain must match the noise space",
            expected=noise.spec.space.dim,
            got=phi.domain.dim,
        )


def step_matrices(phi: IntegrandSpec, n_steps: int) -> np.ndarray:
    """Phi_{t_i} for the steps i < n_steps of a constant or time-varying integrand."""
    if phi.kind == CONSTANT:
        mat = operator_matrix(phi.constant)
        return np.broadcast_to(mat, (n_steps,) + mat.shape)
    if phi.kind != TIME_VARYING:
        raise StochConvError("a deterministic integrand is required")
    have = phi.node_matrices.shape[0]
    if have < n_steps:
        raise DimensionMismatchError("need one operator per step", expected=n_steps, got=have)
    return phi.node_matrices[:n_steps]


def step_products(mats: np.ndarray, inc: np.ndarray, out=None) -> np.ndarray:
    """Phi_i dW_i for step matrices (n, dim_H, dim_U) and increments (paths, n, dim_U).

    Increments of shape (paths, 1, dim_U) pair one step's dW with all n matrices.
    One batched ``matmul`` over the time axis, written into ``out`` (which may
    be a strided view such as ``buf[:, :n]``) or a fresh (paths, n, dim_H)
    array.  BLAS sums over dim_U in its own order, so for dim_U > 1 the last
    bits can differ from a plain left-to-right sum.  For dim_U == 1 there is
    no sum and ``matmul`` is several times slower: an einsum outer product,
    faster than a broadcast multiply on strided views, writes into a zeroed
    output, so a zero product is +0.0 as a sum started from zero gives it.
    """
    if out is None:
        out = np.empty((inc.shape[0],) + mats.shape[:2])
    if mats.shape[2] == 1:
        np.einsum("ih,pi->pih", mats[:, :, 0], inc[:, :, 0], out=out)
    else:
        np.matmul(inc.swapaxes(0, 1), mats.swapaxes(1, 2), out=out.swapaxes(0, 1))
    return out


def fill_products(
    phi: IntegrandSpec, inc: np.ndarray, start: int, stop: int, out: np.ndarray
) -> np.ndarray:
    """Write Phi_{t_i} dW_i for the steps start <= i < stop into ``out``.

    ``out`` has shape (paths, stop - start, dim_H) and may be a strided view
    such as ``buf[:n].swapaxes(0, 1)`` of a time-major buffer.  ``inc`` holds
    the increments of every step, (paths, N, dim_U): an adapted callback reads
    all of it.  Each step's products come from one call over all paths (for a
    dense operator the BLAS product (paths, dim_U) by (dim_U, dim_H)), so a
    step's bytes do not depend on the range that holds it: any split of the
    steps is bitwise one fill over all of them.
    """
    if phi.kind == CONSTANT:
        apply_operator(phi.constant, inc[:, start:stop].swapaxes(0, 1), out=out.swapaxes(0, 1))
    elif phi.kind == TIME_VARYING:
        step_products(step_matrices(phi, inc.shape[1])[start:stop], inc[:, start:stop], out=out)
    else:
        for i in range(start, stop):
            mats = np.asarray(phi.callback(i, inc), dtype=np.float64)
            if mats.ndim == 2:
                out[:, i - start, :] = inc[:, i, :] @ mats.T
            else:
                out[:, i - start, :] = np.einsum("phu,pu->ph", mats, inc[:, i, :])
    return out


def integrand_products(phi: IntegrandSpec, noise: NoiseEnsemble) -> np.ndarray:
    """Per-step products Phi_{t_i} dW_i, shape (paths, N, dim_H)."""
    check_compatible(phi, noise)
    inc = noise.increments
    n_paths, n_steps, _ = inc.shape
    return fill_products(phi, inc, 0, n_steps, np.empty((n_paths, n_steps, phi.codomain.dim)))


def ito_integrate(
    phi: IntegrandSpec, noise: NoiseEnsemble, probe: bool = False
) -> PathEnsemble:
    """Integrate a predictable step process against the sampled increments.

    Args:
      phi: integrand description; its domain must match the noise space.
      noise: sampled Q-Wiener increments.
      probe: when True, adapted callbacks are first checked for
        predictability by future-perturbation.

    Returns:
      ``PathEnsemble`` with I(t_0) = 0 and
      I(t_k) = sum_{i<k} Phi_{t_i} dW_i for every path.

    Raises:
      DimensionMismatchError: integrand/noise dimension mismatch.
      PredictabilityError: probe mode caught a callback reading the future.
    """
    if probe:
        probe_predictability(phi, noise)
    return PathEnsemble(prefix_sums(integrand_products(phi, noise)), noise.grid)


def probe_predictability(
    phi: IntegrandSpec,
    noise: NoiseEnsemble,
    check_steps: Sequence[int] | None = None,
    probe_seed: int = 0x5EED,
) -> None:
    """Verify integrand values at node i ignore increments at steps >= i.

    Re-evaluates the integrand against a noise copy whose future increments
    are replaced by a differently-seeded stream and requires exact equality.

    Raises:
      PredictabilityError: if any probed node value changes.
    """
    if phi.kind != ADAPTED:
        return
    n_steps = noise.grid.n_steps
    if check_steps is None:
        check_steps = sorted({1, n_steps // 2, n_steps - 1} & set(range(n_steps)))
    alt = sample_increments(
        noise.spec, noise.grid, probe_seed ^ noise.master_seed, noise.n_paths
    )
    for i in check_steps:
        perturbed = noise.increments.copy()
        perturbed[:, i:, :] = alt.increments[:, i:, :]
        perturbed.setflags(write=False)
        baseline = np.asarray(phi.callback(i, noise.increments))
        probed = np.asarray(phi.callback(i, perturbed))
        if not np.array_equal(baseline, probed):
            raise PredictabilityError(
                f"integrand value at step {i} depends on increments at steps >= {i}"
            )


def node_magnitudes(values: np.ndarray) -> np.ndarray:
    """Euclidean magnitude of each node value: the norm over the last (coordinate) axis."""
    return np.sqrt(np.sum(values**2, axis=-1))


def path_sup_norms(ensemble: PathEnsemble) -> np.ndarray:
    """Per-path sup norms, shape (paths,)."""
    return np.max(node_magnitudes(ensemble.values), axis=1)


def lr_path_norm(ensemble: PathEnsemble, r: float):
    """Monte Carlo estimate of (E[sup-norm^r])^(1/r) with a delta-method SE.

    Raises:
      StochConvError: unless 1 <= r < inf.
    """
    check_exponent("r", r)
    sups = path_sup_norms(ensemble) ** r
    moment = float(np.mean(sups))
    estimate = moment ** (1.0 / r)
    n = sups.size
    if moment == 0.0 or n < 2:
        se = 0.0
    else:
        se_moment = float(np.std(sups, ddof=1) / np.sqrt(n))
        se = se_moment * estimate / (r * moment)
    return NormReport(estimate=estimate, standard_error=se, p=r, q=r, r=r, n_paths=n)


def export_paths_csv(paths, path: str) -> None:
    """Write paths as CSV rows ``path_id, t, coord_0, ..., coord_{d-1}``.

    ``paths`` is one ``PathEnsemble`` or a ``{method: PathEnsemble}`` mapping;
    a mapping adds a leading ``method`` column and writes methods in sorted
    order.
    """
    if isinstance(paths, PathEnsemble):
        groups, header = {"": paths}, ""
    else:
        groups, header = {f"{name},": paths[name] for name in sorted(paths)}, "method,"
    if not groups:
        raise StochConvError("no path ensembles to export")
    dim = next(iter(groups.values())).dim
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "path_id,t," + ",".join(f"coord_{d}" for d in range(dim)) + "\n")
        for lead, ensemble in groups.items():
            nodes = ensemble.grid.nodes
            for p in range(ensemble.n_paths):
                for k, t in enumerate(nodes):
                    coords = ",".join(repr(float(v)) for v in ensemble.values[p, k])
                    fh.write(f"{lead}{p},{float(t)!r},{coords}\n")
