"""Monte Carlo estimators for mixed process norms with bootstrap errors.

Two norms are estimated from grid samples: the time-mixed norm
(integral_0^T (E |X_t|^p)^(q/p) dt)^(1/q) of a path ensemble, and the
two-parameter norm
(integral (integral (E |zeta(s, t)|^p)^(q/p) ds)^(r/q) dt)^(1/r) of a
two-parameter field.  Node quadrature is trapezoidal in each time variable,
the path mean sits innermost, and standard errors come from a seeded
multinomial bootstrap over paths (200 resamples by default).

The singular-kernel family (t_k - s_i)^(-beta) S(t_k - s_i) Phi_i, i < k, comes
from one set of factors (``_slice_terms``).  The field reads it slice by slice; the
Ito-operator battery walks the steps once for all open slices, holding running sums
(N, paths, dim_H), running maxima (N, paths) and one block of products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._parallel import path_blocks
from .convolution import singular_weights
from .errors import DimensionMismatchError, StochConvError, check_exponent, frozen_array
from .hilbert import SemigroupSpec, SpectralOperator, hs_norm, lag_table, weight_eigenvalues
from .ito import (
    CONSTANT, NormReport, check_compatible, node_magnitudes, step_matrices, step_products,
)
from .noise import NoiseEnsemble, TimeGrid

__all__ = [
    "TwoParameterField",
    "estimate_lpq",
    "estimate_lpqr",
    "singular_kernel_field",
    "deterministic_lpq_norm",
    "integral_norm_estimate",
]


@dataclass(frozen=True)
class TwoParameterField:
    """Pointwise magnitudes |zeta((omega, s), t)| on the grid, per path.

    ``magnitudes`` has shape (paths, n_nodes, n_nodes); axis 1 is the process
    time s, axis 2 the parameter time t.  A float64 array is kept as a read-only
    view of the caller's array, not copied.
    """

    magnitudes: np.ndarray
    grid: TimeGrid

    def __post_init__(self):
        mags = frozen_array(self.magnitudes, "field magnitudes", copy=False, nonnegative=True)
        object.__setattr__(self, "magnitudes", mags)
        n_nodes = self.grid.n_steps + 1
        if mags.ndim != 3 or mags.shape[1:] != (n_nodes, n_nodes):
            raise DimensionMismatchError(
                "field must be (paths, n_nodes, n_nodes)",
                expected=("paths", n_nodes, n_nodes),
                got=mags.shape,
            )


def _bootstrap_se(per_path_stat, n_paths: int, n_boot: int, seed: int) -> float:
    """SE of a path-mean functional via multinomial resampling weights.

    ``per_path_stat(weights)`` must return the estimate under path weights
    summing to n_paths.
    """
    if n_boot <= 1 or n_paths < 2:
        return 0.0
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n_paths, np.full(n_paths, 1.0 / n_paths), size=n_boot)
    values = np.array([per_path_stat(c.astype(np.float64)) for c in counts])
    return float(np.std(values, ddof=1))


def estimate_lpq(
    ensemble, p: float, q: float, n_boot: int = 200, seed: int = 0
) -> NormReport:
    """Estimate the time-mixed (p, q) norm of a path ensemble.

    Trapezoidal quadrature over the grid nodes of the path-mean p-th moment,
    then the outer 1/q power; the bootstrap resamples whole paths.

    Raises:
      StochConvError: unless p and q are finite and >= 1.
    """
    check_exponent("p", p)
    check_exponent("q", q)
    mags_p = node_magnitudes(ensemble.values) ** p
    nodes = ensemble.grid.nodes
    n_paths = mags_p.shape[0]

    def stat(weights):
        moment = weights @ mags_p / n_paths
        return float(np.trapezoid(moment ** (q / p), nodes) ** (1.0 / q))

    estimate = stat(np.ones(n_paths))
    se = _bootstrap_se(stat, n_paths, n_boot, seed)
    return NormReport(estimate, se, p=p, q=q, r=None, n_paths=n_paths, n_boot=n_boot)


def estimate_lpqr(
    field: TwoParameterField,
    p: float,
    q: float,
    r: float,
    n_boot: int = 200,
    seed: int = 0,
) -> NormReport:
    """Estimate the two-parameter (p, q, r) norm of a field.

    Nested trapezoidal node quadrature, inner over the process time, outer
    over the parameter time, with the path mean innermost.

    Raises:
      StochConvError: unless p, q and r are finite and >= 1.
    """
    for name, value in (("p", p), ("q", q), ("r", r)):
        check_exponent(name, value)
    mags_p = field.magnitudes**p
    nodes = field.grid.nodes
    n_paths = mags_p.shape[0]

    def stat(weights):
        moment = np.einsum("m,mst->st", weights, mags_p) / n_paths
        inner = np.trapezoid(moment ** (q / p), nodes, axis=0)
        return float(np.trapezoid(inner ** (r / q), nodes) ** (1.0 / r))

    estimate = stat(np.ones(n_paths))
    se = _bootstrap_se(stat, n_paths, n_boot, seed)
    return NormReport(estimate, se, p=p, q=q, r=r, n_paths=n_paths, n_boot=n_boot)


def _slice_terms(phi, semigroup: SemigroupSpec, grid: TimeGrid, beta: float):
    """Factors of the pair matrices w_j S(j dt) Phi_i of the singular slices, lag j = k - i.

    Returns the weights w_j = (j dt)^(-beta) at index j - 1 (j = 1..N), the lag matrices
    S(j dt) at index j (j = 0..N) and the step matrices Phi_i (i < N).
    """
    n_steps, dt = grid.n_steps, grid.dt
    weights = singular_weights(beta, dt, n_steps)
    nodes = step_matrices(phi, n_steps)
    lag_mats = lag_table(semigroup, dt, n_steps)
    if lag_mats.ndim == 2:  # diagonal rows onto the diagonal of d x d matrices
        lag_mats = np.stack([np.diag(row) for row in lag_mats])
    return weights, lag_mats, nodes


def _singular_slices(weights, lag_mats, nodes, q):
    """The (weighted) HS norms of slices k = 1..N of the singular-kernel family.

    Yields, per k, hs[i] = |(t_k - s_i)^(-beta) S(t_k - s_i) Phi_i Q^(1/2)|_HS over the
    support i < k, from the ``_slice_terms`` factors and the weight eigenvalues q.
    """
    for k in range(1, nodes.shape[0] + 1):
        # node i < k sits at lag k - i; |M Q^(1/2)|_HS^2 = sum_u q_u |M e_u|^2
        mats = weights[k - 1 :: -1, None, None] * (lag_mats[k:0:-1] @ nodes[:k])
        yield np.sqrt(np.einsum("ihu,u->i", mats**2, q))


def singular_kernel_field(
    phi,
    semigroup: SemigroupSpec,
    grid: TimeGrid,
    beta: float,
    weight: SpectralOperator | None = None,
) -> TwoParameterField:
    """Magnitude field of the singular-kernel family for deterministic data.

    Entry (s_i, t_k) is |(t_k - s_i)^(-beta) S(t_k - s_i) Phi_{s_i}| for
    s_i < t_k and 0 otherwise, with |.| the (optionally weighted)
    Hilbert-Schmidt norm.  The returned field has a single path since the
    expectation of a deterministic integrand is trivial.
    """
    n_nodes = grid.n_steps + 1
    terms = _slice_terms(phi, semigroup, grid, beta)
    q = weight_eigenvalues(weight, phi.domain.dim)
    mags = np.zeros((1, n_nodes, n_nodes))
    with np.errstate(over="ignore"):  # an overflow leaves a norm that is not finite
        for k, hs in enumerate(_singular_slices(*terms, q), 1):
            if not np.all(np.isfinite(hs)):
                raise StochConvError(
                    f"singular-kernel field overflows at beta={beta!r} with step dt={grid.dt!r}"
                )
            mags[0, :k, k] = hs
    return TwoParameterField(mags, grid)


def deterministic_lpq_norm(
    phi, grid: TimeGrid, q_exponent: float, weight: SpectralOperator | None = None
) -> float:
    """Left-rule discrete time norm of a deterministic integrand.

    Returns (sum_{i<N} |Phi_{t_i}|^q dt)^(1/q) with the optionally weighted
    Hilbert-Schmidt magnitude; for a deterministic process the inner
    expectation is trivial so the p exponent drops out.
    """
    check_exponent("q", q_exponent)
    if phi.kind == CONSTANT:
        value = hs_norm(phi.constant, weight)
        return value * grid.horizon ** (1.0 / q_exponent)
    q = weight_eigenvalues(weight, phi.domain.dim)
    mats = step_matrices(phi, grid.n_steps)
    hs = np.sqrt(np.einsum("ihu,u->i", mats**2, q))
    return float((np.sum(hs**q_exponent) * grid.dt) ** (1.0 / q_exponent))


def integral_norm_estimate(
    phi, semigroup: SemigroupSpec, noise: NoiseEnsemble, beta: float, q_exponent: float,
    r: float, weight: SpectralOperator | None = None,
) -> float:
    """Empirical norm of the Ito integral operator over the singular slice battery.

    Slice k is the deterministic integrand s -> 1_{s<t_k} (t_k-s)^(-beta) S(t_k-s) Phi_s,
    as in ``singular_kernel_field``.  Returns the largest ratio, over k = 1..N, of the
    L^r path norm of its Ito integral to its L^q time norm (0 if every slice vanishes).

    One pass walks the steps i = 0..N-1 and serves the slices still open (k > i), so
    slice k is integrated only over its support i < k.  Per block of open slices
    (``_parallel.path_blocks`` of dim_H * paths elements per slice) it builds the pair
    matrices w_{k-i} S((k-i) dt) Phi_i with one stacked ``matmul``, multiplies them with
    dW_i in one ``ito.step_products`` call (one gemm per slice, shaped as in a
    slice-by-slice pass), adds the products into the running Ito sums (N, paths, dim_H)
    and keeps each path's largest squared magnitude (N, paths).  Every product, sum and
    reduction is the one a slice-by-slice cumulative sum makes: the bytes are the same.
    """
    check_exponent("q", q_exponent)
    check_exponent("r", r)
    check_compatible(phi, noise)
    grid, inc = noise.grid, noise.increments
    n_paths, n_steps, dim_u = inc.shape
    dim_h = phi.codomain.dim
    weights, lag_mats, nodes = terms = _slice_terms(phi, semigroup, grid, beta)
    hs_row, slice_norms = np.zeros(n_steps), []
    for hs in _singular_slices(*terms, weight_eigenvalues(weight, dim_u)):
        # zero past k, as in the N-step slice: the sum keeps the N-long pairwise order
        hs_row[: hs.size] = hs
        slice_norms.append(float((np.sum(hs_row**q_exponent) * grid.dt) ** (1.0 / q_exponent)))
    if not any(slice_norms):
        return 0.0
    sums = np.zeros((n_steps, n_paths, dim_h))  # row k - 1: the Ito sum of slice k
    best = np.zeros((n_steps, n_paths))  # row k - 1: its largest squared magnitude so far
    _, block = path_blocks(n_steps, n_paths * dim_h)[0]
    prods, square = np.empty((block, n_paths, dim_h)), np.empty((block, n_paths))
    for i in range(n_steps):
        for lo, hi in path_blocks(n_steps - i, n_paths * dim_h):  # lags lo + 1 .. hi
            pairs = weights[lo:hi, None, None] * (lag_mats[lo + 1 : hi + 1] @ nodes[i])
            prod, sq = prods[: hi - lo], square[: hi - lo]
            step_products(pairs, inc[:, i : i + 1], out=prod.swapaxes(0, 1))
            run, top = sums[i + lo : i + hi], best[i + lo : i + hi]
            run += prod
            # the sum of ``ito.node_magnitudes``: np.sum adds fewer than 8 terms left to
            # right, as these column adds do at less cost per row, and 8 or more pairwise
            if dim_h < 8:
                np.square(run[..., 0], out=sq)
                for h in range(1, dim_h):
                    sq += run[..., h] ** 2
            else:
                np.sum(run**2, axis=-1, out=sq)
            np.maximum(top, sq, out=top)
    estimate = 0.0
    for slice_norm, top in zip(slice_norms, best):
        if slice_norm != 0.0:
            # sqrt is monotone: the sqrt of the largest square is the largest magnitude
            moment = float(np.mean(np.sqrt(top) ** r))
            estimate = max(estimate, moment ** (1.0 / r) / slice_norm)
    return estimate
