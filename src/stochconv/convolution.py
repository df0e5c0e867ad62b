"""Stochastic convolutions: direct, singular-kernel, and factorized forms.

Three pipelines produce grid-sampled convolution paths from the same noise:

* ``direct_convolution``      X(t_k) = sum_{i<k} S(t_k-t_i) Phi_i dW_i
* ``kernel_convolution``      Y(t_k) = sum_{i<k} (t_k-t_i)^(-beta) S(t_k-t_i) Phi_i dW_i
* ``factorization_smoothing`` Z(t_k) = c(beta) sum_{i<k} w_{k-i} S(t_k-t_i) Y(t_i)

where w_j integrates the weight (t_k-s)^(beta-1) exactly over one subinterval
(product integration, exact for piecewise-constant Y) and c(beta) is the
reciprocal of the Beta-type integral of (1-w)^(beta-1) w^(-beta).  The
composition of the last two pipelines approximates the first; the agreement
tightens under grid refinement with common (aggregated) noise.

The singular stochastic kernel is only ever evaluated at lags >= dt: the
left-point rule excludes the i = k term, so no regularization is needed.
Its weights (j dt)^(-beta) come from ``singular_weights`` alone, shared with the
``norms`` slices; ``check_admissible`` is the one test of 1/r < beta < 1, r finite.
S(j dt) comes from ``hilbert.lag_table``, the one place where it is decided
(exp(-rate j dt) for a diagonal semigroup, the j-th power of the direct recursion's
step S(dt) = ``semigroup_eval`` at dt for a dense one).

The direct pipeline walks the time axis in step blocks: ``direct_recursion``
asks for a block's products Phi_k dW_k in a time-major buffer and turns its
contiguous rows into nodes in place.  ``direct_convolution`` fills each
``_parallel.path_blocks`` step block with ``ito.fill_products`` and copies its
nodes out once, so no array of all the products exists.  The variance
experiments drive the same generator on noise drawn block by block
(``noise.increment_rows``).

The kernel and smoothing stages share one causal lag-convolution engine,
``_lag_convolve``: a zero-padded real FFT along the time axis with the table
c_j = R(j dt) of any lag kernel, here w_j S(j dt) from ``kernel_table``, the one
pairing of weights with the lag table (the ``norms`` battery's too), multiplied
mode by mode for a diagonal semigroup and by the d x d kernel matrix at each
frequency for a dense one.  It costs
O(P d N log N) (diagonal) or O(P d^2 N log N) (dense) against the
O(P d N^2) of the lag-by-lag sum, and its rounding error is relative to the
largest values of the input and the kernel, not to each output node.  Paths
are transformed one ``_parallel.path_blocks`` block (FFT length x d) at a time.

``compare`` reduces |a - b| one path block at a time through
``DiscrepancySums``, which the factorize-compare runner also feeds with the
blocks of its factorized side, so neither holds a (P, N + 1) array of
differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._parallel import path_blocks
from .errors import DimensionMismatchError, StochConvError, check_exponent, frozen_array
from .hilbert import SemigroupSpec, apply_operator, lag_table, semigroup_eval
from .ito import (
    IntegrandSpec, PathEnsemble, check_compatible, fill_products, integrand_products,
    node_magnitudes,
)
from .noise import NoiseEnsemble

__all__ = [
    "ConvolutionRequest",
    "DiscrepancyReport",
    "c_beta",
    "beta_integral",
    "singular_weights",
    "check_admissible",
    "direct_convolution",
    "kernel_convolution",
    "factorization_smoothing",
    "factorized_convolution",
    "compare",
    "smoothing_bound_factor",
    "left_lr_norm",
]

@dataclass(frozen=True)
class ConvolutionRequest:
    """Everything needed to convolve one integrand against one noise ensemble."""

    phi: IntegrandSpec
    semigroup: SemigroupSpec
    noise: NoiseEnsemble
    beta: float = 0.5
    r: float = 2.0

    def __post_init__(self):
        if self.phi.codomain.dim != self.semigroup.space.dim:
            raise DimensionMismatchError(
                "integrand codomain must match the semigroup space",
                expected=self.semigroup.space.dim,
                got=self.phi.codomain.dim,
            )
        check_compatible(self.phi, self.noise)
        singular_weights(self.beta, 1.0, 0)  # no lags: only the beta check
        check_exponent("r", self.r, strict=True)


@dataclass(frozen=True)
class DiscrepancyReport:
    """Node-resolved and global discrepancy between two path ensembles.

    A float64 ``per_node_mean_abs`` is kept as a read-only view of the caller's array.
    """

    per_node_mean_abs: np.ndarray
    sup_abs: float
    dt: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        arr = frozen_array(
            self.per_node_mean_abs, "discrepancy statistics", copy=False, nonnegative=True
        )
        object.__setattr__(self, "per_node_mean_abs", arr)
        if not 0.0 <= self.sup_abs < np.inf:  # NaN fails too
            raise StochConvError("discrepancy statistics must be finite and nonnegative")

    @property
    def max_node_mean(self) -> float:
        """Largest per-node ensemble-mean absolute difference."""
        return float(np.max(self.per_node_mean_abs))


@lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    return np.polynomial.legendre.leggauss(n)


def _panel_quadrature(fn, lo: float, hi: float, panels: int = 8, order: int = 32) -> float:
    """Composite Gauss-Legendre quadrature of a smooth integrand."""
    x, w = _gauss_legendre(order)
    edges = np.linspace(lo, hi, panels + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        nodes = 0.5 * (a + b) + half * x
        total += half * float(np.sum(w * fn(nodes)))
    return total


def beta_integral(beta: float) -> float:
    """The defining integral of (1-w)^(beta-1) w^(-beta) over (0, 1).

    Both endpoint singularities are removed by power substitutions before a
    composite Gauss-Legendre rule is applied, giving absolute accuracy well
    below 1e-10 across beta in (0, 1).
    """
    if not 0.0 < beta < 1.0:
        raise StochConvError(f"beta must lie in (0, 1), got {beta}")
    # w = v^(1/(1-beta)) flattens w^(-beta) on (0, 1/2]
    a = 1.0 / (1.0 - beta)
    left = a * _panel_quadrature(
        lambda v: (1.0 - v**a) ** (beta - 1.0), 0.0, 0.5 ** (1.0 - beta)
    )
    # 1 - w = u^(1/beta) flattens (1-w)^(beta-1) on [1/2, 1)
    b = 1.0 / beta
    right = b * _panel_quadrature(
        lambda u: (1.0 - u**b) ** (-beta), 0.0, 0.5**beta
    )
    return left + right


@lru_cache(maxsize=64)
def c_beta(beta: float) -> float:
    """Reciprocal of the Beta-type integral; the factorization constant.

    Memoized: a run asks for the same few betas once per path block, and each
    quadrature costs about 0.1 ms.

    Raises:
      StochConvError: if beta is outside (0, 1).
    """
    return 1.0 / beta_integral(beta)


def singular_weights(beta: float, dt: float, n: int) -> np.ndarray:
    """The kernel weights (j dt)^(-beta), j = 1..n.

    Python's scalar pow: numpy's vectorised pow can differ from it in the last bit.

    Raises:
      StochConvError: unless 0 <= beta < 1, or where a weight overflows.
    """
    if not 0.0 <= beta < 1.0:  # NaN fails too
        raise StochConvError(f"beta must lie in [0, 1), got {beta}")
    try:
        return np.array([(j * dt) ** (-beta) for j in range(1, n + 1)])
    except (OverflowError, ZeroDivisionError):
        raise StochConvError(f"kernel weight dt^(-beta) overflows: beta={beta}, dt={dt}") from None


def check_admissible(beta: float, r: float) -> None:
    """Raise ``StochConvError`` unless 1/r < beta < 1 with a finite r, as factorization needs."""
    if not (0.0 < beta < 1.0 and beta * r > 1.0 and r < np.inf):  # NaN fails too
        raise StochConvError(
            f"factorization requires beta in (1/r, 1) and a finite r, got beta={beta}, r={r}"
        )


def _fft_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length that ``numpy.fft`` transforms fast."""
    while True:
        rest = n
        for prime in (2, 3, 5):
            while rest % prime == 0:
                rest //= prime
        if rest == 1:
            return n
        n += 1


def kernel_table(semigroup: SemigroupSpec, dt: float, weights: np.ndarray) -> np.ndarray:
    """The kernel table c_j = w_j S(j dt), j = 1..N = len(weights), at index j - 1.

    Rows 1..N of a fresh ``hilbert.lag_table``, (N + 1, dim) or (N + 1, dim, dim),
    scaled in place and returned as a view, so no second table is allocated.
    """
    lag = lag_table(semigroup, dt, weights.size)
    kernel = lag[1:]
    kernel *= weights.reshape((-1,) + (1,) * (lag.ndim - 1))
    return kernel


def _lag_convolve(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Causal lag convolution of a node sequence, shape (paths, N + 1, dim).

    Node k carries sum_{j=1..k} c_j x_{k-j}, with c_j = kernel[j - 1] and N = len(kernel);
    only nodes 0..N-1 of x are read, and node 0 is exactly zero.

    The kernel and each path's x_0..x_{N-1} are zero-padded to a length >= 2N, so
    the circular convolution of their real FFTs has no wrap-around onto the nodes read
    back.  The rounding error of a node is bounded relative to the largest magnitudes
    of x and of the kernel, not to the node itself: a node much smaller than the array
    maximum can carry a large relative error.  Each path is transformed on its own, so
    its output does not depend on which paths share its block.
    """
    n_lags = kernel.shape[0]
    size = _fft_length(2 * n_lags)
    spectrum = np.fft.rfft(kernel, size, axis=0)  # (F, dim) diagonal, (F, dim, dim) dense
    n_paths, _, dim = x.shape
    values = np.zeros((n_paths, n_lags + 1, dim))
    for start, stop in path_blocks(n_paths, size * dim):
        signal = np.fft.rfft(x[start:stop, :n_lags], size, axis=1)
        if spectrum.ndim == 2:
            product = signal * spectrum
        else:
            # product[p, f, h] = sum_e spectrum[f, h, e] signal[p, f, e], in a fixed order
            product = signal[:, :, :1] * spectrum[:, :, 0]
            for e in range(1, dim):
                product += signal[:, :, e : e + 1] * spectrum[:, :, e]
        values[start:stop, 1:] = np.fft.irfft(product, size, axis=1)[:, :n_lags]
    return values


def direct_recursion(step, n_paths: int, dim_h: int, blocks, fill):
    """Run X_{k+1} = S(dt) (X_k + Phi_k dW_k) from X_0 = 0 over step blocks.

    ``step`` is S(dt) and ``blocks`` the (start, stop) step ranges in order.
    ``fill(start, stop, out)`` writes the products Phi_k dW_k of the steps
    start <= k < stop into ``out``, a time-major (stop - start, paths, dim_H)
    buffer.  Yields ``(start, stop, rows)`` with rows[j] = X_{start+j+1}; the
    buffer is reused by the next block, so read it before asking for that one.
    Each row is updated in place, one ``apply_operator`` on contiguous
    (paths, dim_H) rows per step.
    """
    rows = np.empty((blocks[0][1] - blocks[0][0], n_paths, dim_h))
    state = np.zeros((n_paths, dim_h))  # X at the block's first node
    for start, stop in blocks:
        n = stop - start
        fill(start, stop, rows[:n])
        for j in range(n):  # row j: Phi_k dW_k, then X_k + Phi_k dW_k, then X_{k+1}
            np.add(state, rows[j], out=rows[j])
            state = apply_operator(step, rows[j], out=rows[j])
        yield start, stop, rows[:n]
        state = rows[n - 1].copy()


def direct_convolution(req: ConvolutionRequest) -> PathEnsemble:
    """Euler-Ito stochastic convolution evaluated at every grid node.

    Node t_k carries sum_{i<k} S(t_k - t_i) Phi_{t_i} dW_i, computed by the
    exact one-step recursion X_{k+1} = S(dt) (X_k + Phi_k dW_k) of
    ``direct_recursion``.  Its step blocks are ``_parallel.path_blocks`` of
    P * dim_H values per step, ``ito.fill_products`` writes their products, and
    one transposing copy per block writes the block's nodes, so no array of all
    the products exists.  The bytes are those of the products-first recursion
    (``integrand_products``, then one ``apply_operator`` per step).

    Returns:
      ``PathEnsemble`` with zero value at t_0.
    """
    phi, inc = req.phi, req.noise.increments
    n_paths, n_steps, _ = inc.shape
    dim_h = phi.codomain.dim
    step = semigroup_eval(req.semigroup, req.noise.grid.dt)
    values = np.zeros((n_paths, n_steps + 1, dim_h))

    def fill(start, stop, out):
        fill_products(phi, inc, start, stop, out.swapaxes(0, 1))

    blocks = path_blocks(n_steps, n_paths * dim_h)
    for start, stop, rows in direct_recursion(step, n_paths, dim_h, blocks, fill):
        values[:, start + 1 : stop + 1] = rows.swapaxes(0, 1)
    return PathEnsemble(values, req.noise.grid)


def kernel_convolution(req: ConvolutionRequest) -> PathEnsemble:
    """Stochastic convolution against the singular kernel (lag)^(-beta).

    Node t_k carries sum_{i<k} (t_k-t_i)^(-beta) S(t_k-t_i) Phi_{t_i} dW_i;
    beta = 0 reproduces ``direct_convolution`` up to float reassociation.
    """
    products = integrand_products(req.phi, req.noise)
    dt = req.noise.grid.dt
    kernel = kernel_table(req.semigroup, dt, singular_weights(req.beta, dt, products.shape[1]))
    return PathEnsemble(_lag_convolve(products, kernel), req.noise.grid)


def factorization_smoothing(
    y: PathEnsemble, semigroup: SemigroupSpec, beta: float, r: float
) -> PathEnsemble:
    """Fractional deterministic smoothing of a grid path ensemble.

    Node t_k carries c(beta) * sum_{i<k} w_{k-i} S(t_k-t_i) Y(t_i) with the
    singular weight integrated exactly over each subinterval:
    w_j = ((j dt)^beta - ((j-1) dt)^beta) / beta.

    Raises:
      StochConvError: unless 1/r < beta < 1 with a finite r.
    """
    check_admissible(beta, r)
    dt = y.grid.dt
    edges = (np.arange(y.grid.n_steps + 1) * dt) ** beta
    weights = c_beta(beta) * (edges[1:] - edges[:-1]) / beta
    return PathEnsemble(_lag_convolve(y.values, kernel_table(semigroup, dt, weights)), y.grid)


def factorized_convolution(req: ConvolutionRequest) -> PathEnsemble:
    """Two-stage convolution: singular kernel first, then smoothing.

    Raises:
      StochConvError: unless 1/r < beta < 1.
    """
    check_admissible(req.beta, req.r)
    rough = kernel_convolution(req)
    return factorization_smoothing(rough, req.semigroup, req.beta, req.r)


class DiscrepancySums:
    """Per-node sums and the sup of |a - b| over paths, added one path block at a time.

    ``add`` takes the values of the next consecutive paths of both ensembles,
    shape (paths, N + 1, dim), writes their |a - b| rows after a carried row
    of per-node sums and reduces [carry; block] with one ``np.add.reduce``.
    numpy reduces axis 0 of an array of two or more columns row by row, and
    there are N + 1 >= 2, so the per-node means are bitwise ``np.mean`` of
    all the rows at once, whatever the blocks.  The sup is a running max.
    """

    def __init__(self, grid):
        self.grid = grid
        self.n_paths = 0
        self.sup_abs = 0.0
        self._rows = np.zeros((1, grid.n_steps + 1))  # row 0: the carried sums

    def add(self, a: np.ndarray, b: np.ndarray) -> None:
        n = a.shape[0]
        if self._rows.shape[0] <= n:
            rows = np.empty((n + 1, self._rows.shape[1]))
            rows[0] = self._rows[0]
            self._rows = rows
        block = self._rows[1 : n + 1]
        # not node_magnitudes: inline, numpy squares the temporary difference in place
        np.sum((a - b) ** 2, axis=-1, out=block)
        np.sqrt(block, out=block)
        self.sup_abs = float(np.maximum(self.sup_abs, np.max(block)))  # NaN propagates
        self._rows[0] = np.add.reduce(self._rows[: n + 1], axis=0)
        self.n_paths += n

    def report(self, meta: dict) -> DiscrepancyReport:
        return DiscrepancyReport(
            per_node_mean_abs=self._rows[0] / self.n_paths,
            sup_abs=self.sup_abs,
            dt=self.grid.dt,
            meta={"n_paths": self.n_paths, **meta},
        )


def compare(a: PathEnsemble, b: PathEnsemble, meta: dict | None = None) -> DiscrepancyReport:
    """Node-resolved discrepancy statistics between two ensembles.

    The paths are compared one ``_parallel.path_blocks`` block at a time
    (``DiscrepancySums``), so no temporary is larger than a block.

    Raises:
      DimensionMismatchError: mismatched shapes or grids.
    """
    if a.values.shape != b.values.shape or a.grid != b.grid:
        raise DimensionMismatchError(
            "ensembles must share grid, path count and dimension",
            expected=a.values.shape,
            got=b.values.shape,
        )
    sums = DiscrepancySums(a.grid)
    for start, stop in path_blocks(a.n_paths, a.values.shape[1] * a.dim):
        sums.add(a.values[start:stop], b.values[start:stop])
    return sums.report({"dim": a.dim, **(meta or {})})


def smoothing_bound_factor(beta: float, r: float, horizon: float) -> float:
    """Time factor of the pathwise smoothing bound.

    Equals (integral_0^T w^((beta-1) r / (r-1)) dw)^((r-1)/r), finite exactly
    when beta > 1/r.
    """
    check_admissible(beta, r)
    expo = (beta - 1.0) * r / (r - 1.0)
    integral = horizon ** (expo + 1.0) / (expo + 1.0)
    return integral ** ((r - 1.0) / r)


def left_lr_norm(ensemble: PathEnsemble, r: float) -> np.ndarray:
    """Per-path discrete L^r time norm using the left-point rule.

    Returns (sum_{i<N} |Y(t_i)|^r dt)^(1/r) for every path.
    """
    check_exponent("r", r)
    mags = node_magnitudes(ensemble.values[:, :-1, :])
    return (np.sum(mags**r, axis=1) * ensemble.grid.dt) ** (1.0 / r)
