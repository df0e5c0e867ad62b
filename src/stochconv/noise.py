"""Q-Wiener increment sampling on uniform grids with counter-based seeding.

Every increment is a pure function of ``(master_seed, path, step, mode)``:
seed, path, step and mode are absorbed in that order into a 64-bit state with
a splitmix64-style avalanche (xor-shift/multiply finalizer), each at the
broadcast shape of those before it.  Two salted output words branch off last,
map to 53-bit uniforms, and a Box-Muller cosine transform turns them into one
standard normal.  Every draw is elementwise, so the layout of a call does not
move a bit.  ``sample_increments`` builds a whole ensemble, path-major, with
one call per ``_parallel`` path block (about 64k elements, so the hashing
temporaries stay in cache).  ``increment_rows`` draws the same counters for a
range of steps, time-major, for a recursion that walks the steps in blocks.
Regeneration is byte-identical across runs, path and step blocks and thread
counts.
The transform uses u1 in (0, 1], so the sampled tail is capped at
sqrt(-2 log 2^-53), about 8.6 standard deviations.
"""

from __future__ import annotations

import contextlib
import math
import threading
from dataclasses import dataclass

import numpy as np

from ._parallel import run_over_paths
from .errors import DimensionMismatchError, StochConvError, frozen_array, is_integer, is_real
from .hilbert import HilbertSpec

__all__ = [
    "TimeGrid",
    "QWienerSpec",
    "NoiseEnsemble",
    "sample_increments",
    "increment_rows",
    "coarsen_increments",
]

_GOLD = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SH30, _SH27, _SH31, _SH11 = (np.uint64(k) for k in (30, 27, 31, 11))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_N = T."""

    horizon: float
    n_steps: int

    def __post_init__(self):
        if not (is_real(self.horizon) and 0.0 < self.horizon < math.inf):  # NaN fails too
            raise StochConvError(f"horizon must be a positive finite number, got {self.horizon!r}")
        if not is_integer(self.n_steps) or self.n_steps < 1:
            raise StochConvError(f"n_steps must be an integer >= 1, got {self.n_steps!r}")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def nodes(self) -> np.ndarray:
        # linspace keeps the endpoints exactly 0 and horizon
        return np.linspace(0.0, self.horizon, self.n_steps + 1)


@dataclass(frozen=True)
class QWienerSpec:
    """Trace-class covariance: one nonnegative variance weight per mode."""

    space: HilbertSpec
    q_eigenvalues: np.ndarray

    def __post_init__(self):
        q = frozen_array(self.q_eigenvalues, "covariance eigenvalues", nonnegative=True)
        object.__setattr__(self, "q_eigenvalues", q)
        if q.shape != (self.space.dim,):
            raise DimensionMismatchError(
                "one covariance eigenvalue per mode required",
                expected=(self.space.dim,),
                got=q.shape,
            )


@dataclass(frozen=True)
class NoiseEnsemble:
    """Sampled increments, shape (paths, steps, modes), immutable."""

    increments: np.ndarray
    master_seed: int
    grid: TimeGrid
    spec: QWienerSpec

    def __post_init__(self):
        # a frozen view with no value pass: sampling and coarsening give finite values
        inc = np.asarray(self.increments, dtype=np.float64)
        inc.setflags(write=False)
        object.__setattr__(self, "increments", inc)
        expected = (inc.shape[0], self.grid.n_steps, self.spec.space.dim)
        if inc.shape != expected:
            raise DimensionMismatchError(
                "increment array shape mismatch", expected=expected, got=inc.shape
            )

    @property
    def n_paths(self) -> int:
        return self.increments.shape[0]


def _mix64(state: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    np.right_shift(state, _SH30, out=scratch)
    state ^= scratch
    state *= _MIX1
    np.right_shift(state, _SH27, out=scratch)
    state ^= scratch
    state *= _MIX2
    np.right_shift(state, _SH31, out=scratch)
    state ^= scratch
    return state


def standard_gaussians(seed: int, path_ix, step_ix, mode_ix) -> np.ndarray:
    """One N(0,1) draw per broadcasted (path, step, mode) counter."""
    shape = np.broadcast_shapes(np.shape(path_ix), np.shape(step_ix), np.shape(mode_ix))
    with np.errstate(over="ignore"):
        # seed, path, step, mode: each absorbed at the broadcast shape of those before it
        state = np.full((1,), np.uint64(seed) + _GOLD, dtype=np.uint64)
        for index in (path_ix, step_ix, mode_ix):
            state = state + np.asarray(index, dtype=np.uint64) * _GOLD
            scratch = np.empty_like(state)
            _mix64(state, scratch)
        # the salt is absorbed last: salt 0 adds nothing, salt 1 adds _GOLD
        word0 = _mix64(state.copy(), scratch)
        state += _GOLD
        word1 = _mix64(state, scratch)
    u1 = np.right_shift(word0, _SH11, out=word0).astype(np.float64)
    u1 += 1.0
    u1 *= 2.0**-53
    u2 = np.right_shift(word1, _SH11, out=word1).astype(np.float64)
    u2 *= 2.0**-53
    np.log(u1, out=u1)
    u1 *= -2.0
    np.sqrt(u1, out=u1)
    u2 *= 2.0 * np.pi
    np.cos(u2, out=u2)
    u1 *= u2
    return u1.reshape(shape)


def sample_increments(
    spec: QWienerSpec,
    grid: TimeGrid,
    master_seed: int,
    n_paths: int,
    workers: int = 1,
) -> NoiseEnsemble:
    """Sample a full increment ensemble.

    Args:
      spec: covariance description of the driving noise.
      grid: uniform time grid; increment (m, i, k) has variance q_k * dt.
      master_seed: 64-bit seed keying the whole ensemble.
      n_paths: number of independent paths, >= 1.
      workers: worker threads, >= 1; the output does not depend on this.

    Returns:
      ``NoiseEnsemble`` with increments of shape (n_paths, N, dim).
    """
    _check_sampling(master_seed, n_paths, workers)
    n_steps, dim = grid.n_steps, spec.space.dim
    scale = np.sqrt(spec.q_eigenvalues * grid.dt)
    out = np.empty((n_paths, n_steps, dim))
    step_ix = np.arange(n_steps, dtype=np.uint64)[None, :, None]
    mode_ix = np.arange(dim, dtype=np.uint64)[None, None, :]

    # Each thread keeps its last block's draws until it has drawn the next block:
    # with every block temporary freed, glibc malloc trims the heap top after each
    # block and page-faults it back in (about +25% sampling time at N*d = 25,600).
    held = threading.local()

    def fill(start, stop):
        path_ix = np.arange(start, stop, dtype=np.uint64)[:, None, None]
        held.draws = standard_gaussians(master_seed, path_ix, step_ix, mode_ix)
        np.multiply(held.draws, scale, out=out[start:stop])

    run_over_paths(fill, n_paths, n_steps * dim, workers=workers)
    return NoiseEnsemble(out, master_seed, grid, spec)


# ``increment_rows`` runs once per step block, so the heap trim that
# ``sample_increments`` avoids within one call would happen between calls: each
# thread holds its last step draws until its next call.  Freeing them gave the
# heat-spde benchmark workload 4.3x the page faults and 29% more wall time.
_step_draws = threading.local()


def increment_rows(
    spec: QWienerSpec,
    grid: TimeGrid,
    master_seed: int,
    n_paths: int,
    start: int,
    stop: int,
    workers: int = 1,
) -> np.ndarray:
    """The increments of the steps start <= k < stop, time-major.

    Row j holds step start + j of every path: the result, shape
    (stop - start, n_paths, dim), is bitwise
    ``sample_increments(...).increments[:, start:stop].swapaxes(0, 1)``, with no
    array of all the steps.  One ``standard_gaussians`` call per ``_parallel``
    path block of stop - start steps; ``workers`` as in ``sample_increments``.
    """
    _check_sampling(master_seed, n_paths, workers)
    if not (is_integer(start) and is_integer(stop) and 0 <= start < stop <= grid.n_steps):
        raise StochConvError(
            f"steps must satisfy 0 <= start < stop <= {grid.n_steps}, got {start!r}, {stop!r}"
        )
    dim = spec.space.dim
    scale = np.sqrt(spec.q_eigenvalues * grid.dt)
    out = np.empty((stop - start, n_paths, dim))
    step_ix = np.arange(start, stop, dtype=np.uint64)[:, None, None]
    mode_ix = np.arange(dim, dtype=np.uint64)[None, None, :]

    def fill(first, last):
        path_ix = np.arange(first, last, dtype=np.uint64)[None, :, None]
        _step_draws.last = standard_gaussians(master_seed, path_ix, step_ix, mode_ix)
        np.multiply(_step_draws.last, scale, out=out[:, first:last])

    run_over_paths(fill, n_paths, (stop - start) * dim, workers=workers)
    return out


def _check_sampling(master_seed, n_paths, workers) -> None:
    """The argument checks shared by the two samplers."""
    if not is_integer(master_seed) or not 0 <= master_seed < 2**64:
        raise StochConvError(f"master_seed must be an integer in [0, 2**64), got {master_seed!r}")
    if not is_integer(n_paths) or n_paths < 1:
        raise StochConvError(f"n_paths must be a positive integer, got {n_paths!r}")
    if not is_integer(workers) or workers < 1:
        raise StochConvError(f"workers must be a positive integer, got {workers!r}")


def prefix_sums(steps: np.ndarray) -> np.ndarray:
    """Node values 0, y_0, y_0 + y_1, ... of per-step values y (paths, N, dim)."""
    values = np.zeros((steps.shape[0], steps.shape[1] + 1, steps.shape[2]))
    np.cumsum(steps, axis=1, out=values[:, 1:, :])
    return values


def coarsen_increments(ensemble: NoiseEnsemble, factor: int) -> NoiseEnsemble:
    """Exactly aggregate consecutive fine increments onto a coarser grid.

    The coarse ensemble drives the same underlying noise paths, which makes
    discrepancies across grid resolutions directly comparable.
    """
    n_steps = ensemble.grid.n_steps
    if not is_integer(factor) or factor < 1 or n_steps % factor != 0:
        raise StochConvError(
            f"coarsening factor {factor!r} must be a positive integer dividing n_steps={n_steps}"
        )
    if factor == 1:
        return ensemble
    coarse_steps = n_steps // factor
    inc = ensemble.increments.reshape(
        ensemble.n_paths, coarse_steps, factor, ensemble.spec.space.dim
    ).sum(axis=2)
    grid = TimeGrid(ensemble.grid.horizon, coarse_steps)
    return NoiseEnsemble(inc, ensemble.master_seed, grid, ensemble.spec)


def open_path_or_file(file, mode: str, **kwargs):
    """``open(file, mode)`` for a path; for a file object, a context that leaves it open."""
    if isinstance(file, (str, bytes)):
        return open(file, mode, **kwargs)
    return contextlib.nullcontext(file)
