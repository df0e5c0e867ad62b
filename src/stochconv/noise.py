"""Q-Wiener increment sampling on uniform grids with counter-based seeding.

Every increment is a pure function of ``(master_seed, path, step, mode)``:
seed, path, step and mode are absorbed in that order into a 64-bit state with
a splitmix64-style avalanche (xor-shift/multiply finalizer), each at the
broadcast shape of those before it.  Two salted output words branch off last,
map to 53-bit uniforms, and a Box-Muller cosine transform turns them into one
standard normal.  Every draw is elementwise, so the layout of a call does not
move a bit.  ``increment_rows`` is the one sampler: it draws a range of
steps, path-major, with one call per ``_parallel`` path block (about 64k
elements, so the hashing stays in cache), for a recursion that walks the steps
in blocks.  Each block is hashed in a workspace that its thread keeps from
block to block and draws straight into its slice of the output.
``sample_increments`` draws all the steps at once as a ``NoiseEnsemble`` and
drops the workspace.  Regeneration is byte-identical across runs, path and
step blocks and thread counts.
The transform uses u1 in (0, 1], so the sampled tail is capped at
sqrt(-2 log 2^-53), about 8.6 standard deviations.
"""

from __future__ import annotations

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


def standard_gaussians(seed: int, path_ix, step_ix, mode_ix, out=None) -> np.ndarray:
    """One N(0,1) draw per broadcasted (path, step, mode) counter.

    ``out``, if given, is a C-contiguous float64 array of the broadcast shape
    and receives the draws.  The hashing runs in the calling thread's workspace.
    """
    shape = np.broadcast_shapes(np.shape(path_ix), np.shape(step_ix), np.shape(mode_ix))
    held = getattr(_step_draws, "workspace", None)
    if held is None or held.shape[1] < math.prod(shape):
        held = _step_draws.workspace = np.empty((2, math.prod(shape)), dtype=np.uint64)
    with np.errstate(over="ignore"):
        # seed, path, step, mode: each absorbed at the broadcast shape of those
        # before it, from one workspace row into the other, the first as scratch
        state = np.full((1,), np.uint64(seed) + _GOLD, dtype=np.uint64)
        for k, index in enumerate((path_ix, step_ix, mode_ix)):
            at = np.broadcast_shapes(state.shape, np.shape(index))
            n = math.prod(at)
            target, scratch = held[k % 2, :n].reshape(at), held[1 - k % 2, :n].reshape(at)
            state = np.add(state, np.asarray(index, dtype=np.uint64) * _GOLD, out=target)
            _mix64(state, scratch)
        if out is None:
            out = np.empty(state.shape)
        u1 = out.reshape(state.shape)
        # the salt is absorbed last: salt 1 adds _GOLD, salt 0 adds nothing
        word0 = state
        word1 = np.add(word0, _GOLD, out=scratch)
        _mix64(word1, u1.view(np.uint64))  # ``out`` is scratch until u1 is written
        _mix64(word0, u1.view(np.uint64))
    # every shifted word is below 2**53, so its float64 is exact
    np.right_shift(word0, _SH11, out=word0)
    np.add(word0.view(np.int64), 1.0, out=u1)
    u1 *= 2.0**-53
    np.right_shift(word1, _SH11, out=word1)
    u2 = np.multiply(word1.view(np.int64), 2.0**-53, out=word0.view(np.float64))
    np.log(u1, out=u1)
    u1 *= -2.0
    np.sqrt(u1, out=u1)
    u2 *= 2.0 * np.pi
    np.cos(u2, out=u2)
    u1 *= u2
    return out.reshape(shape)


# ``increment_rows`` runs once per step block of a recursion, so each thread
# keeps its sampler workspace, the two uint64 rows ``standard_gaussians``
# hashes in, from block to block and from call to call, and grows it only for
# a larger block: with every block temporary freed, glibc malloc trims the heap
# top after each block and page-faults it back in.  ``sample_increments`` drops
# the calling thread's workspace, since a whole ensemble has no next block.
_step_draws = threading.local()


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
    increments = increment_rows(spec, grid, master_seed, n_paths, 0, grid.n_steps, workers)
    _step_draws.workspace = None  # a whole ensemble has no next block to draw
    return NoiseEnsemble(increments, master_seed, grid, spec)


def increment_rows(
    spec: QWienerSpec,
    grid: TimeGrid,
    master_seed: int,
    n_paths: int,
    start: int,
    stop: int,
    workers: int = 1,
) -> np.ndarray:
    """The increments of the steps start <= k < stop, path-major.

    Entry (m, j, k) of the result, shape (n_paths, stop - start, dim), is the
    draw of counter (master_seed, m, start + j, k) times sqrt(q_k dt), so every
    step range is bitwise that range of the whole ensemble, with no array of
    all the steps.  One ``standard_gaussians`` call per ``_parallel`` path
    block of stop - start steps, written into and scaled in the result;
    ``workers`` as in ``sample_increments``.
    """
    if not is_integer(master_seed) or not 0 <= master_seed < 2**64:
        raise StochConvError(f"master_seed must be an integer in [0, 2**64), got {master_seed!r}")
    if not is_integer(n_paths) or n_paths < 1:
        raise StochConvError(f"n_paths must be a positive integer, got {n_paths!r}")
    if not is_integer(workers) or workers < 1:
        raise StochConvError(f"workers must be a positive integer, got {workers!r}")
    if not (is_integer(start) and is_integer(stop) and 0 <= start < stop <= grid.n_steps):
        raise StochConvError(
            f"steps must satisfy 0 <= start < stop <= {grid.n_steps}, got {start!r}, {stop!r}"
        )
    dim = spec.space.dim
    scale = np.sqrt(spec.q_eigenvalues * grid.dt)
    out = np.empty((n_paths, stop - start, dim))
    step_ix = np.arange(start, stop, dtype=np.uint64)[None, :, None]
    mode_ix = np.arange(dim, dtype=np.uint64)[None, None, :]

    def fill(first, last):
        path_ix = np.arange(first, last, dtype=np.uint64)[:, None, None]
        block = out[first:last]
        standard_gaussians(master_seed, path_ix, step_ix, mode_ix, out=block)
        block *= scale

    run_over_paths(fill, n_paths, (stop - start) * dim, workers=workers)
    return out


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
