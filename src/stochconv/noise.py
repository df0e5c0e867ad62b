"""Q-Wiener increment sampling on uniform grids with counter-based seeding.

Every increment is a pure function of ``(master_seed, path, step, mode)``:
seed, path, step and mode are absorbed in that order into a 64-bit state with
a splitmix64-style avalanche (xor-shift/multiply finalizer), each at the
broadcast shape of those before it.  Two salted output words branch off last,
map to 53-bit uniforms, and a Box-Muller cosine transform turns them into one
standard normal.  Blocks are generated in cache-sized tiles of a few paths.
Regeneration is byte-identical across runs, tiles, chunks and thread counts.
The transform uses u1 in (0, 1], so the sampled tail is capped at
sqrt(-2 log 2^-53), about 8.6 standard deviations.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from ._parallel import run_over_paths
from .errors import DimensionMismatchError, StochConvError
from .hilbert import HilbertSpec

__all__ = [
    "TimeGrid",
    "QWienerSpec",
    "NoiseEnsemble",
    "sample_increments",
    "wiener_values",
    "coarsen_increments",
    "save_increments",
    "load_increments",
]

_GOLD = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SH30, _SH27, _SH31, _SH11 = (np.uint64(k) for k in (30, 27, 31, 11))

_DUMP_MAGIC = b"QWIENER1"
_TILE_ELEMENTS = 65536  # per generation tile, as convolution._BLOCK_ELEMENTS


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_N = T."""

    horizon: float
    n_steps: int

    def __post_init__(self):
        if self.horizon <= 0.0:
            raise StochConvError(f"horizon must be positive, got {self.horizon}")
        if self.n_steps < 1:
            raise StochConvError(f"need at least one step, got {self.n_steps}")

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
        q = np.array(self.q_eigenvalues, dtype=np.float64)
        q.setflags(write=False)
        object.__setattr__(self, "q_eigenvalues", q)
        if q.shape != (self.space.dim,):
            raise DimensionMismatchError(
                "one covariance eigenvalue per mode required",
                expected=(self.space.dim,),
                got=q.shape,
            )
        if np.any(q < 0.0) or not np.all(np.isfinite(q)):
            raise StochConvError("covariance eigenvalues must be finite and nonnegative")


@dataclass(frozen=True)
class NoiseEnsemble:
    """Sampled increments, shape (paths, steps, modes), immutable."""

    increments: np.ndarray
    master_seed: int
    grid: TimeGrid
    spec: QWienerSpec

    def __post_init__(self):
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
      workers: worker threads; the output does not depend on this.

    Returns:
      ``NoiseEnsemble`` with increments of shape (n_paths, N, dim).
    """
    if not isinstance(master_seed, (int, np.integer)) or not 0 <= master_seed < 2**64:
        raise StochConvError(f"master_seed must be an integer in [0, 2**64), got {master_seed!r}")
    if not isinstance(n_paths, (int, np.integer)) or n_paths < 1:
        raise StochConvError(f"n_paths must be a positive integer, got {n_paths!r}")
    n_steps, dim = grid.n_steps, spec.space.dim
    scale = np.sqrt(spec.q_eigenvalues * grid.dt)
    out = np.empty((n_paths, n_steps, dim))
    step_ix = np.arange(n_steps, dtype=np.uint64)[None, :, None]
    mode_ix = np.arange(dim, dtype=np.uint64)[None, None, :]
    tile = max(1, _TILE_ELEMENTS // (n_steps * dim))

    def fill(start, stop):
        for lo in range(start, stop, tile):
            hi = min(lo + tile, stop)
            path_ix = np.arange(lo, hi, dtype=np.uint64)[:, None, None]
            z = standard_gaussians(master_seed, path_ix, step_ix, mode_ix)
            np.multiply(z, scale, out=out[lo:hi])

    run_over_paths(fill, n_paths, workers=workers)
    return NoiseEnsemble(out, master_seed, grid, spec)


def wiener_values(ensemble: NoiseEnsemble, path: int) -> np.ndarray:
    """Cumulative noise path at the grid nodes, starting at 0.

    Returns an array of shape (N + 1, dim).
    """
    if not 0 <= path < ensemble.n_paths:
        raise StochConvError(f"path index {path} out of range [0, {ensemble.n_paths})")
    return prefix_sums(ensemble.increments[path : path + 1])[0]


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
    if not isinstance(factor, (int, np.integer)) or factor < 1 or n_steps % factor != 0:
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


def save_increments(ensemble: NoiseEnsemble, file) -> None:
    """Write increments as magic + (paths, steps, modes) header + raw float64.

    All fields are little-endian; the array is written in C order.
    """
    own = isinstance(file, (str, bytes))
    fh = open(file, "wb") if own else file
    try:
        fh.write(_DUMP_MAGIC)
        dims = np.array(ensemble.increments.shape, dtype="<u8")
        fh.write(dims.tobytes())
        fh.write(np.ascontiguousarray(ensemble.increments, dtype="<f8").tobytes())
    finally:
        if own:
            fh.close()


def load_increments(file) -> np.ndarray:
    """Read back an increment array written by ``save_increments``.

    ``file`` is a path or a seekable binary file.  The header's dims are checked
    against the bytes that remain before the payload is read.
    """
    own = isinstance(file, (str, bytes))
    fh = open(file, "rb") if own else file
    try:
        magic = fh.read(len(_DUMP_MAGIC))
        if magic != _DUMP_MAGIC:
            raise StochConvError(f"bad magic {magic!r} in increment dump")
        header = fh.read(24)
        if len(header) != 24:
            raise StochConvError("truncated increment dump header")
        shape = tuple(int(d) for d in np.frombuffer(header, dtype="<u8"))
        n_bytes = 8 * math.prod(shape)  # Python ints: no uint64 wrap-around
        start = fh.tell()
        remaining = fh.seek(0, io.SEEK_END) - start
        fh.seek(start)
        if n_bytes == 0 or n_bytes > remaining:
            raise StochConvError(
                f"increment dump header {shape} needs {n_bytes} bytes, {remaining} remain"
            )
        data = np.frombuffer(fh.read(n_bytes), dtype="<f8")
        return data.reshape(shape).copy()
    finally:
        if own:
            fh.close()
