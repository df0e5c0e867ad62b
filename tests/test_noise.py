import hashlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochconv import (
    HilbertSpec,
    QWienerSpec,
    StochConvError,
    TimeGrid,
    coarsen_increments,
    sample_increments,
)
from stochconv import _parallel, noise
from stochconv.noise import increment_rows, standard_gaussians

from conftest import wiener_values

_U64 = st.integers(0, 2**64 - 1)


def _spec(dim, q=None):
    space = HilbertSpec(dim)
    return QWienerSpec(space, [1.0] * dim if q is None else q)


def test_zero_covariance_gives_exact_zeros():
    ens = sample_increments(_spec(3, [0.0, 0.0, 0.0]), TimeGrid(1.0, 50), 1, 20)
    assert np.all(ens.increments == 0.0)


def test_regeneration_is_byte_identical():
    a = sample_increments(_spec(2), TimeGrid(1.0, 64), 99, 30)
    b = sample_increments(_spec(2), TimeGrid(1.0, 64), 99, 30)
    assert a.increments.tobytes() == b.increments.tobytes()


def test_workers_do_not_change_output():
    base = sample_increments(_spec(2), TimeGrid(1.0, 100), 7, 600, workers=1)
    for workers in (2, 4, 8):
        other = sample_increments(_spec(2), TimeGrid(1.0, 100), 7, 600, workers=workers)
        assert base.increments.tobytes() == other.increments.tobytes()


def test_worker_threads_are_capped_at_the_block_count(monkeypatch):
    # a huge worker count is checked arithmetically: the stub starts no thread
    requested = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    monkeypatch.setattr(_parallel, "ThreadPoolExecutor", RecordingExecutor)
    seen = []
    # 256 elements per path: blocks of 256 paths
    path_elements = _parallel.BLOCK_ELEMENTS // 256
    _parallel.run_over_paths(
        lambda start, stop: seen.append((start, stop)), 600, path_elements, workers=10**6
    )
    assert requested == [3]
    assert seen == _parallel.path_blocks(600, path_elements)
    _parallel.run_over_paths(lambda start, stop: None, 600, path_elements, workers=2)
    assert requested == [3, 2]


def test_increments_are_pointwise_regenerable():
    ens = sample_increments(_spec(2), TimeGrid(2.0, 16), 1234, 8)
    scale = np.sqrt(ens.spec.q_eigenvalues * ens.grid.dt)
    z = standard_gaussians(1234, 3, 5, 1)
    assert float(z * scale[1]) == ens.increments[3, 5, 1]


def test_different_seeds_differ():
    a = sample_increments(_spec(1), TimeGrid(1.0, 32), 1, 10)
    b = sample_increments(_spec(1), TimeGrid(1.0, 32), 2, 10)
    assert not np.array_equal(a.increments, b.increments)


def test_single_increment_variance_monte_carlo():
    # 1e5 samples of one increment with q*dt = 0.01
    ens = sample_increments(_spec(1), TimeGrid(0.01, 1), 2718, 100_000)
    samples = ens.increments[:, 0, 0]
    var = np.var(samples, ddof=1)
    se = var * np.sqrt(2.0 / (samples.size - 1))
    assert abs(var - 0.01) <= 4.0 * se


def test_wiener_values_start_at_zero_and_telescope():
    ens = sample_increments(_spec(2), TimeGrid(1.0, 10), 5, 3)
    w = wiener_values(ens, 1)
    assert np.all(w[0] == 0.0)
    assert np.array_equal(w[1], ens.increments[1, 0])
    assert w[-1] == pytest.approx(np.sum(ens.increments[1], axis=0), rel=1e-12)


def test_wiener_terminal_variance_and_cross_covariance():
    q = [1.0, 0.25]
    ens = sample_increments(_spec(2, q), TimeGrid(1.0, 50), 31415, 10_000)
    finals = np.cumsum(ens.increments, axis=1)[:, -1, :]
    n = finals.shape[0]
    for k, qk in enumerate(q):
        var = np.var(finals[:, k], ddof=1)
        se = var * np.sqrt(2.0 / (n - 1))
        assert abs(var - qk * 1.0) <= 4.0 * se
    cov = np.mean(finals[:, 0] * finals[:, 1])
    se_cov = np.std(finals[:, 0] * finals[:, 1], ddof=1) / np.sqrt(n)
    assert abs(cov) <= 4.0 * se_cov


def test_node_variance_along_the_grid():
    ens = sample_increments(_spec(1), TimeGrid(1.0, 20), 888, 10_000)
    walks = np.cumsum(ens.increments[:, :, 0], axis=1)
    for node in (5, 10, 20):
        t = node / 20.0
        var = np.var(walks[:, node - 1], ddof=1)
        se = var * np.sqrt(2.0 / (walks.shape[0] - 1))
        assert abs(var - t) <= 4.0 * se


def test_coarsening_sums_increments_exactly():
    ens = sample_increments(_spec(2), TimeGrid(1.0, 12), 44, 5)
    coarse = coarsen_increments(ens, 3)
    assert coarse.grid.n_steps == 4
    manual = ens.increments.reshape(5, 4, 3, 2).sum(axis=2)
    assert np.array_equal(coarse.increments, manual)


def test_coarsening_requires_divisor():
    ens = sample_increments(_spec(1), TimeGrid(1.0, 10), 44, 2)
    with pytest.raises(StochConvError):
        coarsen_increments(ens, 3)


@given(
    factor=st.sampled_from([1, 2, 3, 4, 6, 12]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_coarsening_preserves_terminal_value(factor, seed):
    ens = sample_increments(_spec(2), TimeGrid(1.0, 12), seed, 3)
    coarse = coarsen_increments(ens, factor)
    fine_total = ens.increments.sum(axis=1)
    coarse_total = coarse.increments.sum(axis=1)
    assert np.allclose(fine_total, coarse_total, rtol=1e-14, atol=1e-14)


@given(seed=st.integers(0, 2**63 - 1), path=st.integers(0, 2**40), step=st.integers(0, 2**40))
@settings(max_examples=60, deadline=None)
def test_gaussians_are_pure_functions_of_the_counter(seed, path, step):
    a = standard_gaussians(seed, path, step, 0)
    b = standard_gaussians(seed, path, step, 0)
    assert float(a) == float(b)
    assert np.isfinite(float(a))


def test_gaussian_moments_sane():
    z = standard_gaussians(5, np.zeros(200_000, dtype=np.uint64), np.arange(200_000, dtype=np.uint64), 0)
    n = z.size
    assert abs(np.mean(z)) <= 4.0 / np.sqrt(n)
    assert abs(np.var(z) - 1.0) <= 4.0 * np.sqrt(2.0 / n)
    assert abs(np.mean(z**3)) <= 4.0 * np.sqrt(15.0 / n)


def test_invalid_arguments():
    with pytest.raises(StochConvError):
        TimeGrid(0.0, 10)
    with pytest.raises(StochConvError):
        TimeGrid(1.0, 0)
    with pytest.raises(StochConvError):
        QWienerSpec(HilbertSpec(2), [1.0, -1.0])
    with pytest.raises(StochConvError):
        sample_increments(_spec(1), TimeGrid(1.0, 4), 0, 0)


@pytest.mark.parametrize("workers", ["2", 2.5, 0, -3, True])
def test_sample_increments_refuses_a_bad_worker_count(workers):
    with pytest.raises(StochConvError, match="workers"):
        sample_increments(_spec(1), TimeGrid(1.0, 4), 0, 2, workers=workers)


def test_sample_increments_accepts_a_numpy_worker_count():
    ens = sample_increments(_spec(1), TimeGrid(1.0, 4), 0, 2, workers=np.int64(2))
    assert ens.increments.shape == (2, 4, 1)


def _oracle_gaussians(seed, path_ix, step_ix, mode_ix):
    """Reference generator: the full (seed, path, step, mode, salt) absorption per salt."""
    shape = np.broadcast_shapes(np.shape(path_ix), np.shape(step_ix), np.shape(mode_ix))
    work_shape = shape if shape else (1,)
    words = []
    with np.errstate(over="ignore"):
        for salt in (0, 1):
            state = np.full(work_shape, np.uint64(seed) + noise._GOLD, dtype=np.uint64)
            scratch = np.empty(work_shape, dtype=np.uint64)
            for index in (path_ix, step_ix, mode_ix, salt):
                state += np.asarray(index, dtype=np.uint64) * noise._GOLD
                noise._mix64(state, scratch)
            words.append(state >> noise._SH11)
    u1 = words[0].astype(np.float64)
    u1 += 1.0
    u1 *= 2.0**-53
    u2 = words[1].astype(np.float64)
    u2 *= 2.0**-53
    np.log(u1, out=u1)
    u1 *= -2.0
    np.sqrt(u1, out=u1)
    u2 *= 2.0 * np.pi
    np.cos(u2, out=u2)
    u1 *= u2
    return u1.reshape(shape)


def _counters(form, paths, steps, modes):
    if form == "scalar":
        return paths[0], steps[0], modes[0]
    if form == "1-d":
        path_ix = np.array(paths, dtype=np.uint64)
        return path_ix, np.resize(np.array(steps, dtype=np.uint64), path_ix.shape), modes[0]
    return (
        np.array(paths, dtype=np.uint64)[:, None, None],
        np.array(steps, dtype=np.uint64)[None, :, None],
        np.array(modes, dtype=np.uint64)[None, None, :],
    )


@given(
    seed=_U64,
    paths=st.lists(_U64, min_size=1, max_size=5),
    steps=st.lists(_U64, min_size=1, max_size=5),
    modes=st.lists(_U64, min_size=1, max_size=4),
    form=st.sampled_from(["scalar", "1-d", "broadcast"]),
)
@settings(max_examples=200, deadline=None)
def test_gaussians_match_the_full_absorption_oracle(seed, paths, steps, modes, form):
    counters = _counters(form, paths, steps, modes)
    fast = standard_gaussians(seed, *counters)
    slow = _oracle_gaussians(seed, *counters)
    assert fast.shape == slow.shape
    assert fast.tobytes() == slow.tobytes()


@pytest.mark.parametrize("tiny_tiles", [False, True], ids=["module-tile", "tiny-tile"])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("dim", [1, 8])
@pytest.mark.parametrize("n_paths", [1, 5, 257, 300])
def test_sample_increments_match_oracle_blocks(monkeypatch, n_paths, dim, workers, tiny_tiles):
    n_steps, seed = 40, 2**64 - 3
    if tiny_tiles:
        # three paths per block: blocks divide neither 256 nor the path count evenly
        monkeypatch.setattr(_parallel, "BLOCK_ELEMENTS", 3 * n_steps * dim + 1)
    spec = _spec(dim, [0.5 + k for k in range(dim)])
    grid = TimeGrid(1.5, n_steps)
    ens = sample_increments(spec, grid, seed, n_paths, workers=workers)
    scale = np.sqrt(spec.q_eigenvalues * grid.dt)
    step_ix = np.arange(n_steps, dtype=np.uint64)[None, :, None]
    mode_ix = np.arange(dim, dtype=np.uint64)[None, None, :]
    expected = np.empty((n_paths, n_steps, dim))
    for start in range(0, n_paths, 256):  # the oracle's own blocks
        stop = min(start + 256, n_paths)
        path_ix = np.arange(start, stop, dtype=np.uint64)[:, None, None]
        block = _oracle_gaussians(seed, path_ix, step_ix, mode_ix)
        block *= scale
        expected[start:stop] = block
    assert ens.increments.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "seed,shape,digest",
    [
        (99, (3, 7, 3), "6d0a24f17821f125ee80f05f789f132bbdd7bb37b72535db11d82b0f5a3bd1b9"),
        (
            2**64 - 1,
            (5, 11, 1),
            "f77155fd7ea343f8abfadb84bac29832cf95a8def9655b465e83b4a5cc57d569",
        ),
        (99, (250, 50, 8), "add2200d11bbc0f311d8943fa38844e97f7e9889a8417819ff0e1261c257f1bf"),
    ],
    ids=["seed-99", "seed-2pow64-minus-1", "seed-99-100k-draws"],
)
def test_stream_digest_is_pinned(seed, shape, digest):
    # the stream is fixed: a faster generator must reproduce these digests.  The 10^5
    # draws of the last case would see a log or cos kernel that moves a last bit in one
    # draw in a thousand, which the small cases would most likely miss
    n_paths, n_steps, dim = shape
    ens = sample_increments(_spec(dim), TimeGrid(1.0, n_steps), seed, n_paths)
    assert hashlib.sha256(ens.increments.tobytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "kwargs,name",
    [
        pytest.param({"master_seed": -1, "n_paths": 2}, "master_seed", id="seed-negative"),
        pytest.param({"master_seed": 2**64, "n_paths": 2}, "master_seed", id="seed-2pow64"),
        pytest.param({"master_seed": 0, "n_paths": 2.5}, "n_paths", id="n_paths-float"),
    ],
)
def test_sample_increments_rejects_bad_arguments(kwargs, name):
    with pytest.raises(StochConvError, match=name):
        sample_increments(_spec(1), TimeGrid(1.0, 4), **kwargs)


def test_coarsening_rejects_a_float_factor():
    ens = sample_increments(_spec(1), TimeGrid(1.0, 4), 0, 2)
    with pytest.raises(StochConvError, match="factor"):
        coarsen_increments(ens, 2.0)


@pytest.mark.parametrize(
    "horizon,n_steps,name",
    [
        pytest.param(float("nan"), 4, "horizon", id="horizon-nan"),
        pytest.param(float("inf"), 4, "horizon", id="horizon-inf"),
        pytest.param("1.0", 4, "horizon", id="horizon-str"),
        pytest.param(None, 4, "horizon", id="horizon-none"),
        pytest.param(True, 4, "horizon", id="horizon-bool"),
        pytest.param(1.0, 10.0, "n_steps", id="n_steps-float"),
        pytest.param(1.0, True, "n_steps", id="n_steps-bool"),
    ],
)
def test_time_grid_rejects_bad_arguments(horizon, n_steps, name):
    with pytest.raises(StochConvError, match=name):
        TimeGrid(horizon, n_steps)


def test_time_grid_accepts_numpy_scalars():
    grid = TimeGrid(np.float64(2.0), np.int64(8))
    assert grid.dt == 0.25
    assert grid.nodes.shape == (9,)


@given(
    n_paths=st.integers(1, 9),
    n_steps=st.integers(1, 40),
    dim=st.integers(1, 8),
    steps=st.data(),
    seed=_U64,
    workers=st.sampled_from([1, 2]),
    block_elements=st.sampled_from([_parallel.BLOCK_ELEMENTS, 1, 5, 24, 100]),
)
@settings(max_examples=200, deadline=None)
def test_increment_rows_are_bitwise_the_ensemble_steps(
    n_paths, n_steps, dim, steps, seed, workers, block_elements
):
    # small budgets split a step block into several path blocks, as a large P * d does
    start = steps.draw(st.integers(0, n_steps - 1))
    stop = steps.draw(st.integers(start + 1, n_steps))
    spec, grid = _spec(dim, [0.25 * k for k in range(dim)]), TimeGrid(0.7, n_steps)
    with mock.patch.object(_parallel, "BLOCK_ELEMENTS", block_elements):
        rows = increment_rows(spec, grid, seed, n_paths, start, stop, workers=workers)
    expected = _oracle_gaussians(
        seed,
        np.arange(n_paths, dtype=np.uint64)[:, None, None],
        np.arange(start, stop, dtype=np.uint64)[None, :, None],
        np.arange(dim, dtype=np.uint64)[None, None, :],
    )
    expected *= np.sqrt(spec.q_eigenvalues * grid.dt)
    assert rows.shape == (n_paths, stop - start, dim)
    assert rows.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "args,workers,message",
    [
        pytest.param((-1, 2), 1, "master_seed must be", id="seed-negative"),
        pytest.param((2**64, 2), 1, "master_seed must be", id="seed-2pow64"),
        pytest.param((0, 0), 1, "n_paths must be a positive integer", id="n_paths-zero"),
        pytest.param((0, 2.5), 1, "n_paths must be a positive integer", id="n_paths-float"),
        pytest.param((0, 2), 0, "workers must be a positive integer", id="workers-zero"),
        pytest.param((0, 2), True, "workers must be a positive integer", id="workers-bool"),
    ],
)
def test_increment_rows_share_the_sampler_checks(args, workers, message):
    with pytest.raises(StochConvError, match=message):
        increment_rows(_spec(1), TimeGrid(1.0, 4), *args, 0, 4, workers=workers)


@pytest.mark.parametrize("start,stop", [(-1, 2), (2, 2), (3, 1), (0, 5), (0.0, 2), (0, True)])
def test_increment_rows_refuse_a_bad_step_range(start, stop):
    with pytest.raises(StochConvError, match="0 <= start < stop <= 4"):
        increment_rows(_spec(1), TimeGrid(1.0, 4), 0, 2, start, stop)


def test_a_whole_ensemble_keeps_no_drawn_block_alive():
    # a step block's sampler workspace is held for the next block; an ensemble's is
    # dropped on return
    spec, grid = _spec(2), TimeGrid(1.0, 8)
    sample_increments(spec, grid, 3, 1)
    increment_rows(spec, grid, 3, 4, 0, 2)
    assert noise._step_draws.workspace.shape == (2, 4 * 2 * 2)
    sample_increments(spec, grid, 3, 4)
    assert noise._step_draws.workspace is None


def test_a_warm_step_block_allocates_only_its_output():
    # after one block the workspace is held: the next block of the same shape allocates
    # its (P, s, d) output and the small counters, not the hashing temporaries
    spec, grid = _spec(8), TimeGrid(1.0, 64)
    increment_rows(spec, grid, 7, 500, 0, 16)
    tracemalloc.start()
    try:
        rows = increment_rows(spec, grid, 7, 500, 16, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * rows.nbytes
