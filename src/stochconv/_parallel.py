"""Deterministic worker parallelism over path blocks.

Work is always split into fixed-size contiguous path blocks; the worker count
only controls how many blocks run concurrently.  Every block therefore sees
byte-identical inputs regardless of scheduling, which makes ensemble outputs
independent of the number of workers.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

CHUNK = 256


def path_blocks(n_paths: int, chunk: int = CHUNK) -> list[tuple[int, int]]:
    return [(start, min(start + chunk, n_paths)) for start in range(0, n_paths, chunk)]


def run_over_paths(fn, n_paths: int, workers: int = 1, chunk: int = CHUNK) -> None:
    """Run ``fn(start, stop)`` over fixed path blocks, possibly concurrently.

    ``fn`` must write its results into preallocated per-block output slices and
    must not mutate shared state.
    """
    blocks = path_blocks(n_paths, chunk)
    if workers <= 1 or len(blocks) <= 1:
        for start, stop in blocks:
            fn(start, stop)
        return
    with ThreadPoolExecutor(max_workers=min(workers, len(blocks))) as pool:
        for _ in pool.map(lambda block: fn(*block), blocks):
            pass
