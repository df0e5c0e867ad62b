"""Path blocks: the one place where the work over an ensemble is split into paths.

A block is a contiguous run of max(1, BLOCK_ELEMENTS // path_elements) paths, so
its temporaries stay near 0.5 MB whatever P, N and d are.  Block size depends on
the elements per path only; the worker count only controls how many blocks run
concurrently.  Every block therefore sees byte-identical inputs regardless of
scheduling, which makes ensemble outputs independent of the number of workers.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

BLOCK_ELEMENTS = 65536


def path_blocks(n_paths: int, path_elements: int) -> list[tuple[int, int]]:
    """Contiguous (start, stop) path blocks covering range(n_paths)."""
    size = max(1, BLOCK_ELEMENTS // path_elements)
    return [(start, min(start + size, n_paths)) for start in range(0, n_paths, size)]


def run_over_paths(fn, n_paths: int, path_elements: int, workers: int = 1) -> None:
    """Run ``fn(start, stop)`` over the path blocks, possibly concurrently.

    ``fn`` must write its results into preallocated per-block output slices and
    must not mutate shared state.
    """
    blocks = path_blocks(n_paths, path_elements)
    if workers <= 1 or len(blocks) <= 1:
        for start, stop in blocks:
            fn(start, stop)
        return
    with ThreadPoolExecutor(max_workers=min(workers, len(blocks))) as pool:
        for _ in pool.map(lambda block: fn(*block), blocks):
            pass
