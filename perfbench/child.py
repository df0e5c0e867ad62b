"""One fresh-interpreter stochconv run, started by ``run.py``.

Usage: ``python3 perfbench/child.py SPEC.json``.  The spec names the source
tree, the config, the CLI argv, the mode and where to write the result:

* ``setup``: import ``stochconv`` and load the config, then exit;
* ``run``: also call ``stochconv.cli.main(argv)`` and time it;
* ``trace``: the same, with the layer functions wrapped by ``tracer``;
* ``speedup``: time ``sample_increments`` with 1 and 2 workers.

The result JSON holds the CLOCK_MONOTONIC stamp of a loaded config
(comparable with the parent's spawn stamp) and ``perf_counter`` durations.
Run-level CPU time and peak RSS are taken by the parent from ``wait4``, so
they cover the whole process.
"""

import json
import os
import sys
import time
import traceback


def _canary_digest(stochconv) -> str:
    """SHA-256 of a small fixed noise ensemble; pins the noise stream."""
    import hashlib

    import numpy as np

    spec = stochconv.QWienerSpec(stochconv.HilbertSpec(3), np.array([1.0, 0.5, 0.25]))
    noise = stochconv.sample_increments(spec, stochconv.TimeGrid(1.0, 16), 12345, 4)
    return hashlib.sha256(noise.increments.tobytes()).hexdigest()


def _speedup(stochconv, sizes: dict) -> dict:
    import numpy as np

    spec = stochconv.QWienerSpec(
        stochconv.HilbertSpec(sizes["d"]), 1.0 / np.arange(1, sizes["d"] + 1) ** 2
    )
    grid = stochconv.TimeGrid(1.0, sizes["N"])
    times = {}
    for workers in (1, 2):
        started = time.perf_counter()
        noise = stochconv.sample_increments(spec, grid, 99, sizes["P"], workers=workers)
        times[workers] = time.perf_counter() - started
        del noise
    return {"w1_s": times[1], "w2_s": times[2]}


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)
    import stochconv
    from stochconv.config import load_config

    load_config(spec["config"])
    t_setup = time.monotonic()
    if not os.path.abspath(stochconv.__file__).startswith(src + os.sep):
        raise SystemExit(f"stochconv imported from {stochconv.__file__}, not {src}")
    result = {"t_setup": t_setup}
    mode = spec["mode"]
    if mode == "speedup":
        result.update(_speedup(stochconv, spec["sizes"]))
    elif mode in ("run", "trace"):
        from stochconv import cli

        tracer = None
        if mode == "trace":
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            import tracer as tracer_mod

            tracer = tracer_mod.Tracer()
            tracer.install()
        # the CLI prints one summary line; keep it out of the benchmark's output
        with open(os.devnull, "w") as sink:
            saved, sys.stdout = sys.stdout, sink
            started = time.perf_counter()
            try:
                code = cli.main(spec["argv"])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a traceback breaks the CLI contract: count it
                code = "uncaught exception"
                result["error"] = traceback.format_exc()
            finally:
                wall = time.perf_counter() - started
                sys.stdout = saved
        result.update({"exit_code": code, "wall_s": wall})
        if tracer is not None:
            tracer.uninstall()
            result["spans"] = tracer.spans
        result["canary"] = _canary_digest(stochconv)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
