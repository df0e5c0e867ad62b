"""stochconv benchmark: one workload through the real CLI, in fresh processes.

Usage, from the repository root::

    python3 perfbench/run.py --workload heat-spde --seed 0 --seconds 28 --trace 0

Workloads are listed in ``perfbench/workloads.py``.  Load model: a closed
loop with one client, one CLI run at a time, ``workers`` = 1.

``--trace 0`` measures the end-to-end metrics.  It first times a few
set-up-only interpreters (import ``stochconv`` + ``load_config``), then runs
``stochconv.cli.main`` in ``--check`` mode, one fresh interpreter per
iteration, for ``--seconds`` (at least two iterations, so that artifact
bytes can be compared).  An iteration starts only while at least half of it,
judged by the median of the earlier ones, fits in the window, so a run ends
within half an iteration of ``--seconds``.  Every metric is the median over
iterations.

``--trace 1`` measures the per-layer metrics in the same window: one
noise-sampling run with 2 workers against 1, then pairs of one untraced and
one traced iteration (``perfbench/tracer.py`` wraps the layer functions from
outside).

An iteration fails when the exit code is not 0, when its artifacts differ
from the first iteration's (or, traced, from the untraced one's), when a
seed-independent output check fails, when the noise-stream canary changes,
or, on the default seed, when a report number leaves its reference.

Human-readable lines go first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
benchmark exits non-zero without that line when the tree has no
``src/stochconv`` to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import self_times  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
WORK_DIR = ".perfbench_work"

# One BLAS thread, pinned on both sides of a comparison.  With two threads on
# a 2-vCPU host, the small dense products of norms-dense and fubini-tv stall
# whenever the second vCPU is busy elsewhere, and their times spread by 30-40%
# between runs; with one thread they follow the host's speed like the others.
BLAS_THREADS = "1"
SETUP_PROBES = 4
MIN_ITERATIONS = 2
RUN_DEADLINE_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "noise.sample_s": "s",
    "noise.ns_per_draw": "ns",
    "noise.draws": "count",
    "noise.bytes_out": "B",
    "noise.coarsen_s": "s",
    "parallel.noise_speedup_w2": "ratio",
    "ito.products_s": "s",
    "ito.products_calls": "count",
    "ito.integrate_s": "s",
    "ito.integrate_calls": "count",
    "ito.lr_path_norm_s": "s",
    "convolution.direct_s": "s",
    "convolution.kernel_s": "s",
    "convolution.smoothing_s": "s",
    "convolution.lag_mults": "count",
    "convolution.lag_ns_per_mult": "ns",
    "convolution.lag_scaling_exp": "exponent",
    "convolution.compare_s": "s",
    "hilbert.semigroup_eval_s": "s",
    "hilbert.semigroup_eval_calls": "count",
    "hilbert.semigroup_build_s": "s",
    "fubini.mix_first_s": "s",
    "fubini.mix_last_s": "s",
    "fubini.report_s": "s",
    "norms.lpq_s": "s",
    "norms.lpqr_s": "s",
    "norms.field_s": "s",
    "norms.det_lpq_s": "s",
    "norms.bootstrap_resamples": "count",
    "experiments.write_s": "s",
    "experiments.artifact_bytes": "B",
    "config.load_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

# span name -> per-layer metric holding its summed self time
SELF_TIME_METRICS = {
    "noise.sample": "noise.sample_s",
    "noise.coarsen": "noise.coarsen_s",
    "ito.products": "ito.products_s",
    "ito.integrate": "ito.integrate_s",
    "ito.lr_path_norm": "ito.lr_path_norm_s",
    "convolution.direct": "convolution.direct_s",
    "convolution.kernel": "convolution.kernel_s",
    "convolution.smoothing": "convolution.smoothing_s",
    "convolution.compare": "convolution.compare_s",
    "hilbert.semigroup_eval": "hilbert.semigroup_eval_s",
    "hilbert.semigroup_build": "hilbert.semigroup_build_s",
    "fubini.mix_first": "fubini.mix_first_s",
    "fubini.mix_last": "fubini.mix_last_s",
    "fubini.report": "fubini.report_s",
    "norms.lpq": "norms.lpq_s",
    "norms.lpqr": "norms.lpqr_s",
    "norms.field": "norms.field_s",
    "norms.det_lpq": "norms.det_lpq_s",
    "experiments.run": "experiments.write_s",
    "config.load": "config.load_s",
}
CALL_COUNT_METRICS = {
    "ito.products": "ito.products_calls",
    "ito.integrate": "ito.integrate_calls",
    "hilbert.semigroup_eval": "hilbert.semigroup_eval_calls",
}


class RunContext:
    """Paths, config and references shared by every iteration of one run."""

    def __init__(self, root: str, workload, seed: int, deadline: float, references: dict):
        self.root = root
        self.workload = workload
        self.deadline = deadline
        self.dir = os.path.join(root, WORK_DIR, f"{workload.name}-s{seed}-{os.getpid()}")
        os.makedirs(self.dir)
        self.config_path = os.path.join(self.dir, "config.json")
        self.config = workloads.write_config(workload, seed, self.config_path)
        blob = json.dumps(self.config, sort_keys=True, separators=(",", ":"))
        self.config_sha256 = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        self.canary = references.get("canary_sha256")
        ref = references.get("workloads", {}).get(workload.name)
        self.reference = ref if ref and ref["config_sha256"] == self.config_sha256 else None
        self.env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = BLAS_THREADS
        # users import from cached bytecode; the warm-up interpreter writes it
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.count = 0
        self._first_digests = None
        self._verdicts: dict = {}

    def spawn(self, mode: str) -> dict:
        """Run ``child.py`` in a fresh interpreter and collect its numbers."""
        self.count += 1
        tag = f"{mode}{self.count}"
        out_dir = os.path.join(self.dir, tag)
        os.makedirs(out_dir)  # convolve writes its CSV into an existing directory
        spec = {
            "src": os.path.join(self.root, "src"),
            "config": self.config_path,
            "mode": mode,
            "argv": self.workload.argv(self.config_path, out_dir),
            "sizes": workloads.WORKLOADS["heat-spde"].sizes,
            "result": os.path.join(self.dir, f"{tag}.result.json"),
        }
        spec_path = os.path.join(self.dir, f"{tag}.spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        timeout = max(1.0, self.deadline - time.monotonic())
        log_path = os.path.join(self.dir, f"{tag}.log")
        with open(log_path, "wb") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen([sys.executable, CHILD, spec_path], cwd=self.root,
                                    env=self.env, stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        if proc.returncode != 0 or not os.path.exists(spec["result"]):
            with open(log_path, encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            raise RuntimeError(f"{mode} process exited with {proc.returncode}:\n{tail}")
        with open(spec["result"], encoding="utf-8") as fh:
            result = json.load(fh)
        result.update({
            "elapsed_s": time.monotonic() - spawned,
            "setup_s": result["t_setup"] - spawned,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        })
        if mode in ("run", "trace"):
            result["digests"] = checks.artifact_digests(out_dir)
            result["artifact_bytes"] = sum(size for _, size in result["digests"].values())
            result["problems"] = self.check(result, out_dir)
            shutil.rmtree(out_dir, ignore_errors=True)
        return result

    def check(self, result: dict, out_dir: str) -> list[str]:
        problems = []
        if result["exit_code"] != 0:
            problems.append(f"exit code {result['exit_code']} under --check")
        if self.canary is not None and result["canary"] != self.canary:
            problems.append("noise-stream canary digest changed")
        key = json.dumps(result["digests"], sort_keys=True)
        if self._first_digests is None:
            self._first_digests = key
        elif key != self._first_digests:
            problems.append("artifact bytes differ from the first iteration's")
        if key not in self._verdicts:  # identical bytes get the same verdict
            self._verdicts[key] = self._check_outputs(out_dir)
        output_problems, result["summary"] = self._verdicts[key]
        return problems + output_problems

    def _check_outputs(self, out_dir: str):
        try:
            summary = checks.summarize(self.workload, out_dir, self.config)
        except (OSError, KeyError, ValueError) as exc:
            return [f"cannot read artifacts: {exc!r}"], None
        problems = checks.check_report(self.workload, summary, self.config)
        if self.reference is not None:
            ref_problems, notes = checks.check_reference(self.workload, summary, self.reference)
            problems += ref_problems
            for note in notes:
                print(f"note: {note}")
        return problems, summary


def environment(root: str) -> dict:
    """Versions, BLAS, threads, caches and code identity of this run."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    for level in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        proc = subprocess.run(["getconf", level], capture_output=True, text=True)
        caches[level.lower()] = proc.stdout.strip() or "unknown"
    src_sha = hashlib.sha256()
    src_dir = os.path.join(root, "src", "stochconv")
    for name in sorted(os.listdir(src_dir)):
        if name.endswith(".py"):
            with open(os.path.join(src_dir, name), "rb") as fh:
                src_sha.update(name.encode() + b"\0" + fh.read())
    git_sha = "none (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "--git-dir", os.path.join(root, ".git"), "rev-parse",
                               "HEAD"], capture_output=True, text=True)
        git_sha = proc.stdout.strip() or git_sha
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "caches_bytes": caches,
        "git_sha": git_sha,
        "src_sha256": src_sha.hexdigest(),
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def _describe(name, unit, values):
    if len(values) > 1:
        spread = f", min {min(values):.6g}, max {max(values):.6g}"
    else:
        spread = ""
    return f"metric {name} = {_median(values):.6g} {unit} (median of {len(values)}{spread})"


def _room_for_another(started: float, seconds: float, durations: list) -> bool:
    """True while at least half of a typical iteration fits in the window."""
    left = seconds - (time.monotonic() - started)
    return left > 0.5 * statistics.median(durations) if durations else left > 0


def measure_end_to_end(ctx: RunContext, seconds: float):
    ctx.spawn("setup")  # warm-up: byte-compiles the sources, not counted
    setup = [ctx.spawn("setup")["setup_s"] for _ in range(SETUP_PROBES)]
    runs = []
    started = time.monotonic()
    while len(runs) < MIN_ITERATIONS or _room_for_another(
            started, seconds, [r["elapsed_s"] for r in runs]):
        run = ctx.spawn("run")
        runs.append(run)
        status = "ok" if not run["problems"] else "FAIL: " + "; ".join(run["problems"])
        print(f"iteration {len(runs) - 1}: wall_s={run['wall_s']:.4f} setup_s="
              f"{run['setup_s']:.4f} cpu_s={run['cpu_s']:.3f} peak_rss_mb="
              f"{run['peak_rss_mb']:.1f} artifact_bytes={run['artifact_bytes']} {status}")
    samples = {
        "wall_s": [r["wall_s"] for r in runs],
        "setup_s": setup + [r["setup_s"] for r in runs],
        "cpu_s": [r["cpu_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }
    for name, unit in END_TO_END.items():
        print(_describe(name, unit, samples[name]))
    metrics = {name: {"value": _median(samples[name]), "unit": unit}
               for name, unit in END_TO_END.items()}
    return runs, metrics


def layer_metrics(spans: list, artifact_bytes: int) -> dict:
    """Per-layer numbers of one traced iteration."""
    own = self_times(spans)
    out = {name: 0.0 for name in PER_LAYER}
    for name in CALL_COUNT_METRICS.values():
        out[name] = 0
    lag_by_n: dict = {}
    mults = draws = resamples = 0
    for (name, _, _, _, info), self_s in zip(spans, own):
        if name in SELF_TIME_METRICS:
            out[SELF_TIME_METRICS[name]] += self_s
        if name in CALL_COUNT_METRICS:
            out[CALL_COUNT_METRICS[name]] += 1
        info = info or {}
        draws += info.get("draws", 0)
        resamples += info.get("resamples", 0)
        if "mults" in info:
            mults += info["mults"]
            lag_by_n[info["N"]] = lag_by_n.get(info["N"], 0.0) + self_s
    lag_s = out["convolution.kernel_s"] + out["convolution.smoothing_s"]
    out.update({
        "noise.draws": draws,
        "noise.bytes_out": 8 * draws,
        "noise.ns_per_draw": 1e9 * out["noise.sample_s"] / draws if draws else 0.0,
        "convolution.lag_mults": mults,
        "convolution.lag_ns_per_mult": 1e9 * lag_s / mults if mults else 0.0,
        "norms.bootstrap_resamples": resamples,
        "experiments.artifact_bytes": artifact_bytes,
        "trace.spans": len(spans),
    })
    if len(lag_by_n) >= 2:
        # log-slope between the two largest rungs of an N ladder
        n_lo, n_hi = sorted(lag_by_n)[-2:]
        out["convolution.lag_scaling_exp"] = (
            math.log(lag_by_n[n_hi] / lag_by_n[n_lo]) / math.log(n_hi / n_lo)
        )
    return out


def measure_layers(ctx: RunContext, seconds: float):
    ctx.spawn("setup")  # warm-up, as in the untraced run
    runs, per_pair, pair_s = [], [], []
    started = time.monotonic()
    speed = ctx.spawn("speedup")
    print(f"noise sampling at heat-spde size: workers=1 {speed['w1_s']:.4f} s, "
          f"workers=2 {speed['w2_s']:.4f} s")
    while not per_pair or _room_for_another(started, seconds, pair_s):
        plain, traced = ctx.spawn("run"), ctx.spawn("trace")
        runs += [plain, traced]
        pair_s.append(plain["elapsed_s"] + traced["elapsed_s"])
        numbers = layer_metrics(traced["spans"], traced["artifact_bytes"])
        numbers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        per_pair.append(numbers)
        for run, label in ((plain, "untraced"), (traced, "traced")):
            status = "ok" if not run["problems"] else "FAIL: " + "; ".join(run["problems"])
            print(f"pair {len(per_pair) - 1} {label}: wall_s={run['wall_s']:.4f} {status}")
    metrics = {}
    for name, unit in PER_LAYER.items():
        values = [pair[name] for pair in per_pair]
        if name == "parallel.noise_speedup_w2":
            values = [speed["w1_s"] / speed["w2_s"]]
        print(_describe(name, unit, values))
        value = _median(values)
        metrics[name] = {"value": int(value) if unit in ("count", "B") else value, "unit": unit}
    return runs, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_DEADLINE_S
    # on SIGTERM, unwind through the finally blocks that kill the child process
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "stochconv", "cli.py")):
        print(f"error: no src/stochconv/cli.py under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    ctx = RunContext(root, workload, args.seed, deadline, checks.load_references())
    try:
        print(f"workload {workload.name} ({workload.source}) seed={args.seed} "
              f"program_seed={workload.program_seed(args.seed)} sizes={workload.sizes} "
              f"reference_check={'on' if ctx.reference else 'off (non-default seed)'}")
        print("env " + json.dumps(environment(root), sort_keys=True))
        measure = measure_layers if args.trace else measure_end_to_end
        runs, metrics = measure(ctx, args.seconds)
    finally:
        shutil.rmtree(ctx.dir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:
            pass  # another run still uses it
    failed = sum(1 for run in runs if run["problems"])
    print(f"fail_rate = {failed}/{len(runs)} = {failed / len(runs):.4g}")
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
