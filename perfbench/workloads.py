"""Workload table and seeded config generators for the stochconv benchmark.

Every workload is one CLI invocation of ``stochconv.cli.main`` on a config
that this module writes.  Two workloads replay a shipped config (a frozen copy
lives in ``perfbench/shipped/`` so that later edits to ``configs/`` cannot
silently change the workload); three are generated from the seed.

Path counts are chosen so that one iteration takes about 2.5-3.5 s on a
2-vCPU x86 VM: the two shipped configs run with ``n_paths`` cut from 2000 to
500 (heat-spde) and 1000 (factorize-ladder), and the generated ones use half
the paths they were first sized with (norms-dense 400, fubini-tv 100).  With
iterations of 5-10 s a run held two to six of them, a slow spell of the
shared host lasting a few seconds moved the run's median, and ``wall_s``
spread by 10-27% of its median between runs; with about ten iterations a run
the median passes over such spells.  Layer shares stay as they were.

``BENCHMARK.json`` lists four of the five workloads.  convolve-export (the
write-heavy one) stays runnable by hand with ``--workload convolve-export``;
it was left out of the listed set so that the other four fit longer runs in
the same time budget.

Seed 0 is the default seed: it reproduces the reference config whose report
numbers are pinned in ``references.json``.  Any other seed ``n`` gives the
program seed ``n`` and, for the generated workloads, operator entries drawn
from a ``random.Random`` keyed by the workload name and ``n``.  Only the
values change with the seed; shapes and sizes never do, so every seed costs
the same work.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    source: str  # "shipped" or "generated"
    command: str  # CLI subcommand
    sizes: dict  # bytes_written is measured on the default seed
    default_program_seed: int
    why: str  # the same line as in BENCHMARK.json

    def argv(self, config_path: str, out_dir: str) -> list[str]:
        """Arguments for ``stochconv.cli.main``; always in ``--check`` mode."""
        if self.command == "convolve":
            out = os.path.join(out_dir, "paths.csv")
            return ["convolve", "--config", config_path, "--method", "both",
                    "--out", out, "--check"]
        return [self.command, "--config", config_path, "--out", out_dir, "--check"]

    def program_seed(self, seed: int) -> int:
        return self.default_program_seed if seed == DEFAULT_SEED else abs(seed) % 2**63

    def config(self, seed: int) -> dict:
        return _GENERATORS[self.name](self, seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "heat-spde", "shipped", "heat-spde",
            {"P": 500, "N": 3200, "d": 8, "atoms": 0, "bytes_written": 161827},
            99,
            "shipped heat_spde.json, paths cut to P=500 (N=3200 d=8, 0.16 MB written): noise "
            "sampling ~86% of wall, no lag loop; the noise workload and the no-change case "
            "for lag-engine work",
        ),
        Workload(
            "factorize-ladder", "shipped", "factorize-compare",
            {"P": 1000, "N": [200, 400, 800], "d": 1, "atoms": 0, "bytes_written": 41166},
            2024,
            "shipped factorize_compare.json, paths cut to P=1000 (N=200/400/800 d=1, 41 kB "
            "written): O(N^2) diagonal lag loops ~93% of wall; the N ladder shows their "
            "scaling",
        ),
        Workload(
            "norms-dense", "generated", "norms",
            {"P": 400, "N": 160, "d": 4, "atoms": 0, "bytes_written": 1021},
            1606,
            "generated norms (P=400 N=160 d=4 dense generator, beta=0.3 r=4, 1 kB written): "
            "expm slice battery + dense lag branch at small N; shows overhead added by "
            "large-N fixes",
        ),
        Workload(
            "fubini-tv", "generated", "fubini",
            {"P": 100, "N": 500, "d": 8, "atoms": 64, "bytes_written": 28961},
            777,
            "generated fubini (P=100 N=500 d=8, 64 midpoint atoms, time-varying dense "
            "integrand, 29 kB written): integrand_products ~80% of wall; the only "
            "fubini-layer workload",
        ),
        Workload(
            "convolve-export", "generated", "convolve",
            {"P": 200, "N": 400, "d": 2, "atoms": 0, "bytes_written": 9733134},
            11,
            "generated convolve --method both (P=200 N=400 d=2 diagonal, 9.7 MB CSV written): "
            "the inline path-CSV writer is ~50% of wall; the write-heavy workload",
        ),
    )
}

def _shipped(workload: Workload, seed: int) -> dict:
    filename = {"heat-spde": "heat_spde.json",
                "factorize-ladder": "factorize_compare.json"}[workload.name]
    with open(os.path.join(HERE, "shipped", filename), encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg["seed"] = workload.program_seed(seed)
    cfg["n_paths"] = workload.sizes["P"]
    return cfg


def _rng(workload: Workload, seed: int) -> random.Random:
    return random.Random(f"{workload.name}:{seed}")


def _base(experiment: str, d: int, n_steps: int, n_paths: int, program_seed: int) -> dict:
    return {
        "experiment": experiment,
        "dims": {"U": d, "H": d},
        "grid": {"T": 1.0, "N": n_steps},
        "exponents": {"p": 2.0, "q": 2.0, "r": 4.0},
        "beta": 0.3,
        "seed": program_seed,
        "n_paths": n_paths,
    }


def _norms_dense(workload: Workload, seed: int) -> dict:
    """Contractive dense generator -diag(k^2) + skew coupling, dense integrand."""
    rng = _rng(workload, seed)
    d = workload.sizes["d"]
    gen = [[0.0] * d for _ in range(d)]
    for i in range(d):
        gen[i][i] = -float((i + 1) ** 2)
        for j in range(i + 1, d):
            c = rng.uniform(-1.0, 1.0)
            gen[i][j], gen[j][i] = c, -c
    rows = [[(1.0 if i == j else 0.0) + 0.2 * rng.uniform(-1.0, 1.0) for j in range(d)]
            for i in range(d)]
    cfg = _base("norms", d, workload.sizes["N"], workload.sizes["P"],
                workload.program_seed(seed))
    cfg.update({
        "semigroup": {"kind": "dense", "generator": gen},
        "q_eigenvalues": [1.0 / (k + 1) ** 2 for k in range(d)],
        "integrand": {"kind": "constant", "operator": {"kind": "dense", "rows": rows}},
    })
    return cfg


def _fubini_tv(workload: Workload, seed: int) -> dict:
    """Time-varying dense integrand I + 0.3 sin(2 pi f t + phase), one per node."""
    rng = _rng(workload, seed)
    d, n_steps = workload.sizes["d"], workload.sizes["N"]
    freq = [[rng.uniform(0.5, 3.0) for _ in range(d)] for _ in range(d)]
    phase = [[rng.uniform(0.0, 2.0 * math.pi) for _ in range(d)] for _ in range(d)]
    operators = []
    for i in range(n_steps + 1):
        t = i / n_steps
        rows = [[round((1.0 if h == u else 0.0)
                       + 0.3 * math.sin(2.0 * math.pi * freq[h][u] * t + phase[h][u]), 12)
                 for u in range(d)] for h in range(d)]
        operators.append({"kind": "dense", "rows": rows})
    cfg = _base("fubini", d, n_steps, workload.sizes["P"], workload.program_seed(seed))
    cfg.update({
        "semigroup": {"kind": "diagonal", "rates": [0.0] * d},
        "q_eigenvalues": [1.0 / (k + 1) for k in range(d)],
        "integrand": {"kind": "time_varying", "operators": operators},
        "options": {"family": {"kind": "scaled_constant", "quadrature": {
            "rule": "midpoint", "n": workload.sizes["atoms"], "interval": [0.0, 1.0]}}},
    })
    return cfg


def _convolve_export(workload: Workload, seed: int) -> dict:
    """Diagonal heat-like scenario exported by both convolution pipelines."""
    rng = _rng(workload, seed)
    d = workload.sizes["d"]
    cfg = _base("ou-check", d, workload.sizes["N"], workload.sizes["P"],
                workload.program_seed(seed))
    cfg.update({
        "semigroup": {"kind": "diagonal",
                      "rates": [round((k + 1) ** 2 * rng.uniform(0.8, 1.2), 12)
                                for k in range(d)]},
        "q_eigenvalues": [1.0 / (k + 1) ** 2 for k in range(d)],
        "integrand": {"kind": "constant",
                      "operator": {"kind": "diagonal", "eigenvalues": [1.0] * d}},
    })
    return cfg


_GENERATORS = {
    "heat-spde": _shipped,
    "factorize-ladder": _shipped,
    "norms-dense": _norms_dense,
    "fubini-tv": _fubini_tv,
    "convolve-export": _convolve_export,
}


def write_config(workload: Workload, seed: int, path: str) -> dict:
    cfg = workload.config(seed)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, sort_keys=True)
    return cfg
