"""Write ``perfbench/references.json`` from the current source tree.

Usage, from the repository root::

    python3 perfbench/record_references.py

Runs every workload once on the default seed through the same fresh-process
path as ``run.py`` and pins the report numbers that the correctness check
compares (per-mode variance estimates, the factorize error ladder, the norms
ratio, the Fubini headline and scale, the path-CSV digest and value sums),
with their tolerances, plus the noise-stream canary digest.  Run it only on
the commit whose outputs define "correct"; the committed file was recorded on
the commit that introduced the benchmark.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# The Fubini headline is the rounding noise between two reduction orders; it
# is pinned to an absolute band of the same width as the program's own check.
HEADLINE_ABS_TOL_PER_SCALE = 1e-10


def main() -> int:
    root = os.getcwd()
    out = {"canary_sha256": None, "workloads": {}}
    for name, workload in workloads.WORKLOADS.items():
        ctx = run.RunContext(root, workload, workloads.DEFAULT_SEED,
                             time.monotonic() + run.RUN_DEADLINE_S, references={})
        try:
            result = ctx.spawn("run")
        finally:
            shutil.rmtree(ctx.dir, ignore_errors=True)
        if result["problems"]:
            raise SystemExit(f"{name}: {result['problems']}")
        out["canary_sha256"] = result["canary"]
        entry = {
            "config_sha256": ctx.config_sha256,
            "rel_tol": checks.REL_TOL,
            "artifact_bytes": result["artifact_bytes"],
            "values": checks.reference_values(workload, result["summary"]),
        }
        if name == "fubini-tv":
            entry["headline_abs_tol_per_scale"] = HEADLINE_ABS_TOL_PER_SCALE
        out["workloads"][name] = entry
        print(f"{name}: wall_s={result['wall_s']:.3f} {entry['values']}")
    with open(checks.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
