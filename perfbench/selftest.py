"""Self-test of the benchmark harness; exits non-zero on any failure.

Usage, from the repository root::

    python3 perfbench/selftest.py

Checks that

* every workload in ``BENCHMARK.json`` is defined in ``workloads.py`` with
  the same reason, and its metrics (with units) are exactly ``run.py``'s;
* the tracer replaces every lookup site of each wrapped function, including
  the copies made by ``from .x import f``, and restores them all;
* a traced CLI run writes byte-identical artifacts to an untraced one, for
  every workload at a reduced size.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def check_manifest() -> list[str]:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    problems = []
    for entry in manifest["workloads"]:
        workload = workloads.WORKLOADS.get(entry["name"])
        if workload is None or workload.why != entry["why"]:
            problems.append(f"workload {entry['name']} or its reason differs from workloads.py")
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in manifest[key]}
        if listed != table:
            problems.append(f"{key} in BENCHMARK.json differs from run.py")
    return problems


def _stochconv_modules():
    return [m for k, m in sys.modules.items() if k == "stochconv" or k.startswith("stochconv.")]


def check_lookup_sites() -> list[str]:
    import stochconv.cli  # noqa: F401  (loads every module the CLI uses)

    originals = {
        id(getattr(sys.modules[mod], attr)): f"{mod}.{attr}"
        for mod, table in tracer.LAYERS.items() for attr in table
    }
    before = {(m.__name__, k): v for m in _stochconv_modules() for k, v in vars(m).items()}
    tr = tracer.Tracer()
    tr.install()
    problems = [
        f"{m.__name__}.{key} still bound to unwrapped {originals[id(value)]}"
        for m in _stochconv_modules() for key, value in vars(m).items()
        if id(value) in originals
    ]
    tr.uninstall()
    after = {(m.__name__, k): v for m in _stochconv_modules() for k, v in vars(m).items()}
    if any(after[key] is not value for key, value in before.items()):
        problems.append("uninstall did not restore every module attribute")
    return problems


def _small_config(workload) -> dict:
    cfg = workload.config(workloads.DEFAULT_SEED)
    cfg["n_paths"] = 12
    cfg["grid"]["N"] = 40
    return cfg


def check_traced_bytes() -> list[str]:
    from stochconv import cli

    problems = []
    os.makedirs(run.WORK_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as tmp:
        for name, workload in workloads.WORKLOADS.items():
            config_path = os.path.join(tmp, f"{name}.json")
            with open(config_path, "w", encoding="utf-8") as fh:
                json.dump(_small_config(workload), fh)
            digests, codes = [], []
            for traced in (False, True):
                out_dir = os.path.join(tmp, f"{name}-{int(traced)}")
                os.makedirs(out_dir)
                tr = tracer.Tracer()
                if traced:
                    tr.install()
                try:
                    codes.append(cli.main(workload.argv(config_path, out_dir)))
                finally:
                    tr.uninstall()
                if traced and not tr.spans:
                    problems.append(f"{name}: traced run recorded no spans")
                digests.append(checks.artifact_digests(out_dir))
            if digests[0] != digests[1] or codes[0] != codes[1] or not digests[0]:
                problems.append(f"{name}: traced artifacts differ from untraced")
    try:
        os.rmdir(run.WORK_DIR)
    except OSError:
        pass  # a benchmark run still uses it
    return problems


def main() -> int:
    failed = False
    for check in (check_manifest, check_lookup_sites, check_traced_bytes):
        problems = check()
        print(f"{check.__name__}: {'PASS' if not problems else 'FAIL'}")
        for problem in problems:
            print(f"  {problem}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
