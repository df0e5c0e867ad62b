"""Output checks for one benchmark iteration.

``summarize`` reads a run's artifacts and extracts the numbers the reference
check compares; ``check_report`` applies the checks that hold on every seed;
``check_reference`` compares against ``references.json`` (recorded on the
default seed) when the run used the reference config.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")

# Relative tolerance of reference numbers: float reassociation moves them by
# ~1e-12, a changed noise stream by ~1e-2 (1/sqrt(paths)).
REL_TOL = 1e-6


def artifact_digests(out_dir: str) -> dict:
    """SHA-256 and size of every file a run wrote, keyed by relative path."""
    digests = {}
    for base, _, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(base, name)
            sha = hashlib.sha256()
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    sha.update(block)
            digests[os.path.relpath(path, out_dir)] = [sha.hexdigest(), os.path.getsize(path)]
    return digests


def _load(out_dir: str, name: str) -> dict:
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        return json.load(fh)


def _csv_summary(path: str, dim: int) -> dict:
    """Per-method row count, sum of squares, max |value| and X(t_0) magnitude."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header != ["method", "path_id", "t"] + [f"coord_{k}" for k in range(dim)]:
            raise ValueError(f"unexpected CSV header {header}")
        for line in fh:
            cells = line.split(",")
            entry = out.setdefault(cells[0], {"rows": 0, "sumsq": 0.0, "maxabs": 0.0,
                                              "start_abs": 0.0})
            values = [float(c) for c in cells[3:]]
            entry["rows"] += 1
            entry["sumsq"] += math.fsum(v * v for v in values)
            entry["maxabs"] = max(entry["maxabs"], max(abs(v) for v in values))
            if float(cells[2]) == 0.0:
                entry["start_abs"] = max(entry["start_abs"], max(abs(v) for v in values))
    return out


def summarize(workload, out_dir: str, cfg: dict) -> dict:
    """The numbers of a run's artifacts that the checks look at."""
    if workload.name == "heat-spde":
        report = _load(out_dir, "heat-spde_report.json")
        return {"estimates": [m["estimate"] for m in report["modes"]],
                "closed_form": [m["closed_form"] for m in report["modes"]]}
    if workload.name == "factorize-ladder":
        report = _load(out_dir, "factorize-compare_report.json")
        return {"errors": [r["error"] for r in report["resolutions"]],
                "n_steps": [r["n_steps"] for r in report["resolutions"]],
                "monotone": report["monotone_decrease"],
                "holder_violations": report["holder_violations"]}
    if workload.name == "norms-dense":
        report = _load(out_dir, "norms_report.json")
        bound = report["bound_constant"]
        return {"ratio": report["ratio"], "bound": bound["bound"], "c_beta": bound["c_beta"]}
    if workload.name == "fubini-tv":
        report = _load(out_dir, "fubini_report.json")
        return {"headline": report["headline"], "scale": report["scale"],
                "n_atoms": report["n_atoms"], "per_node": len(report["per_node"])}
    if workload.name == "convolve-export":
        path = os.path.join(out_dir, "paths.csv")
        return {"csv": _csv_summary(path, cfg["dims"]["H"]),
                "csv_sha256": artifact_digests(out_dir)["paths.csv"][0]}
    raise KeyError(workload.name)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def check_report(workload, summary: dict, cfg: dict) -> list[str]:
    """Seed-independent checks; returns the list of problems found."""
    problems = []
    n_steps, n_paths = cfg["grid"]["N"], cfg["n_paths"]
    if workload.name == "heat-spde":
        horizon = cfg["grid"]["T"]
        eig = cfg["integrand"]["operator"]["eigenvalues"]
        for k, (lam, q, f) in enumerate(zip(cfg["semigroup"]["rates"], cfg["q_eigenvalues"], eig)):
            closed = f * f * q * (-math.expm1(-2.0 * lam * horizon)) / (2.0 * lam)
            if not _close(summary["closed_form"][k], closed, 1e-12):
                problems.append(f"mode {k} closed form {summary['closed_form'][k]} != {closed}")
            if not summary["estimates"][k] > 0.0:
                problems.append(f"mode {k} variance estimate not positive")
    elif workload.name == "factorize-ladder":
        factors = cfg["options"]["refinement_factors"]
        if summary["n_steps"] != [n_steps // f for f in factors]:
            problems.append(f"ladder {summary['n_steps']} is not N/{factors}")
        if not summary["monotone"] or summary["holder_violations"] != 0:
            problems.append("ladder not monotone or Holder bound violated")
    elif workload.name == "norms-dense":
        closed = math.sin(math.pi * cfg["beta"]) / math.pi
        if not _close(summary["c_beta"], closed, 1e-8):
            problems.append(f"c_beta {summary['c_beta']} != sin(pi beta)/pi = {closed}")
        if not (math.isfinite(summary["ratio"]) and summary["ratio"] <= summary["bound"]):
            problems.append(f"norms ratio {summary['ratio']} exceeds bound {summary['bound']}")
    elif workload.name == "fubini-tv":
        expected_atoms = cfg["options"]["family"]["quadrature"]["n"]
        if summary["n_atoms"] != expected_atoms or summary["per_node"] != n_steps + 1:
            problems.append("fubini report has the wrong atom or node count")
        if not summary["headline"] <= 1e-10 * summary["scale"]:
            problems.append(f"fubini headline {summary['headline']} above 1e-10 * scale")
    elif workload.name == "convolve-export":
        csv = summary["csv"]
        if sorted(csv) != ["direct", "factorized"]:
            problems.append(f"CSV methods {sorted(csv)}")
        for method, entry in csv.items():
            if entry["rows"] != n_paths * (n_steps + 1):
                problems.append(f"{method}: {entry['rows']} CSV rows")
            if entry["start_abs"] != 0.0 or not math.isfinite(entry["sumsq"]):
                problems.append(f"{method}: nonzero X(0) or non-finite values")
    return problems


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def reference_values(workload, summary: dict) -> dict:
    """The subset of a summary that is pinned as a reference."""
    if workload.name == "heat-spde":
        return {"estimates": summary["estimates"]}
    if workload.name == "factorize-ladder":
        return {"errors": summary["errors"]}
    if workload.name == "norms-dense":
        return {"ratio": summary["ratio"]}
    if workload.name == "fubini-tv":
        return {"headline": summary["headline"], "scale": summary["scale"]}
    csv = summary["csv"]
    return {"csv_sha256": summary["csv_sha256"],
            "csv_sumsq": {m: csv[m]["sumsq"] for m in sorted(csv)},
            "csv_maxabs": {m: csv[m]["maxabs"] for m in sorted(csv)}}


def check_reference(workload, summary: dict, reference: dict) -> tuple[list[str], list[str]]:
    """Compare with the recorded reference; returns (problems, notes)."""
    got = reference_values(workload, summary)
    want = reference["values"]
    rel = reference["rel_tol"]
    problems, notes = [], []

    def compare(label, a, b):
        if not _close(a, b, rel):
            problems.append(f"{label} = {a!r}, reference {b!r} (rel tol {rel})")

    for key, value in want.items():
        if key == "headline":
            # rounding noise of two reduction orders: an absolute band, not a value
            band = reference["headline_abs_tol_per_scale"] * want["scale"]
            if abs(got[key] - value) > band:
                problems.append(f"headline {got[key]!r} off reference {value!r} by > {band:.3g}")
        elif key == "csv_sha256":
            if got[key] != value:
                notes.append("paths.csv bytes differ from the reference but values "
                             "are checked numerically (last-bit reassociation?)")
        elif isinstance(value, list):
            for i, (a, b) in enumerate(zip(got[key], value)):
                compare(f"{key}[{i}]", a, b)
            if len(got[key]) != len(value):
                problems.append(f"{key} has {len(got[key])} entries, reference {len(value)}")
        elif isinstance(value, dict):
            for sub in value:
                compare(f"{key}.{sub}", got[key].get(sub, float("nan")), value[sub])
        else:
            compare(key, got[key], value)
    return problems, notes
