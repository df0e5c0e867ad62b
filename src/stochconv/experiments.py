"""Named experiment presets executed by the command-line runner.

Every preset consumes a validated ``ScenarioConfig`` and returns its report
fields, whether its invariant checks passed, and its plot-ready CSV tables;
``run_experiment`` writes them as deterministic artifacts (a schema-versioned
JSON report plus CSV files) into an output directory.  Artifacts contain no
timestamps, so identical configs reproduce identical bytes.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import replace

import numpy as np

from . import convolution as conv
from . import measures
from ._parallel import path_blocks
from .config import (
    ScenarioConfig, _is_finite, _number, _numbers, _positive_int, _positive_ints, _require,
)
from .errors import ConfigError, StochConvError
from .fubini import FubiniFamily, fubini_report
from .hilbert import SpectralOperator, apply_operator, semigroup_eval
from .ito import export_paths_csv, path_sup_norms, step_matrices
from .noise import coarsen_increments, increment_rows, sample_increments
from .norms import (
    estimate_lpq, estimate_lpqr, integral_norm_estimate, singular_kernel_field, slice_time_norms,
)

__all__ = ["run_experiment", "run_convolve", "write_json"]


def _json_default(obj):
    """JSON form of a numpy array, integer or bool; np.float64 is a float already."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_json(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True, indent=2, default=_json_default)
        fh.write("\n")


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def _cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _envelope(cfg: ScenarioConfig) -> dict:
    return {
        "schema": "1",
        "experiment": cfg.experiment,
        "config_hash": cfg.config_hash,
        "seed": cfg.seed,
    }


def _sample_noise(cfg: ScenarioConfig, seed=None):
    return sample_increments(
        cfg.noise_spec,
        cfg.grid,
        cfg.seed if seed is None else seed,
        cfg.n_paths,
        workers=cfg.workers,
    )


def _request(cfg: ScenarioConfig, noise) -> conv.ConvolutionRequest:
    return conv.ConvolutionRequest(
        phi=cfg.integrand, semigroup=cfg.semigroup, noise=noise, beta=cfg.beta, r=cfg.r
    )


def _diagonal_scenario(cfg: ScenarioConfig):
    """Rates, covariance and integrand eigenvalues for mode-wise presets."""
    if cfg.semigroup.rates is None:
        raise ConfigError("this experiment requires a diagonal semigroup")
    # a spectral integrand already has dims.U == dims.H
    phi = cfg.integrand.constant
    if not isinstance(phi, SpectralOperator):
        raise ConfigError("this experiment requires a constant diagonal integrand")
    return cfg.semigroup.rates, cfg.noise_spec.q_eigenvalues, phi.eigenvalues


def _ou_variance(rate: float, q: float, f: float, t):
    """Variance f^2 q (1 - e^(-2 rate t)) / (2 rate) of one mode of the direct convolution.

    ``expm1`` keeps the limit f^2 q t of a small rate t, where 1 - exp cancels to 0.
    """
    if rate == 0.0:
        return f * f * q * t
    return f * f * q * -np.expm1(-2.0 * rate * t) / (2.0 * rate)


def _sample_variance_in_place(values: np.ndarray) -> np.ndarray:
    """``np.var(values, axis=0, ddof=1)`` by the same ufuncs, overwriting ``values``.

    ``np.var`` holds a temporary ``values - mean`` as large as ``values``; here
    the centered squares are written over ``values``.
    """
    n = values.shape[0]
    mean = np.add.reduce(values, axis=0, keepdims=True)
    np.true_divide(mean, n, out=mean)
    np.subtract(values, mean, out=values)
    np.square(values, out=values)
    total = np.add.reduce(values, axis=0)
    return np.true_divide(total, n - 1, out=total)


def _variance_check(cfg: ScenarioConfig):
    """Sample variances of X(T) per mode against the OU closed form, and the mode-0 curve.

    The direct recursion runs on noise drawn one step block at a time
    (``increment_rows``), max(1, BLOCK_ELEMENTS // (P d)) steps a block, so
    neither the increments nor the (P, N + 1, d) values exist, nor a (P, N + 1)
    array of mode 0: each block holds all P paths of its steps, so its columns
    of the mode-0 curve are reduced in place on a contiguous (P, s) copy, made
    in one buffer that every block reuses, and the run keeps X(T) and the
    curve's N + 1 values.  A one-step block is padded to two columns, because
    numpy reduces a lone (P, 1) column pairwise, not row by row as it reduces
    every column of a wider array.  The spectral Phi multiplies each
    path-major block into the recursion's time-major rows elementwise, so the
    bytes are those of ``sample_increments``, ``direct_convolution`` and ``np.var`` over the full
    values.  ``n_paths`` < 2 is refused before any noise is drawn.
    """
    rates, q_eig, phi_eig = _diagonal_scenario(cfg)
    if cfg.n_paths < 2:  # before any noise is sampled
        raise ConfigError(f"key 'n_paths' in config must be >= 2 for a variance, got {cfg.n_paths}")
    n_paths, n_steps, dim = cfg.n_paths, cfg.grid.n_steps, len(rates)
    phi = cfg.integrand.constant

    def fill(start, stop, out):
        dw = increment_rows(
            cfg.noise_spec, cfg.grid, cfg.seed, n_paths, start, stop, workers=cfg.workers
        )
        apply_operator(phi, dw.swapaxes(0, 1), out=out)

    step = semigroup_eval(cfg.semigroup, cfg.grid.dt)
    blocks = path_blocks(n_steps, n_paths * dim)
    emp_curve = np.zeros(n_steps + 1)  # X(0) = 0 on every path: its variance is 0.0
    copies = np.empty(n_paths * max(blocks[0][1] - blocks[0][0], 2))
    for start, stop, block in conv.direct_recursion(step, n_paths, dim, blocks, fill):
        width = stop - start
        mode0 = copies[: n_paths * max(width, 2)].reshape(n_paths, -1)
        mode0[:, :width] = block[:, :, 0].T
        mode0[:, width:] = 0.0  # the pad of a one-step block: see the docstring
        emp_curve[start + 1 : stop + 1] = _sample_variance_in_place(mode0)[:width]
    final = block[-1]  # X(T), shape (P, d)
    n = final.shape[0]
    estimates = np.var(final, axis=0, ddof=1)
    centered = final - final.mean(axis=0)
    m2 = np.mean(centered**2, axis=0)
    m4 = np.mean(centered**4, axis=0)
    ses = np.sqrt(np.maximum(m4 - m2**2, 0.0) / n)
    closed = np.array([_ou_variance(*m, cfg.grid.horizon) for m in zip(rates, q_eig, phi_eig)])
    tolerances = np.maximum(4.0 * ses, 0.02 * closed)
    deviations = np.abs(estimates - closed)
    ok = bool(np.all(deviations <= tolerances))

    header = ["mode", "rate", "q", "estimate", "closed_form", "se", "tolerance"]
    rows = list(zip(range(len(rates)), rates, q_eig, estimates, closed, ses, tolerances))
    modes = [
        dict(zip(header, row), ok=bool(deviations[k] <= tolerances[k]))
        for k, row in enumerate(rows)
    ]
    fields = {"n_paths": n, "dt": cfg.grid.dt, "modes": modes}
    # plot-ready variance-in-time curve for the first mode
    nodes = cfg.grid.nodes
    closed_curve = _ou_variance(rates[0], q_eig[0], phi_eig[0], nodes)
    tables = {
        f"{cfg.experiment}_modes.csv": (header, rows),
        f"{cfg.experiment}_mode0_curve.csv": (
            ["t", "empirical_var", "closed_form_var"],
            zip(nodes, emp_curve, closed_curve),
        ),
    }
    return fields, ok, tables


def _build_family(cfg: ScenarioConfig) -> FubiniFamily:
    spec = _require({"family": {}, **cfg.options}, "family", dict, "options")
    kind = spec.get("kind", "scaled_constant")
    if kind != "scaled_constant":
        raise ConfigError(f"unknown family kind {kind!r}")
    if "quadrature" in spec:
        where = "options.family.quadrature"
        quadrature = _require(spec, "quadrature", dict, "options.family")
        rule = {"n": 16, "interval": [0.0, 1.0], **quadrature}
        n_atoms = _positive_int(rule, "n", where)
        interval = rule["interval"]
        if not (isinstance(interval, list) and len(interval) == 2
                and all(_is_finite(v) for v in interval) and interval[0] < interval[1]):
            raise ConfigError(f"key 'interval' in {where} must be two finite numbers lo < hi")
        lo, hi = float(interval[0]), float(interval[1])
        if not np.isfinite(hi - lo):
            raise ConfigError(f"key 'interval' in {where} must have a finite width hi - lo")
        h = (hi - lo) / n_atoms
        if h == 0.0:
            raise ConfigError(
                f"key 'interval' in {where} gives a step (hi - lo) / n of 0 over n={n_atoms} atoms"
            )
        name = rule.get("rule", "midpoint")
        if name == "midpoint":
            atoms = lo + (np.arange(n_atoms) + 0.5) * h
        elif name == "left":
            atoms = lo + np.arange(n_atoms) * h
        else:
            raise ConfigError(f"unknown quadrature rule {name!r}")
        weights = np.full(n_atoms, h)
    else:
        atoms = _numbers({"atoms": [1.0], **spec}, "atoms", "options.family")
        weights = _numbers({"weights": [1.0] * len(atoms), **spec}, "weights", "options.family")
        if atoms.shape != weights.shape:
            raise ConfigError("family atoms and weights must align")
    _check_family_bound(cfg, weights, atoms)
    return FubiniFamily(tuple(atoms), weights, (cfg.integrand,) * len(atoms), scales=atoms)


_DRAW_CAP = 8.58  # sqrt(-2 ln 2^-53), the sampler's largest |standard draw|, rounded up


def _check_family_bound(cfg: ScenarioConfig, weights: np.ndarray, scales: np.ndarray) -> None:
    """Refuse a family whose integrals could overflow, before any noise is drawn.

    Every value of either side is at most N * sum_j w_j |s_j| * max_i max_h
    sum_u |Phi_i[h, u]| * 8.58 sqrt(q_u dt), since no draw exceeds 8.58 in size.
    """
    grid = cfg.grid
    mats = step_matrices(cfg.integrand, grid.n_steps)
    draw = _DRAW_CAP * np.sqrt(cfg.noise_spec.q_eigenvalues * grid.dt)
    step = max(1, 1024 // mats[0].size)  # nodes at a time: no copy of the node table
    with np.errstate(over="ignore", invalid="ignore"):
        row = max(float(np.max(np.abs(mats[i : i + step]) @ draw))
                  for i in range(0, len(mats), step))
        bound = grid.n_steps * np.sum(weights * np.abs(scales)) * row
    if not np.isfinite(bound):
        raise ConfigError(
            "options.family gives integrals without a finite bound: "
            "N * sum_j w_j |s_j| * max |Phi_i dW| overflows"
        )


def _run_fubini(cfg: ScenarioConfig):
    family = _build_family(cfg)
    noise = _sample_noise(cfg)
    report_obj = fubini_report(family, noise)
    scale = report_obj.meta["scale"]
    headline = report_obj.sup_abs
    relative = headline / scale if scale > 0.0 else 0.0
    ok = relative <= 1e-10

    fields = {
        "headline": headline,
        "per_node": list(report_obj.per_node_mean_abs),
        "scale": scale,
        "relative": relative,
        "n_atoms": family.n_atoms,
    }
    per_node = zip(cfg.grid.nodes, report_obj.per_node_mean_abs)
    return fields, ok, {"fubini_per_node.csv": (["t", "mean_abs_difference"], per_node)}


def _holder_bound(cfg: ScenarioConfig) -> float:
    """The constant C of the exact pathwise smoothing bound sup |Z| <= C ||Y||_{L^r}."""
    return (
        conv.c_beta(cfg.beta)
        * cfg.semigroup.bound
        * conv.smoothing_bound_factor(cfg.beta, cfg.r, cfg.grid.horizon)
    )


def _holder_violations(rough, smoothed, bound: float, r: float) -> int:
    """Count paths violating the exact pathwise smoothing bound of constant ``bound``."""
    sups = path_sup_norms(smoothed)
    rough_norms = conv.left_lr_norm(rough, r)
    return int(np.sum(sups > bound * rough_norms + 1e-10))


def _factorized_discrepancy(cfg: ScenarioConfig, noise, bound: float):
    """Per-node discrepancy of the direct and the factorized convolution, and the Hoelder count.

    The direct convolution runs over all P paths: the recursion makes one
    ``apply_operator`` call per step over all of them.  The factorized side,
    the per-node discrepancy (``conv.DiscrepancySums``) and the Hoelder count
    then run one ``path_blocks(P, (N + 1) d)`` block at a time, so the direct
    values and ``noise`` are the only arrays over all P paths.  Each path's
    values do not depend on its block, except that BLAS may sum a dense Phi's
    products over dim_U in another order for another number of paths.
    """
    direct = conv.direct_convolution(_request(cfg, noise)).values
    sums = conv.DiscrepancySums(noise.grid)
    violations = 0
    for start, stop in path_blocks(noise.n_paths, direct[0].size):
        block = replace(noise, increments=noise.increments[start:stop])
        rough = conv.kernel_convolution(_request(cfg, block))
        smoothed = conv.factorization_smoothing(rough, cfg.semigroup, cfg.beta, cfg.r)
        sums.add(direct[start:stop], smoothed.values)
        violations += _holder_violations(rough, smoothed, bound, cfg.r)
    return sums.report({"seed": cfg.seed}), violations


def _run_factorize_compare(cfg: ScenarioConfig):
    opts = {"refinement_factors": [4, 2, 1], "final_threshold": 0.05, **cfg.options}
    factors = _positive_ints(opts, "refinement_factors", "options")
    threshold = _number(opts, "final_threshold", "options")
    if not factors or factors[-1] != 1 or any(a <= b for a, b in zip(factors, factors[1:])):
        raise ConfigError("key 'refinement_factors' in options must decrease strictly to 1")
    if any(cfg.grid.n_steps % factor for factor in factors):
        raise ConfigError(f"key 'refinement_factors' in options must divide N={cfg.grid.n_steps}")
    if cfg.integrand.kind != "constant":
        raise ConfigError("factorize-compare requires a constant integrand")
    bound = _holder_bound(cfg)
    fine_noise = _sample_noise(cfg)
    rows = []
    errors = []
    violations = 0
    tables = {}
    for factor in factors:
        noise = coarsen_increments(fine_noise, factor)
        report_obj, count = _factorized_discrepancy(cfg, noise, bound)
        grid = noise.grid
        del noise  # before the next factor's noise is made
        err = report_obj.max_node_mean
        errors.append(err)
        violations += count
        rows.append((grid.dt, grid.n_steps, err, report_obj.sup_abs))
        tables[f"factorize_per_node_N{grid.n_steps}.csv"] = (
            ["t", "mean_abs_difference"],
            zip(grid.nodes, report_obj.per_node_mean_abs),
        )
    monotone = all(errors[i + 1] < errors[i] for i in range(len(errors) - 1))
    ok = monotone and errors[-1] < threshold and violations == 0

    header = ["dt", "n_steps", "error", "sup_abs"]
    fields = {
        "resolutions": [dict(zip(header, row)) for row in rows],
        "monotone_decrease": monotone,
        "final_error": errors[-1],
        "final_threshold": threshold,
        "holder_violations": violations,
    }
    tables["factorize_errors.csv"] = (header, rows)
    return fields, ok, tables


def _run_constants(cfg: ScenarioConfig):
    default = [round(0.1 * k, 1) for k in range(1, 10)]
    betas = _numbers({"betas": default, **cfg.options}, "betas", "options").tolist()
    if not betas or not all(0.0 < beta < 1.0 for beta in betas):
        raise ConfigError("key 'betas' in options must be a non-empty list of numbers in (0, 1)")
    rows = []
    max_closed_diff = 0.0
    max_sym_diff = 0.0
    max_unit_diff = 0.0
    for beta in betas:
        quad = conv.beta_integral(beta)
        value = 1.0 / quad
        closed = math.sin(math.pi * beta) / math.pi
        partner = conv.c_beta(1.0 - beta)
        max_closed_diff = max(max_closed_diff, abs(value - closed))
        max_sym_diff = max(max_sym_diff, abs(value - partner))
        max_unit_diff = max(max_unit_diff, abs(value * quad - 1.0))
        rows.append((beta, value, closed, abs(value - closed), abs(value - partner)))
    ok = max_closed_diff <= 1e-8 and max_sym_diff <= 1e-10 and max_unit_diff <= 1e-9

    header = ["beta", "c_beta", "closed_form", "closed_form_diff", "symmetry_diff"]
    fields = {
        "values": [dict(zip(header[:3], row)) for row in rows],
        "max_closed_form_diff": max_closed_diff,
        "max_symmetry_diff": max_sym_diff,
        "max_unit_product_diff": max_unit_diff,
    }
    return fields, ok, {"constants_table.csv": (header, rows)}


def _run_norms(cfg: ScenarioConfig):
    semigroup, phi = cfg.semigroup, cfg.integrand
    space_u = cfg.noise_spec.space
    weight = SpectralOperator(space_u, space_u, cfg.noise_spec.q_eigenvalues)
    # deterministic, so first: a field that overflows is refused before sampling, and
    # the field is freed before the noise and the convolutions are built
    field = singular_kernel_field(phi, semigroup, cfg.grid, cfg.beta, weight=weight)
    field_norm = estimate_lpqr(field, cfg.p, cfg.q, cfg.r, seed=cfg.seed + 3)
    slice_norms = slice_time_norms(field, cfg.q)
    del field
    noise = _sample_noise(cfg)
    request = _request(cfg, noise)
    direct_lpq = estimate_lpq(conv.direct_convolution(request), cfg.p, cfg.q, seed=cfg.seed + 1)
    smoothed = conv.factorized_convolution(request)
    smoothed_lrr = estimate_lpq(smoothed, cfg.r, cfg.r, seed=cfg.seed + 2)
    j_estimate = integral_norm_estimate(phi, semigroup, noise, cfg.beta, slice_norms, cfg.r)

    c_beta = conv.c_beta(cfg.beta)
    time_factor = conv.smoothing_bound_factor(cfg.beta, cfg.r, cfg.grid.horizon)
    bound = cfg.grid.horizon ** (1.0 / cfg.r) * c_beta * semigroup.bound * time_factor * j_estimate
    ratio = smoothed_lrr.estimate / field_norm.estimate if field_norm.estimate > 0 else 0.0
    ok = bool(np.isfinite(smoothed_lrr.estimate)) and ratio <= bound

    fields = {
        "direct_lpq": direct_lpq.to_json(),
        "factorized_lrr": smoothed_lrr.to_json(),
        "singular_field_lpqr": field_norm.to_json(),
        "ratio": ratio,
        "bound_constant": {
            "c_beta": c_beta,
            "semigroup_bound": semigroup.bound,
            "semigroup_sampled_bound": semigroup.sampled_bound,
            "time_factor": time_factor,
            "integral_norm_estimate": j_estimate,
            "bound": bound,
        },
    }
    summary = [
        ("direct_lpq", direct_lpq.estimate, direct_lpq.standard_error),
        ("factorized_lrr", smoothed_lrr.estimate, smoothed_lrr.standard_error),
        ("singular_field_lpqr", field_norm.estimate, field_norm.standard_error),
        ("ratio", ratio, 0.0),
        ("bound", bound, 0.0),
    ]
    return fields, ok, {"norms_summary.csv": (["quantity", "estimate", "se"], summary)}


def _random_kernel(rng) -> measures.KernelSpec:
    n1, n2 = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    weights = rng.uniform(0.0, 2.0, n2)
    if rng.uniform() < 0.15:
        weights[rng.integers(0, n2)] = 0.0
    masses = rng.uniform(0.0, 2.0, (n2, n1))
    base = measures.DiscreteMeasureSpace(tuple(range(n2)), weights)
    return measures.KernelSpec(base, tuple(range(n1)), masses)


def _run_measure_props(cfg: ScenarioConfig):
    n_cases = _positive_int({"n_cases": 1000, **cfg.options}, "n_cases", "options")
    rng = np.random.default_rng(cfg.seed)
    max_holder_excess = -np.inf
    max_minkowski_excess = -np.inf
    for _ in range(n_cases):
        kernel = _random_kernel(rng)
        n1, n2 = len(kernel.d1_points), len(kernel.base.points)
        f = measures.DiscreteFunction(rng.normal(0.0, 1.0, (n1, n2)))
        p = float(rng.uniform(1.0, 4.0)) if rng.uniform() > 0.2 else 1.0
        q = float(rng.uniform(1.0, 4.0)) if rng.uniform() > 0.2 else 1.0
        lhs = measures.abs_integral(f, kernel)
        rhs = measures.holder_constant(kernel, p, q) * measures.lpq_norm(f, kernel, p, q)
        max_holder_excess = max(max_holder_excess, lhs - rhs * (1.0 + 1e-12))

        n_atoms = int(rng.integers(1, 5))
        mu = rng.uniform(0.0, 2.0, n_atoms)
        g = rng.uniform(0.0, 2.0, (n1, n2, n_atoms))
        mixed = measures.DiscreteFunction(np.einsum("aby,y->ab", g, mu))
        lhs_m = measures.lpq_norm(mixed, kernel, p, q)
        rhs_m = sum(
            mu[y] * measures.lpq_norm(measures.DiscreteFunction(g[:, :, y]), kernel, p, q)
            for y in range(n_atoms)
        )
        max_minkowski_excess = max(max_minkowski_excess, lhs_m - rhs_m * (1.0 + 1e-12))
    c11 = measures.holder_constant(_random_kernel(rng), 1.0, 1.0)
    ok = max_holder_excess <= 0.0 and max_minkowski_excess <= 0.0 and c11 == 1.0

    fields = {
        "n_cases": n_cases,
        "max_holder_excess": max_holder_excess,
        "max_minkowski_excess": max_minkowski_excess,
        "c_1_1": c11,
    }
    summary = [
        ("holder_domination", max_holder_excess),
        ("minkowski_integral", max_minkowski_excess),
    ]
    return fields, ok, {
        "measure-kernel-props_summary.csv": (["property", "worst_excess"], summary)
    }


_RUNNERS = {
    "ou-check": _variance_check,
    "heat-spde": _variance_check,
    "fubini": _run_fubini,
    "factorize-compare": _run_factorize_compare,
    "constants": _run_constants,
    "norms": _run_norms,
    "measure-kernel-props": _run_measure_props,
}


def run_experiment(cfg: ScenarioConfig, out_dir: str):
    """Run one named preset and write its artifacts; returns (report dict, checks passed).

    Each runner returns ``(fields, ok, tables)``; this function alone writes
    ``{experiment}_report.json`` (the envelope, the fields and ``all_ok``) and
    one CSV per ``tables`` entry ``name -> (header, rows)``.
    """
    os.makedirs(out_dir, exist_ok=True)
    runner = _RUNNERS.get(cfg.experiment)
    if runner is None:
        raise ConfigError(f"no runner for experiment {cfg.experiment!r}")
    fields, ok, tables = runner(cfg)
    report = {**_envelope(cfg), **fields, "all_ok": ok}
    write_json(os.path.join(out_dir, f"{cfg.experiment}_report.json"), report)
    for name, (header, rows) in tables.items():
        _write_csv(os.path.join(out_dir, name), header, rows)
    return report, ok


def run_convolve(cfg: ScenarioConfig, method: str, out_path: str, check: bool):
    """Convolve the configured scenario and export paths as CSV.

    Returns True when all requested invariants hold (always True when
    ``check`` is False).
    """
    if method not in ("direct", "factorized", "both"):
        raise ConfigError(f"method must be direct, factorized or both, got {method!r}")
    if method != "direct":  # before any noise is sampled
        conv.check_admissible(cfg.beta, cfg.r)
    folder = os.path.dirname(out_path) or "."
    if not os.path.isdir(folder):  # so is the path: the writer opens it after both convolutions
        raise StochConvError(f"cannot write {out_path!r}: {folder!r} is not a directory")
    if os.path.isdir(out_path):
        raise StochConvError(f"cannot write {out_path!r}: it is a directory")
    request = _request(cfg, _sample_noise(cfg))
    outputs = {}
    ok = True
    if method in ("direct", "both"):
        outputs["direct"] = conv.direct_convolution(request)
    if method in ("factorized", "both"):
        rough = conv.kernel_convolution(request)
        smoothed = conv.factorization_smoothing(rough, cfg.semigroup, cfg.beta, cfg.r)
        outputs["factorized"] = smoothed
        if check:
            ok = _holder_violations(rough, smoothed, _holder_bound(cfg), cfg.r) == 0
    export_paths_csv(outputs, out_path)
    return ok
