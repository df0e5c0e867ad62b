"""factorize-compare in path blocks against its all-path oracle, and compare against np.mean."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochconv import _parallel, experiments
from stochconv import convolution as conv
from stochconv.config import parse_config
from stochconv.ito import PathEnsemble, path_sup_norms
from stochconv.noise import TimeGrid, coarsen_increments

# ------------------------------------------------------------------ oracles


def _all_path_compare(a, b, meta=None):
    """``compare`` before it walked path blocks: one |a - b| array and ``np.mean``."""
    diff = np.sqrt(np.sum((a.values - b.values) ** 2, axis=-1))
    info = {"dim": a.dim, "n_paths": a.n_paths}
    info.update(meta or {})
    return conv.DiscrepancyReport(
        per_node_mean_abs=np.mean(diff, axis=0),
        sup_abs=float(np.max(diff)) if diff.size else 0.0,
        dt=a.grid.dt,
        meta=info,
    )


def _all_path_holder_violations(rough, smoothed, semigroup, beta, r):
    bound_factor = (
        conv.c_beta(beta)
        * semigroup.bound
        * conv.smoothing_bound_factor(beta, r, rough.grid.horizon)
    )
    sups = path_sup_norms(smoothed)
    rough_norms = conv.left_lr_norm(rough, r)
    return int(np.sum(sups > bound_factor * rough_norms + 1e-10))


def _all_path_factorize_compare(cfg):
    """The factorize-compare runner with every stage over all P paths at once."""
    factors = cfg.options["refinement_factors"]
    threshold = cfg.options["final_threshold"]
    fine_noise = experiments._sample_noise(cfg)
    rows, errors, violations, tables = [], [], 0, {}
    for factor in factors:
        noise = coarsen_increments(fine_noise, factor)
        request = experiments._request(cfg, noise)
        direct = conv.direct_convolution(request)
        rough = conv.kernel_convolution(request)
        smoothed = conv.factorization_smoothing(rough, cfg.semigroup, cfg.beta, cfg.r)
        report_obj = _all_path_compare(direct, smoothed, meta={"seed": cfg.seed})
        err = report_obj.max_node_mean
        errors.append(err)
        violations += _all_path_holder_violations(rough, smoothed, cfg.semigroup, cfg.beta, cfg.r)
        rows.append((noise.grid.dt, noise.grid.n_steps, err, report_obj.sup_abs))
        tables[f"factorize_per_node_N{noise.grid.n_steps}.csv"] = (
            ["t", "mean_abs_difference"],
            zip(noise.grid.nodes, report_obj.per_node_mean_abs),
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


def _materialized(result):
    fields, ok, tables = result
    return fields, ok, {name: (header, list(rows)) for name, (header, rows) in tables.items()}


def _numbers(result):
    """Every float of a runner's fields and tables, in a fixed order."""
    fields, _, tables = result
    out = [fields["final_error"]]
    for res in fields["resolutions"]:
        out += [res["dt"], res["error"], res["sup_abs"]]
    for name in sorted(tables):
        out += [float(v) for row in tables[name][1] for v in row]
    return np.array(out)


def _config(n_paths, n_steps, factors, dim_u, dim_h, dense_phi, dense_s, seed, rng):
    if dense_s:
        generator = -np.diag(rng.uniform(0.5, 3.0, dim_h)) + 0.5 * rng.normal(size=(dim_h, dim_h))
        semigroup = {"kind": "dense", "generator": generator.tolist()}
    else:
        semigroup = {"kind": "diagonal", "rates": rng.uniform(0.0, 5.0, dim_h).tolist()}
    if dense_phi:
        operator = {"kind": "dense", "rows": rng.normal(size=(dim_h, dim_u)).tolist()}
    else:
        operator = {"kind": "diagonal", "eigenvalues": rng.uniform(0.5, 2.0, dim_h).tolist()}
    return parse_config({
        "experiment": "factorize-compare",
        "dims": {"U": dim_u, "H": dim_h},
        "grid": {"T": 1.0, "N": n_steps},
        "semigroup": semigroup,
        "q_eigenvalues": rng.uniform(0.2, 1.0, dim_u).tolist(),
        "integrand": {"kind": "constant", "operator": operator},
        "exponents": {"p": 2.0, "q": 2.0, "r": 4.0},
        "beta": 0.3,
        "seed": seed,
        "n_paths": n_paths,
        "options": {"refinement_factors": factors, "final_threshold": 0.05},
    })


@st.composite
def _cases(draw):
    n_steps = draw(st.integers(1, 12))
    divisors = [k for k in range(n_steps, 1, -1) if n_steps % k == 0]
    coarse = draw(st.lists(st.sampled_from(divisors), unique=True, max_size=2)) if divisors else []
    factors = sorted(coarse, reverse=True) + [1]
    dense_phi = draw(st.booleans())
    dim_h = draw(st.integers(1, 4))
    dim_u = draw(st.integers(1, 4)) if dense_phi else dim_h
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cfg = _config(
        draw(st.integers(1, 7)), n_steps, factors, dim_u, dim_h, dense_phi,
        draw(st.booleans()), draw(st.integers(0, 1000)), rng,
    )
    return cfg, dense_phi


# up to 7 paths and BLOCK_ELEMENTS from 1 up give one path, one-path blocks and short last
# blocks; n = 1 occurs at the coarsest factor of N = 2, 3, ...
@given(case=_cases(), block_elements=st.sampled_from([1, 5, 9, 24, 100, _parallel.BLOCK_ELEMENTS]))
@settings(max_examples=150, deadline=None)
def test_block_runner_is_the_all_path_runner(case, block_elements):
    cfg, dense_phi = case
    with mock.patch.object(_parallel, "BLOCK_ELEMENTS", block_elements):
        fast = _materialized(experiments._run_factorize_compare(cfg))
    oracle = _materialized(_all_path_factorize_compare(cfg))
    if not dense_phi or cfg.noise_spec.space.dim == 1:
        assert repr(fast) == repr(oracle)
        return
    # a dense Phi's products Phi dW sum over dim_U >= 2 in the BLAS order of the block
    # size, so they move in the last bits (1 ulp of the largest number in a probe of
    # 120 runs); the rest of the run is linear in them
    fast_numbers, oracle_numbers = _numbers(fast), _numbers(oracle)
    scale = max(1.0, float(np.max(np.abs(oracle_numbers))))
    assert np.max(np.abs(fast_numbers - oracle_numbers)) <= 1e-12 * scale
    assert fast[0]["holder_violations"] == oracle[0]["holder_violations"]


@pytest.mark.parametrize("shrink", [0.3, 0.35])
def test_block_hoelder_count_is_the_all_path_count_when_paths_violate(shrink):
    # every shipped run counts 0 violations; here sup |Z| / (C ||Y||) is 0.25-0.43 a path,
    # so a bound shrunk to 0.3 or 0.35 of C is broken by some paths and kept by others
    cfg = _config(60, 24, [4, 2, 1], 2, 2, False, False, 31, np.random.default_rng(31))
    true_factor = conv.smoothing_bound_factor
    with mock.patch.object(
        conv, "smoothing_bound_factor", lambda *args: shrink * true_factor(*args)
    ), mock.patch.object(_parallel, "BLOCK_ELEMENTS", 7 * 25 * 2):
        fast = experiments._run_factorize_compare(cfg)[0]["holder_violations"]
        oracle = _all_path_factorize_compare(cfg)[0]["holder_violations"]
    assert fast == oracle
    assert 0 < fast < 3 * 60


@given(
    n_paths=st.integers(1, 9),
    n_steps=st.integers(1, 9),
    dim=st.integers(1, 4),
    block_elements=st.sampled_from([1, 3, 10, 35, _parallel.BLOCK_ELEMENTS]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_compare_in_path_blocks_is_bitwise_np_mean(n_paths, n_steps, dim, block_elements, seed):
    rng = np.random.default_rng(seed)
    grid = TimeGrid(1.0, n_steps)
    shape = (n_paths, n_steps + 1, dim)
    a = PathEnsemble(rng.normal(size=shape) * rng.uniform(0.0, 100.0, (n_paths, 1, 1)), grid)
    b = PathEnsemble(rng.normal(size=shape), grid)
    with mock.patch.object(_parallel, "BLOCK_ELEMENTS", block_elements):
        fast = conv.compare(a, b, meta={"seed": 3})
    oracle = _all_path_compare(a, b, meta={"seed": 3})
    assert fast.per_node_mean_abs.tobytes() == oracle.per_node_mean_abs.tobytes()
    assert fast.sup_abs == oracle.sup_abs
    assert fast.meta == oracle.meta


def test_factorize_compare_keeps_two_full_arrays_and_block_terms():
    # P = 1000, N = 800, d = 1: the direct values and the fine noise are the only
    # (P, N + 1, d) arrays at the last factor; the all-path runner held about 3 times this
    n_paths, n_steps = 1000, 800
    cfg = _config(n_paths, n_steps, [4, 2, 1], 1, 1, False, False, 2024, np.random.default_rng(1))
    experiments._run_factorize_compare(cfg)  # warm caches, such as the quadrature nodes
    tracemalloc.start()
    try:
        experiments._run_factorize_compare(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    full = 8 * n_paths * (n_steps + 1)
    assert peak < 2 * full + 12 * 8 * _parallel.BLOCK_ELEMENTS
