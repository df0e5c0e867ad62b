"""The variance experiments (heat-spde, ou-check) against the full-ensemble pipeline."""

import json
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from stochconv import _parallel, experiments
from stochconv import convolution as conv
from stochconv.config import parse_config
from stochconv.noise import sample_increments

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _variance_check_oracle(cfg):
    """The full-ensemble pipeline that the step-block stream replaced, kept as its oracle.

    It samples every increment, runs ``direct_convolution`` over the whole
    (P, N + 1, d) values and reduces X(T) and the mode-0 column of those values.
    """
    rates, q_eig, phi_eig = experiments._diagonal_scenario(cfg)
    noise = sample_increments(cfg.noise_spec, cfg.grid, cfg.seed, cfg.n_paths, workers=cfg.workers)
    request = conv.ConvolutionRequest(cfg.integrand, cfg.semigroup, noise, cfg.beta, cfg.r)
    ensemble = conv.direct_convolution(request)
    final = ensemble.values[:, -1, :]
    n = final.shape[0]
    estimates = np.var(final, axis=0, ddof=1)
    centered = final - final.mean(axis=0)
    m2 = np.mean(centered**2, axis=0)
    m4 = np.mean(centered**4, axis=0)
    ses = np.sqrt(np.maximum(m4 - m2**2, 0.0) / n)
    closed = np.array(
        [experiments._ou_variance(*m, cfg.grid.horizon) for m in zip(rates, q_eig, phi_eig)]
    )
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
    nodes = cfg.grid.nodes
    emp_curve = np.var(ensemble.values[:, :, 0], axis=0, ddof=1)
    closed_curve = experiments._ou_variance(rates[0], q_eig[0], phi_eig[0], nodes)
    tables = {
        f"{cfg.experiment}_modes.csv": (header, rows),
        f"{cfg.experiment}_mode0_curve.csv": (
            ["t", "empirical_var", "closed_form_var"],
            zip(nodes, emp_curve, closed_curve),
        ),
    }
    return fields, ok, tables


def _artifact_text(result):
    """The report fields and CSV cells as the writers print them; repr keeps every bit."""
    fields, ok, tables = result
    cells = {
        name: (header, [[experiments._cell(v) for v in row] for row in rows])
        for name, (header, rows) in tables.items()
    }
    return json.dumps(fields, sort_keys=True, default=experiments._json_default), ok, cells


def _config(experiment, n_paths, n_steps, rates, q_eig, phi_eig, seed, workers):
    dim = len(rates)
    return parse_config({
        "experiment": experiment,
        "dims": {"U": dim, "H": dim},
        "grid": {"T": 0.8, "N": n_steps},
        "semigroup": {"kind": "diagonal", "rates": rates},
        "q_eigenvalues": q_eig,
        "integrand": {"kind": "constant", "operator": {"kind": "diagonal", "eigenvalues": phi_eig}},
        "exponents": {"p": 2.0, "q": 2.0, "r": 4.0},
        "beta": 0.3,
        "seed": seed,
        "n_paths": n_paths,
        "workers": workers,
    })


@st.composite
def _variance_configs(draw):
    """heat-spde and ou-check configs, P 2-9, N 1-40, d 1-8; rates and q may be zero."""
    dim = draw(st.integers(1, 8))

    def per_mode(values):
        return draw(st.lists(values, min_size=dim, max_size=dim))

    return _config(
        draw(st.sampled_from(["heat-spde", "ou-check"])),
        draw(st.integers(2, 9)),
        draw(st.integers(1, 40)),
        per_mode(st.one_of(st.just(0.0), st.floats(0.0, 60.0))),
        per_mode(st.one_of(st.just(0.0), st.floats(0.0, 2.0))),
        per_mode(st.floats(-2.0, 2.0)),
        draw(st.integers(0, 2**64 - 1)),
        draw(st.sampled_from([1, 2])),
    )


@given(
    cfg=_variance_configs(),
    block_elements=st.sampled_from([_parallel.BLOCK_ELEMENTS, 1, 5, 24, 100]),
)
@settings(max_examples=300, deadline=None)
def test_step_block_variance_check_is_bitwise_the_full_ensemble_oracle(cfg, block_elements):
    # the module budget gives one block of all steps; 1 gives one-step blocks split into
    # one-path noise blocks (P * d > budget); 5, 24 and 100 give those, or blocks of
    # several steps with a short last block, depending on P * d
    with mock.patch.object(_parallel, "BLOCK_ELEMENTS", block_elements):
        fast = _artifact_text(experiments._variance_check(cfg))
        slow = _artifact_text(_variance_check_oracle(cfg))
    assert fast == slow


@given(
    values=hnp.arrays(
        np.float64,
        st.tuples(st.integers(2, 40), st.integers(1, 12)),
        elements=st.one_of(st.floats(-1e6, 1e6), st.just(0.0), st.just(-0.0)),
    )
)
@example(values=np.full((9, 3), -0.0))
@example(values=np.array([[1e150, -1e-300], [-1e150, 1e-300]]))
@settings(max_examples=300, deadline=None)
def test_in_place_sample_variance_is_bitwise_np_var(values):
    expected = np.var(values, axis=0, ddof=1)
    got = experiments._sample_variance_in_place(values.copy())
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n_steps", [3200, 12800])
def test_variance_check_peak_is_bounded_by_the_block_budget(n_steps):
    # the heat-spde workload (P = 500, d = 8) and four times its steps: X(T), a step
    # block of increments and recursion rows, the sampler's workspace and the N + 1
    # curve; no (P, N + 1) array of mode 0, which alone is 12.8 MB at N = 3200
    data = json.loads((CONFIG_DIR / "heat_spde.json").read_text())
    data["n_paths"] = 500
    data["grid"]["N"] = n_steps
    cfg = parse_config(data)
    sample_increments(cfg.noise_spec, cfg.grid, 0, 1)  # drops this thread's sampler workspace
    tracemalloc.start()
    try:
        experiments._variance_check(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * _parallel.BLOCK_ELEMENTS * 8


@pytest.mark.parametrize("workers", [1, 2])
def test_one_step_blocks_at_the_block_budget_are_bitwise_the_oracle(workers):
    # P * d = 72,000 > BLOCK_ELEMENTS: every step block is one padded step, drawn in
    # two noise path blocks (8,192 paths and 808)
    rates = [1.0, 4.0, 9.0, 16.0, 25.0, 36.0, 49.0, 64.0]
    q_eig = [1.0 / (k + 1) ** 2 for k in range(8)]
    cfg = _config("heat-spde", 9000, 3, rates, q_eig, [1.0] * 8, 99, workers)
    assert _parallel.path_blocks(cfg.grid.n_steps, cfg.n_paths * 8) == [(0, 1), (1, 2), (2, 3)]
    fast = _artifact_text(experiments._variance_check(cfg))
    slow = _artifact_text(_variance_check_oracle(cfg))
    assert fast == slow
