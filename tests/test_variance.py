"""The variance experiments (heat-spde, ou-check) against the full-ensemble pipeline."""

import json
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_variance_check_holds_no_values_array_at_workload_size():
    # the heat-spde workload: X(T), one (P, N + 1) mode-0 array, np.var's copy of it
    # and a step block, not the (P, N, d) increments or the (P, N + 1, d) values
    data = json.loads((CONFIG_DIR / "heat_spde.json").read_text())
    data["n_paths"] = 500
    cfg = parse_config(data)
    n_paths, n_nodes = cfg.n_paths, cfg.grid.n_steps + 1
    tracemalloc.start()
    try:
        experiments._variance_check(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * n_paths * n_nodes * 8
