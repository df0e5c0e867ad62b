import copy
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stochconv import ConfigError, cli
from stochconv import config as config_module
from stochconv import experiments
from stochconv.cli import main
from stochconv.config import canonical_hash, load_config, parse_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _base_config():
    return {
        "experiment": "ou-check",
        "dims": {"U": 1, "H": 1},
        "grid": {"T": 1.0, "N": 50},
        "semigroup": {"kind": "diagonal", "rates": [1.0]},
        "q_eigenvalues": [1.0],
        "integrand": {
            "kind": "constant",
            "operator": {"kind": "diagonal", "eigenvalues": [1.0]},
        },
        "exponents": {"p": 2.0, "q": 2.0, "r": 4.0},
        "beta": 0.3,
        "seed": 5,
        "n_paths": 40,
    }


_OP = {"kind": "diagonal", "eigenvalues": [1.0]}


def _write(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_parse_valid_config():
    cfg = parse_config(_base_config())
    assert cfg.experiment == "ou-check"
    assert cfg.grid.n_steps == 50
    assert cfg.workers == 1
    assert len(cfg.config_hash) == 64


def test_config_hash_is_canonical():
    data = _base_config()
    reordered = dict(reversed(list(data.items())))
    assert canonical_hash(data) == canonical_hash(reordered)


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda d: d.pop("experiment"), "experiment"),
        (lambda d: d.update(experiment="unknown"), "unknown"),
        (lambda d: d["dims"].pop("U"), "U"),
        (lambda d: d["dims"].update(H=0), "H"),
        (lambda d: d["grid"].update(T=-1.0), "grid.T"),
        (lambda d: d["grid"].update(N="many"), "N"),
        (lambda d: d["semigroup"].update(kind="banded"), "semigroup"),
        (lambda d: d["semigroup"].update(rates=[-1.0]), "rates"),
        (lambda d: d.update(q_eigenvalues=[1.0, 2.0]), "q_eigenvalues"),
        (lambda d: d.update(q_eigenvalues=[-1.0]), "q_eigenvalues"),
        (lambda d: d["integrand"].update(kind="random"), "integrand"),
        (lambda d: d["exponents"].update(p=0.5), "exponents.p"),
        (lambda d: d["exponents"].update(r=1.0), "exponents.r"),
        (lambda d: d.update(beta=1.2), "beta"),
        (lambda d: d.update(seed=-3), "seed"),
        (lambda d: d.update(n_paths=0), "n_paths"),
        (lambda d: d.update(workers=0), "workers"),
        (lambda d: d.update(options=[1, 2]), "options"),
        # new rows carry explicit ids so that the ids of the rows above stay unchanged
        pytest.param(lambda d: d.update(workers="abc"), "workers", id="workers-str"),
        pytest.param(lambda d: d.update(workers=2.7), "workers", id="workers-float"),
        pytest.param(lambda d: d.update(workers=True), "workers", id="workers-bool"),
        pytest.param(lambda d: d["grid"].update(T=math.nan), "grid.T", id="T-nan"),
        pytest.param(lambda d: d["grid"].update(T=math.inf), "grid.T", id="T-inf"),
        pytest.param(
            lambda d: d["semigroup"].update(rates=[math.nan]), "rates", id="rates-nan"
        ),
        pytest.param(
            lambda d: d["semigroup"].update(rates=[math.inf]), "rates", id="rates-inf"
        ),
        pytest.param(
            lambda d: d.update(semigroup={"kind": "dense", "generator": [[math.nan]]}),
            "generator",
            id="generator-nan",
        ),
        pytest.param(
            lambda d: d.update(q_eigenvalues=[math.inf]), "q_eigenvalues", id="q-inf"
        ),
        pytest.param(
            lambda d: d["integrand"]["operator"].update(eigenvalues=[math.nan]),
            "eigenvalues",
            id="eigenvalues-nan",
        ),
        pytest.param(
            lambda d: d["integrand"].update(operator={"kind": "dense", "rows": [[-math.inf]]}),
            "rows",
            id="rows-inf",
        ),
        pytest.param(lambda d: d["exponents"].update(p=math.nan), "exponents.p", id="p-nan"),
        pytest.param(lambda d: d["exponents"].update(q=math.inf), "exponents.q", id="q-exp-inf"),
        pytest.param(lambda d: d["exponents"].update(r=math.inf), "exponents.r", id="r-inf"),
        pytest.param(lambda d: d.update(beta=math.nan), "beta", id="beta-nan"),
        pytest.param(
            lambda d: d.update(semigroup={"kind": "dense", "generator": [1]}),
            "generator",
            id="generator-row-not-list",
        ),
        pytest.param(
            lambda d: d["integrand"].update(operator={"kind": "dense", "rows": [1]}),
            "rows",
            id="rows-row-not-list",
        ),
        pytest.param(lambda d: d["grid"].update(T=10**400), "grid.T", id="T-int-overflow"),
        pytest.param(
            lambda d: d["semigroup"].update(rates=[10**400]), "rates", id="rates-int-overflow"
        ),
        pytest.param(lambda d: d.update(seed=2**64), "seed", id="seed-2pow64"),
        pytest.param(
            lambda d: d.update(integrand={"kind": "time_varying", "operators": [_OP] * 49}),
            "operators",
            id="operators-fewer-than-N",
        ),
        pytest.param(
            lambda d: d.update(integrand={"kind": "time_varying", "operators": [5] * 50}),
            "operators",
            id="operators-not-objects",
        ),
        pytest.param(
            lambda d: d.update(semigroup={"kind": "dense", "generator": [[1e5]]}),
            "generator",
            id="generator-bound-inf",
        ),
        pytest.param(
            lambda d: d["integrand"].update(operator={"kind": "banded"}),
            "operator",
            id="operator-kind-banded",
        ),
        pytest.param(
            lambda d: d["semigroup"].update(rates=[[1.0]]), "rates", id="rates-nested"
        ),
        pytest.param(
            lambda d: d.update(q_eigenvalues=[[1.0]]), "q_eigenvalues", id="q-nested"
        ),
        pytest.param(
            lambda d: d["integrand"]["operator"].update(eigenvalues=[[1.0]]),
            "eigenvalues",
            id="eigenvalues-nested",
        ),
        pytest.param(
            lambda d: d.update(grid={"T": 1.0, "N": 10**12}, n_paths=10**9),
            "grid.N",
            id="paths-array-unallocatable",
        ),
        pytest.param(lambda d: d["grid"].update(T=5e-324), "grid.T", id="T-step-underflows"),
    ],
)
def test_schema_violations_raise_config_error(mutate, fragment):
    data = copy.deepcopy(_base_config())
    mutate(data)
    with pytest.raises(ConfigError) as excinfo:
        parse_config(data)
    assert fragment.split(".")[-1] in str(excinfo.value)


def test_largest_allocatable_path_array_is_accepted():
    # arithmetic only: parsing allocates nothing of size n_paths x (N + 1)
    data = copy.deepcopy(_base_config())
    data["dims"] = {"U": 2, "H": 2}
    data["semigroup"]["rates"] = [1.0, 1.0]
    data["q_eigenvalues"] = [1.0, 1.0]
    data["integrand"]["operator"]["eigenvalues"] = [1.0, 1.0]
    data["grid"]["N"] = 2**30 - 1
    limit = np.iinfo(np.intp).max // (8 * 2**30 * 2)
    data["n_paths"] = limit
    assert parse_config(data).n_paths == limit
    data["n_paths"] = limit + 1
    with pytest.raises(ConfigError, match="n_paths"):
        parse_config(data)


def test_factorize_compare_needs_admissible_beta():
    data = _base_config()
    data["experiment"] = "factorize-compare"
    data["beta"] = 0.2  # <= 1/r for r = 4
    with pytest.raises(ConfigError):
        parse_config(data)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "nope.json"))


def test_load_config_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_cli_constants_runs_and_checks(tmp_path):
    rc = main(
        ["constants", "--config", str(CONFIG_DIR / "constants.json"),
         "--out", str(tmp_path), "--check"]
    )
    assert rc == 0
    report = json.loads((tmp_path / "constants_report.json").read_text())
    assert report["schema"] == "1"
    assert report["all_ok"] is True
    assert (tmp_path / "constants_table.csv").exists()


def test_cli_invalid_config_exits_one(tmp_path, capsys):
    data = _base_config()
    del data["seed"]
    rc = main(["ou-check", "--config", _write(tmp_path, data), "--out", str(tmp_path)])
    assert rc == 1
    assert "seed" in capsys.readouterr().err


def test_cli_subcommand_config_mismatch_exits_one(tmp_path):
    rc = main(
        ["fubini", "--config", str(CONFIG_DIR / "constants.json"), "--out", str(tmp_path)]
    )
    assert rc == 1


def test_cli_check_failure_exits_two(tmp_path):
    data = _base_config()
    data.update(
        experiment="factorize-compare",
        grid={"T": 1.0, "N": 80},
        n_paths=60,
        options={"refinement_factors": [4, 2, 1], "final_threshold": 1e-12},
    )
    rc = main(
        ["factorize-compare", "--config", _write(tmp_path, data),
         "--out", str(tmp_path), "--check"]
    )
    assert rc == 2
    # without --check the same run reports the failure without failing
    rc = main(
        ["factorize-compare", "--config", _write(tmp_path, data), "--out", str(tmp_path)]
    )
    assert rc == 0


def test_cli_seed_override_changes_artifacts(tmp_path):
    data = _base_config()
    data.update(experiment="fubini", n_paths=10, grid={"T": 1.0, "N": 40})
    data["options"] = {"family": {"kind": "scaled_constant", "atoms": [0.5, 1.5], "weights": [0.5, 0.5]}}
    cfg_path = _write(tmp_path, data)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["fubini", "--config", cfg_path, "--out", str(out_a)]) == 0
    assert main(["fubini", "--config", cfg_path, "--out", str(out_b), "--seed", "99"]) == 0
    rep_a = json.loads((out_a / "fubini_report.json").read_text())
    rep_b = json.loads((out_b / "fubini_report.json").read_text())
    assert rep_a["seed"] == 5 and rep_b["seed"] == 99
    assert rep_a["scale"] != rep_b["scale"]


def test_cli_seed_and_workers_overrides_parse_the_config_once(tmp_path, monkeypatch):
    # each parse builds every object (a dense semigroup runs 257 expm), so one is enough
    builds = []
    build = config_module._semigroup
    monkeypatch.setattr(config_module, "_semigroup", lambda *args: builds.append(args) or build(*args))
    data = _base_config()
    cfg_path = _write(tmp_path, data)
    argv = ["ou-check", "--config", cfg_path, "--out", str(tmp_path), "--seed", "7", "--workers", "2"]
    assert main(argv) == 0
    assert len(builds) == 1
    report = json.loads((tmp_path / "ou-check_report.json").read_text())
    assert report["seed"] == 7
    assert report["config_hash"] == canonical_hash({**data, "seed": 7})


def test_cli_run_hashes_the_config_once(tmp_path, monkeypatch, capsys):
    # the report envelope and the summary line share one hash of the raw config
    hashed = []
    original = config_module.canonical_hash
    monkeypatch.setattr(
        config_module, "canonical_hash", lambda data: hashed.append(data) or original(data)
    )
    data = _base_config()
    assert main(["ou-check", "--config", _write(tmp_path, data), "--out", str(tmp_path)]) == 0
    assert len(hashed) == 1
    report = json.loads((tmp_path / "ou-check_report.json").read_text())
    assert report["config_hash"] == original(data)
    assert f"hash={original(data)[:12]}" in capsys.readouterr().out


def test_cli_workers_do_not_change_artifacts(tmp_path):
    data = _base_config()
    data.update(experiment="fubini", n_paths=600, grid={"T": 1.0, "N": 60})
    data["options"] = {"family": {"kind": "scaled_constant", "atoms": [0.3, 0.7], "weights": [1.0, 2.0]}}
    cfg_path = _write(tmp_path, data)
    blobs = []
    for workers in (1, 3):
        out = tmp_path / f"w{workers}"
        rc = main(
            ["fubini", "--config", cfg_path, "--out", str(out), "--workers", str(workers)]
        )
        assert rc == 0
        blobs.append(
            [
                (out / "fubini_report.json").read_bytes(),
                (out / "fubini_per_node.csv").read_bytes(),
            ]
        )
    assert blobs[0] == blobs[1]


def test_cli_fubini_single_atom_headline_zero(tmp_path):
    data = _base_config()
    data.update(experiment="fubini", n_paths=30)
    data["options"] = {
        "family": {"kind": "scaled_constant", "atoms": [0.73], "weights": [1.9]}
    }
    rc = main(
        ["fubini", "--config", _write(tmp_path, data), "--out", str(tmp_path), "--check"]
    )
    assert rc == 0
    report = json.loads((tmp_path / "fubini_report.json").read_text())
    assert report["headline"] == 0.0


def test_cli_ou_check_full_config(tmp_path):
    rc = main(
        ["ou-check", "--config", str(CONFIG_DIR / "ou_check.json"),
         "--out", str(tmp_path), "--check"]
    )
    assert rc == 0
    report = json.loads((tmp_path / "ou-check_report.json").read_text())
    mode = report["modes"][0]
    assert abs(mode["estimate"] - 0.43233) <= mode["tolerance"] + 1e-5
    assert report["all_ok"] is True


def test_ou_check_closed_form_survives_a_tiny_rate(tmp_path):
    # 1 - exp(-2e-17) rounds to 0; the closed form must still be the f^2 q T limit
    data = json.loads((CONFIG_DIR / "ou_check.json").read_text())
    data["semigroup"]["rates"] = [1e-17]
    data["grid"]["N"], data["n_paths"] = 200, 2000
    argv = ["ou-check", "--config", _write(tmp_path, data), "--out", str(tmp_path), "--check"]
    assert main(argv) == 0
    report = json.loads((tmp_path / "ou-check_report.json").read_text())
    assert report["modes"][0]["closed_form"] == pytest.approx(1.0, rel=1e-15)
    curve = (tmp_path / "ou-check_mode0_curve.csv").read_text().strip().split("\n")[1:]
    for row in curve:
        t, _, closed = map(float, row.split(","))
        assert closed == pytest.approx(t, rel=1e-15)


def test_cli_convolve_exports_csv(tmp_path):
    out_csv = tmp_path / "paths.csv"
    rc = main(
        ["convolve", "--config", str(CONFIG_DIR / "convolve_ou.json"),
         "--method", "both", "--out", str(out_csv), "--check"]
    )
    assert rc == 0
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == "method,path_id,t,coord_0"
    methods = {line.split(",")[0] for line in lines[1:]}
    assert methods == {"direct", "factorized"}
    assert len(lines) == 1 + 2 * 20 * 201


@pytest.mark.parametrize("method", ["factorized", "both"])
def test_convolve_refuses_an_inadmissible_beta_before_sampling(tmp_path, monkeypatch, capsys, method):
    data = _base_config()
    data["beta"] = 0.2  # beta * r = 0.8: the factorization does not apply
    monkeypatch.setattr(
        experiments, "sample_increments", lambda *args, **kw: pytest.fail("noise was sampled")
    )
    out = str(tmp_path / "paths.csv")
    argv = ["convolve", "--config", _write(tmp_path, data), "--method", method, "--out", out]
    assert main(argv) == 1
    assert "requires beta in (1/r, 1)" in capsys.readouterr().err


def _one_error_line(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.name)
def test_every_shipped_config_refuses_a_step_that_underflows(path):
    data = json.loads(path.read_text())
    data["grid"]["T"] = 5e-324
    with pytest.raises(ConfigError, match="grid.T=5e-324"):
        parse_config(data)


def test_the_smallest_positive_step_is_accepted():
    # T = N * 5e-324 is exact, so dt is the smallest subnormal and not 0
    data = _base_config()
    data["grid"]["T"] = 50 * 5e-324
    assert parse_config(data).grid.dt == 5e-324


@pytest.mark.parametrize(
    "name, argv",
    [
        ("factorize_compare.json", ["factorize-compare"]),
        ("norms_ou.json", ["norms"]),
        ("convolve_ou.json", ["convolve", "--method", "factorized"]),
    ],
)
def test_a_horizon_whose_step_underflows_is_refused_before_sampling(
    tmp_path, monkeypatch, capsys, name, argv
):
    # dt = 5e-324 / N is 0.0: the kernel weights 0.0 ** -beta raised ZeroDivisionError
    data = json.loads((CONFIG_DIR / name).read_text())
    data["grid"]["T"] = 5e-324
    monkeypatch.setattr(
        experiments, "sample_increments", lambda *args, **kw: pytest.fail("noise was sampled")
    )
    out = str(tmp_path / "paths.csv") if argv[0] == "convolve" else str(tmp_path)
    assert main([argv[0], "--config", _write(tmp_path, data), *argv[1:], "--out", out]) == 1
    assert "grid.T=5e-324" in _one_error_line(capsys)


def test_a_singular_field_that_overflows_is_refused_before_sampling(tmp_path, monkeypatch, capsys):
    # dt^(-beta) is about 1e307 and finite, but the slice norms overflow: this failed in
    # TwoParameterField with a message that named no input, after both convolutions had run
    data = json.loads((CONFIG_DIR / "norms_ou.json").read_text())
    data["grid"].update(T=1e-310, N=1)
    data["beta"] = 0.99
    monkeypatch.setattr(
        experiments, "sample_increments", lambda *args, **kw: pytest.fail("noise was sampled")
    )
    assert main(["norms", "--config", _write(tmp_path, data), "--out", str(tmp_path)]) == 1
    assert "beta=0.99 with step dt=1e-310" in _one_error_line(capsys)


@pytest.mark.parametrize(
    "name, update",
    [
        ("fubini_midpoint.json", lambda d: d["options"]["family"]["quadrature"].update(n=10**17)),
        ("norms_ou.json", lambda d: d.update(n_paths=10**12)),
    ],
    ids=["quadrature-atoms", "paths"],
)
def test_an_allocation_larger_than_memory_exits_one(tmp_path, capsys, name, update):
    # the first array of each (8e17 and 1.3e15 bytes) exceeds the 47-bit address space,
    # so the allocation fails before any memory is touched
    data = json.loads((CONFIG_DIR / name).read_text())
    update(data)
    argv = [data["experiment"], "--config", _write(tmp_path, data), "--out", str(tmp_path)]
    assert main(argv) == 1
    assert "Unable to allocate" in _one_error_line(capsys)


def test_a_memory_error_without_a_message_says_out_of_memory(tmp_path, monkeypatch, capsys):
    def exhausted(*args, **kw):
        raise MemoryError()

    monkeypatch.setattr(cli, "run_experiment", exhausted)
    argv = ["ou-check", "--config", _write(tmp_path, _base_config()), "--out", str(tmp_path)]
    assert main(argv) == 1
    assert _one_error_line(capsys) == "error: out of memory\n"


def test_convolve_into_a_missing_directory_exits_one(tmp_path, capsys):
    out = str(tmp_path / "missing" / "dir" / "paths.csv")
    argv = ["convolve", "--config", _write(tmp_path, _base_config()), "--method", "direct", "--out", out]
    assert main(argv) == 1
    _one_error_line(capsys)


@pytest.mark.parametrize("sub", ["", "sub"])
def test_experiment_out_through_an_existing_file_exits_one(tmp_path, capsys, sub):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = str(blocker / sub) if sub else str(blocker)
    assert main(["ou-check", "--config", _write(tmp_path, _base_config()), "--out", out]) == 1
    _one_error_line(capsys)


def test_cli_entry_point_subprocess(tmp_path):
    rc = subprocess.run(
        [sys.executable, "-m", "stochconv.cli", "constants",
         "--config", str(CONFIG_DIR / "constants.json"), "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert rc.returncode == 0
    assert "constants" in rc.stdout


def test_cli_seed_override_beyond_uint64_exits_one(tmp_path, capsys):
    cfg_path = _write(tmp_path, _base_config())
    rc = main(["ou-check", "--config", cfg_path, "--out", str(tmp_path),
               "--seed", "18446744073709551616"])
    assert rc == 1
    assert "seed" in capsys.readouterr().err


def _with_options(experiment, options):
    data = _base_config()
    data.update(experiment=experiment, options=options, n_paths=10, grid={"T": 1.0, "N": 8})
    return data


@pytest.mark.parametrize(
    "experiment,options,key",
    [
        pytest.param(
            "fubini", {"family": {"quadrature": {"n": "abc"}}}, "n", id="quadrature-n"
        ),
        pytest.param(
            "fubini",
            {"family": {"quadrature": {"n": 4, "interval": [0.0, math.inf]}}},
            "interval",
            id="quadrature-interval",
        ),
        pytest.param("measure-kernel-props", {"n_cases": "x"}, "n_cases", id="n_cases"),
        pytest.param(
            "factorize-compare", {"final_threshold": "x"}, "final_threshold", id="final_threshold"
        ),
        pytest.param(
            "factorize-compare",
            {"refinement_factors": [4, 2.5, 1]},
            "refinement_factors",
            id="refinement_factors",
        ),
        pytest.param("constants", {"betas": ["x"]}, "betas", id="betas-str"),
        pytest.param("constants", {"betas": 5}, "betas", id="betas-not-list"),
        pytest.param("fubini", {"family": 5}, "family", id="family-not-object"),
        pytest.param("fubini", {"family": {"atoms": ["a"]}}, "atoms", id="atoms-str"),
        pytest.param("fubini", {"family": {"atoms": [[1.0]]}}, "atoms", id="atoms-nested"),
        pytest.param(
            "fubini", {"family": {"atoms": [1.0], "weights": [None]}}, "weights", id="weights-null"
        ),
    ],
)
def test_cli_bad_experiment_option_exits_one(tmp_path, capsys, experiment, options, key):
    data = _with_options(experiment, options)
    rc = main([experiment, "--config", _write(tmp_path, data), "--out", str(tmp_path)])
    assert rc == 1
    assert repr(key) in capsys.readouterr().err


def test_fubini_refuses_a_quadrature_interval_of_overflowing_width(tmp_path, monkeypatch, capsys):
    # each end is finite, but hi - lo is inf: the scaled integrands failed as "must be finite"
    data = _with_options(
        "fubini", {"family": {"quadrature": {"n": 4, "interval": [-1.7e308, 1.7e308]}}}
    )
    monkeypatch.setattr(
        experiments, "sample_increments", lambda *args, **kw: pytest.fail("noise was sampled")
    )
    assert main(["fubini", "--config", _write(tmp_path, data), "--out", str(tmp_path)]) == 1
    assert "'interval'" in _one_error_line(capsys)


@pytest.mark.parametrize(
    "betas", [[], [1.5], [0.3, 0.0], [1.0]], ids=["empty", "above", "zero", "one"]
)
def test_constants_refuses_betas_that_check_nothing_or_leave_0_1(tmp_path, capsys, betas):
    # an empty list passed with nothing checked; 1.5 failed inside beta_integral unnamed
    data = _with_options("constants", {"betas": betas})
    rc = main(["constants", "--config", _write(tmp_path, data), "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "'betas'" in err and "options" in err


@pytest.mark.parametrize(
    "update, key",
    [
        pytest.param(
            {"options": {"refinement_factors": [3, 1]}}, "'refinement_factors'", id="factor-3-of-8"
        ),
        pytest.param(
            {"integrand": {"kind": "time_varying", "operators": [_OP] * 8}},
            "constant integrand",
            id="time-varying",
        ),
    ],
)
def test_factorize_compare_refuses_bad_input_before_sampling(
    tmp_path, monkeypatch, capsys, update, key
):
    data = _with_options("factorize-compare", {})
    data.update(beta=0.5, **update)  # N = 8
    monkeypatch.setattr(
        experiments, "sample_increments", lambda *args, **kw: pytest.fail("noise was sampled")
    )
    rc = main(["factorize-compare", "--config", _write(tmp_path, data), "--out", str(tmp_path)])
    assert rc == 1
    assert key in capsys.readouterr().err



@pytest.mark.parametrize("name", ["heat_spde.json", "ou_check.json", "convolve_ou.json"])
def test_variance_experiments_refuse_one_path_before_sampling(
    tmp_path, monkeypatch, capsys, name
):
    # a sample variance of one path is NaN: it wrote "estimate": NaN into the report
    data = json.loads((CONFIG_DIR / name).read_text())
    data["n_paths"] = 1
    for sampler in ("sample_increments", "increment_rows"):  # ensembles and step blocks
        monkeypatch.setattr(
            experiments, sampler, lambda *args, **kw: pytest.fail("noise was sampled")
        )
    out = tmp_path / "out"
    rc = main([data["experiment"], "--config", _write(tmp_path, data), "--out", str(out)])
    assert rc == 1
    assert "'n_paths'" in capsys.readouterr().err
    assert not list(out.glob("*_report.json"))
