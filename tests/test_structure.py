import ast
import importlib
import importlib.util
import sys
from fnmatch import fnmatch
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "stochconv"


def test_only_hilbert_decides_how_to_evaluate_the_semigroup():
    # S(j dt) is decided by hilbert.lag_table and semigroup_eval; other modules apply them
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "hilbert.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "is_diagonal":
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_only_hilbert_and_ito_read_operator_entries_and_node_tables():
    # other modules take Phi_i from ito.step_matrices, so no other module branches on its kind
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("hilbert.py", "ito.py"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("entries", "node_matrices"):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


SCHEMA_KEYS = {"rates", "generator", "eigenvalues", "rows", "operator", "operators"}


def _key_reads(tree):
    """Line numbers of ``x["key"]`` and ``x.get("key", ...)`` reads of a schema key."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript):
            key = node.slice
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get" and node.args):
            key = node.args[0]
        else:
            continue
        if isinstance(key, ast.Constant) and key.value in SCHEMA_KEYS:
            yield node.lineno


def test_only_config_reads_the_scenario_schema():
    # config.py parses the JSON once into typed objects; everything else reads those
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "config.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.name}:{line}" for line in _key_reads(tree)]
    assert offenders == []


BLOCK_CONSTANTS = ("*_ELEMENTS", "*CHUNK*")


def _assigned_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id, node.lineno


def test_only_parallel_sizes_path_blocks():
    # _parallel.BLOCK_ELEMENTS is the one block budget; other modules call path_blocks
    defined = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, line in _assigned_names(tree):
            if any(fnmatch(name, pattern) for pattern in BLOCK_CONSTANTS):
                defined[f"{path.name}:{line}"] = name
    assert list(defined.values()) == ["BLOCK_ELEMENTS"]
    assert next(iter(defined)).startswith("_parallel.py:")


def _load_tracer():
    """perfbench/tracer.py as a module, read from disk and not registered in sys.modules."""
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_perfbench_trace_target_exists():
    # the benchmark tracer wraps these by name: a moved or renamed one breaks its --trace run
    tracer = _load_tracer()
    missing = []
    for module_name, table in tracer.LAYERS.items():
        module = importlib.import_module(module_name)
        missing += [f"{module_name}.{attr}" for attr in table if not callable(getattr(module, attr, None))]
    for module_name, cls_name, method in tracer.METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name, None)
        if cls is None or method not in vars(cls):
            missing.append(f"{module_name}.{cls_name}.{method}")
    assert missing == []


def test_the_einsum_step_products_live_only_in_the_tests():
    # ito.step_products is one batched matmul; its einsum predecessor is a test oracle
    subscripts = "ihu,piu->pih"
    offenders = [
        str(path.relative_to(ROOT))
        for path in sorted(ROOT.rglob("*.py"))
        if path.relative_to(ROOT).parts[0] != "tests" and subscripts in path.read_text()
    ]
    assert offenders == []
    assert subscripts in (ROOT / "tests" / "test_ito.py").read_text()


def _call_sites(name):
    """``module.py:definition`` for every call of ``name`` in src/, by top-level definition."""
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                if name in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    yield f"{path.name}:{getattr(top, 'name', '<module>')}"


def test_only_frozen_array_freezes_the_arrays_of_value_objects():
    # errors.frozen_array freezes and value-checks every array field; probe_predictability
    # freezes its perturbed copy, and NoiseEnsemble its increments (a view with no value pass)
    assert sorted(_call_sites("setflags")) == [
        "errors.py:frozen_array",
        "ito.py:probe_predictability",
        "noise.py:NoiseEnsemble",
    ]
    assert [path.name for path in SRC.glob("*.py") if "writeable" in path.read_text()] == []


def test_increment_rows_is_the_one_noise_sampler():
    # sample_increments wraps increment_rows: one block loop draws every increment
    assert list(_call_sites("standard_gaussians")) == ["noise.py:increment_rows"]
    assert list(_call_sites("run_over_paths")) == ["noise.py:increment_rows"]


def test_lag_table_is_read_by_the_lag_engine_and_the_singular_slices_only():
    # kernel_table pairs it with the weights for the lag engine and the norms battery;
    # the norms field takes its factors through _slice_terms
    assert sorted(_call_sites("lag_table")) == [
        "convolution.py:kernel_table",
        "norms.py:_slice_terms",
    ]


def test_fubini_tv_fills_each_step_block_with_one_products_call(monkeypatch):
    # 64 time-varying atoms over N = 500 steps: blocks of 500 // 64 = 7 steps, each filled
    # for all 64 atoms by one products call, not by one call per (atom, step block)
    from stochconv import experiments, fubini
    from stochconv.config import parse_config

    spec = importlib.util.spec_from_file_location(
        "_perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up
    spec.loader.exec_module(workloads)
    data = workloads.WORKLOADS["fubini-tv"].config(0)
    data["n_paths"] = 2
    cfg = parse_config(data)
    family, noise = experiments._build_family(cfg), experiments._sample_noise(cfg)
    calls, original = [], fubini._fill_share

    def counting(share, inc, start, stop, rows, buffer):
        calls.append((share[1] - share[0], start, stop))
        return original(share, inc, start, stop, rows, buffer)

    def alone(*args):
        raise AssertionError("an atom was filled on its own")

    monkeypatch.setattr(fubini, "_fill_share", counting)
    monkeypatch.setattr(fubini, "fill_products", alone)
    fubini._both_orders(family, noise)
    n_steps, size = 500, 500 // 64
    assert (family.n_atoms, cfg.grid.n_steps) == (64, n_steps)
    assert calls == [(64, start, min(start + size, n_steps)) for start in range(0, n_steps, size)]
