"""Layer spans recorded from outside the program, by wrapping its functions.

``Tracer.install()`` replaces each layer-boundary function of ``stochconv``
with a timing wrapper.  ``from .x import f`` copies the function object into
every importing module, so patching only the defining module would miss most
calls: the wrapper is installed under every name, in every loaded
``stochconv`` module, that is bound to the original function object.

Each span is ``[name, start, end, parent, info]`` with ``perf_counter``
stamps, the index of the enclosing span (``-1`` at top level) and a small dict
of sizes computed from argument and result shapes.  Spans stay in memory until
the run ends.  ``self_times`` subtracts child spans from their parent.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
import time


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _draws(args, kwargs, result):
    return {"draws": math.prod(result.increments.shape)}


def _lag_info(n_paths, n_steps, dim, diagonal):
    # the lag loop applies S(j dt) to n_steps - j + 1 nodes for j = 1..n_steps
    per_node = dim if diagonal else dim * dim
    return {"N": n_steps, "mults": n_paths * per_node * n_steps * (n_steps + 1) // 2}


def _kernel_info(args, kwargs, result):
    req = _arg(args, kwargs, 0, "req")
    n_paths, n_steps, dim = req.noise.increments.shape
    return _lag_info(n_paths, n_steps, dim, req.semigroup.is_diagonal)


def _smoothing_info(args, kwargs, result):
    y = _arg(args, kwargs, 0, "y")
    semigroup = _arg(args, kwargs, 1, "semigroup")
    n_paths, n_nodes, dim = y.values.shape
    return _lag_info(n_paths, n_nodes - 1, dim, semigroup.is_diagonal)


def _boot_info(args, kwargs, result):
    # _bootstrap_se draws no resamples for a single path or n_boot <= 1
    used = result.n_boot if result.n_boot > 1 and result.n_paths >= 2 else 0
    return {"resamples": used}


# module -> {function name: (span name, info function or None)}
LAYERS = {
    "stochconv.config": {"load_config": ("config.load", None)},
    "stochconv.noise": {
        "sample_increments": ("noise.sample", _draws),
        "coarsen_increments": ("noise.coarsen", None),
    },
    "stochconv.ito": {
        "integrand_products": ("ito.products", None),
        "ito_integrate": ("ito.integrate", None),
        "lr_path_norm": ("ito.lr_path_norm", None),
    },
    "stochconv.convolution": {
        "direct_convolution": ("convolution.direct", None),
        "kernel_convolution": ("convolution.kernel", _kernel_info),
        "factorization_smoothing": ("convolution.smoothing", _smoothing_info),
        "compare": ("convolution.compare", None),
    },
    "stochconv.hilbert": {"semigroup_eval": ("hilbert.semigroup_eval", None)},
    "stochconv.fubini": {
        "integrate_then_ito": ("fubini.mix_first", None),
        "ito_then_integrate": ("fubini.mix_last", None),
        "fubini_report": ("fubini.report", None),
    },
    "stochconv.norms": {
        "estimate_lpq": ("norms.lpq", _boot_info),
        "estimate_lpqr": ("norms.lpqr", _boot_info),
        "singular_kernel_field": ("norms.field", None),
        "deterministic_lpq_norm": ("norms.det_lpq", None),
    },
    "stochconv.experiments": {
        "run_experiment": ("experiments.run", None),
        "run_convolve": ("experiments.run", None),
    },
}

# (module, class, method) -> span name; the dense SemigroupSpec runs expm here
METHODS = {("stochconv.hilbert", "SemigroupSpec", "__post_init__"): "hilbert.semigroup_build"}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list = []
        self._local = threading.local()
        self._patches: list = []  # (owner, attribute, original)

    def _wrap(self, name, fn, info):
        spans, local = self.spans, self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = info(args, kwargs, result) if info and result is not None else None
                spans[index] = [name, start, end, parent, extra]

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "stochconv" or key.startswith("stochconv.")]
        for module_name, table in LAYERS.items():
            defining = sys.modules[module_name]
            for attr, (span, info) in table.items():
                original = getattr(defining, attr)
                wrapper = self._wrap(span, original, info)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, key, original))
                            setattr(module, key, wrapper)
        for (module_name, cls_name, method), span in METHODS.items():
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self._wrap(span, original, None))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()


def self_times(spans: list) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
