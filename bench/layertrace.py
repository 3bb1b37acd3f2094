"""Outside-in per-layer tracer for lazylab.

The tracer edits nothing under ``src/``. While installed it replaces, in
every imported ``lazylab`` module namespace, each function whose
``__module__`` is ``lazylab.<layer>`` (and each plain method of a class
defined there) with a wrapper that records a span. Replacing the name in
every namespace catches both cross-module calls (``from .x import f``) and
intra-module calls (global lookup at call time). It also wraps the
``numpy.linalg`` factorization entry points that lazylab calls, as the
``lapack`` layer, and counts them with flop estimates computed from the
argument shapes.

A span's self time is its duration minus the durations of its child spans;
the benchmark's own root span per answer is the ``bench`` layer, so the
self times of all layers add up to the traced answer time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("linalg", "states", "laziness", "dynamics", "protocol", "statefile", "cli", "lapack")
LAPACK_ENTRY_POINTS = ("eigh", "eigvalsh", "svd", "qr", "matrix_power")
BENCH_LAYER = "bench"

# Inclusive time of the outermost call into any member of a group.
GROUPS = {
    "states.sampler": (
        "states.derive_rng",
        "states.haar_random_pure",
        "states.haar_random_unitary",
        "states.ginibre_mixed",
        "states.random_hermitian",
    ),
    "laziness.rate_bounds": ("laziness.rate_bounds",),
    "laziness.commutator": ("laziness.laziness_commutator",),
    "laziness.correlations": ("laziness.correlation_measures",),
    "statefile.load": (
        "statefile.load_state",
        "statefile.load_hamiltonian",
        "statefile.load",
        "statefile.loads",
    ),
    "statefile.dump": ("statefile.save", "statefile.dumps"),
}


def _matmul_count(power: int) -> int:
    """Matrix products numpy's binary exponentiation makes for A**power."""
    power = abs(int(power))
    if power < 2:
        return 0
    return power.bit_length() - 1 + bin(power).count("1") - 1


def lapack_flops(name: str, args: tuple, kwargs: dict) -> float:
    """Real flops of one numpy.linalg call, computed from argument shapes.

    Dense counts from Golub & Van Loan, *Matrix Computations* (4th ed.):
    symmetric eigenvalues 4n^3/3, with eigenvectors 9n^3; SVD values
    4mn^2 - 4n^3/3, thin SVD with vectors 14mn^2 + 8n^3, full
    4m^2n + 8mn^2 + 9n^3 (m >= n); Householder QR 2n^2(m - n/3), doubled
    when Q is formed; a matrix product 2n^3. Complex arithmetic counts as
    four real flops per operation, and stacked inputs multiply by the
    number of matrices. These are computed estimates, not measured rates.
    """
    a = args[0] if args else kwargs.get("a", kwargs.get("A"))
    shape = np.shape(a)
    if len(shape) < 2:
        return 0.0
    batch = float(np.prod(shape[:-2])) if len(shape) > 2 else 1.0
    rows, cols = shape[-2], shape[-1]
    m, n = max(rows, cols), min(rows, cols)
    if name == "eigvalsh":
        flops = 4.0 * n**3 / 3.0
    elif name == "eigh":
        flops = 9.0 * n**3
    elif name == "svd":
        compute_uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
        full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
        if not compute_uv:
            flops = 4.0 * m * n**2 - 4.0 * n**3 / 3.0
        elif full:
            flops = 4.0 * m**2 * n + 8.0 * m * n**2 + 9.0 * n**3
        else:
            flops = 14.0 * m * n**2 + 8.0 * n**3
    elif name == "qr":
        mode = kwargs.get("mode", args[1] if len(args) > 1 else "reduced")
        flops = 2.0 * n**2 * (m - n / 3.0) * (1.0 if mode == "r" else 2.0)
    elif name == "matrix_power":
        power = kwargs.get("n", args[1] if len(args) > 1 else 1)
        flops = 2.0 * n**3 * _matmul_count(power)
    else:
        raise ValueError(f"no flop formula for numpy.linalg.{name}")
    if np.iscomplexobj(a):
        flops *= 4.0
    return batch * flops


class LayerTracer:
    """Span recorder for the lazylab layers; inactive until ``active`` is set.

    ``install`` patches the namespaces and ``uninstall`` restores every
    original object. Between answers the benchmark clears ``active`` so
    its own correctness checks are not attributed to any layer.
    """

    def __init__(self):
        self.active = False
        self._stack: list[float] = []
        self._group_depth: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.self_s = dict.fromkeys(LAYERS + (BENCH_LAYER,), 0.0)
        self.group_s = dict.fromkeys(GROUPS, 0.0)
        self.calls: Counter = Counter()
        self.bytes_read = 0
        self.bytes_written = 0
        self.flops = 0.0

    def counts(self) -> dict:
        """Every count this tracer keeps; equal inputs must repeat them exactly."""
        return {
            "calls": dict(sorted(self.calls.items())),
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "flops": self.flops,
        }

    def layer_calls(self, layer: str) -> int:
        prefix = layer + "."
        return sum(n for key, n in self.calls.items() if key.startswith(prefix))

    # -- spans -------------------------------------------------------------

    def _span(self, layer, key, groups, hook, fn, args, kwargs):
        stack = self._stack
        depth = self._group_depth
        for g in groups:
            depth[g] += 1
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        finally:
            dt = time.perf_counter() - t0
            self.self_s[layer] += dt - stack.pop()
            if stack:
                stack[-1] += dt
            self.calls[key] += 1
            for g in groups:
                depth[g] -= 1
                if depth[g] == 0:
                    self.group_s[g] += dt

    def answer(self, fn):
        """Run one answer under the benchmark's own root span."""
        if self._stack:
            raise RuntimeError("answer spans must not nest")
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            dt = time.perf_counter() - t0
            self.self_s[BENCH_LAYER] += dt - self._stack.pop()

    def _wrap(self, fn, layer: str, key: str, hook=None):
        groups = tuple(g for g, members in GROUPS.items() if key in members)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            return tracer._span(layer, key, groups, hook, fn, args, kwargs)

        return traced

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every lazylab function and the numpy.linalg entry points."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import lazylab.cli  # noqa: F401  (the package __init__ does not import it)

        wrappers: dict[int, object] = {}
        classes = []
        for modname in sorted(sys.modules):
            if modname != "lazylab" and not modname.startswith("lazylab."):
                continue
            module = sys.modules[modname]
            for attr, obj in sorted(vars(module).items()):
                owner = getattr(obj, "__module__", None) or ""
                if not owner.startswith("lazylab."):
                    continue
                layer = owner.split(".", 1)[1]
                if inspect.isclass(obj):
                    if obj not in classes:
                        classes.append(obj)
                    continue
                if not inspect.isfunction(obj) or layer not in LAYERS:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(
                        obj, layer, f"{layer}.{obj.__name__}", _HOOKS.get(f"{layer}.{obj.__name__}")
                    )
                self._patch(module, attr, wrappers[id(obj)])
        for cls in classes:
            layer = cls.__module__.split(".", 1)[1]
            if layer not in LAYERS:
                continue
            for attr, obj in sorted(vars(cls).items()):
                if inspect.isfunction(obj) and not attr.startswith("__"):
                    self._patch(cls, attr, self._wrap(obj, layer, f"{layer}.{cls.__name__}.{attr}"))
        for name in LAPACK_ENTRY_POINTS:
            fn = getattr(np.linalg, name)
            self._patch(np.linalg, name, self._wrap(fn, "lapack", f"lapack.{name}", _lapack_hook(name)))

    def uninstall(self) -> None:
        self.active = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _lapack_hook(name: str):
    def hook(tracer, args, kwargs, result):
        tracer.flops += lapack_flops(name, args, kwargs)

    return hook


def _count_read(tracer, args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    tracer.bytes_read += len(text.encode("utf-8"))


def _count_written(tracer, args, kwargs, result):
    tracer.bytes_written += len(result.encode("utf-8"))


_HOOKS = {"statefile.loads": _count_read, "statefile.dumps": _count_written}
