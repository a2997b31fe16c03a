"""Per-layer spans, recorded from outside the package.

:class:`Tracer` replaces every public function of the entcost layer modules
with a timing wrapper, under every name any entcost module holds it by (a
function imported with ``from .linalg import herm_eig`` is also an attribute
of the importing module) and in module-level dict registries.  It wraps
``numpy.linalg.eigvalsh``, ``eigh`` and ``svd``, the kernel boundary below
``linalg``, and the validation in ``DensityMatrix.__post_init__``.  Spans
nest, so each entry gets total time ``s`` and self time ``self_s`` (total
minus the time of wrapped callees).  Calls are recorded only while
:attr:`Tracer.active` is set, so the benchmark's own oracle checks never
show up in the counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

LAYERS = ("linalg", "entropy", "channels", "entanglement", "cost", "cli")
KERNELS = ("eigvalsh", "eigh", "svd")


class Stat:
    __slots__ = ("calls", "s", "self_s", "matrices")

    def __init__(self):
        self.calls, self.s, self.self_s, self.matrices = 0, 0.0, 0.0, 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.active = False
        self._child_time: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, count_matrices: bool = False):
        stat = self.stats.setdefault(name, Stat())
        stack = self._child_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat.calls += 1
                stat.s += dt
                stat.self_s += dt - stack.pop()
                if count_matrices:
                    shape = np.shape(args[0])
                    stat.matrices += int(np.prod(shape[:-2])) if len(shape) > 2 else 1
                if stack:
                    stack[-1] += dt

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = {layer: importlib.import_module(f"entcost.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)

        def swap(obj):
            if isinstance(obj, tuple):
                new = tuple(swap(x) for x in obj)
                return new if any(a is not b for a, b in zip(new, obj)) else obj
            return wrapped.get(id(obj), obj)

        holders = [m for n, m in sys.modules.items()
                   if n == "entcost" or n.startswith("entcost.")]
        for mod in holders:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    # registries such as the channel families
                    new = {k: swap(v) for k, v in obj.items()}
                    if any(new[k] is not v for k, v in obj.items()):
                        self._set(mod, attr, new)
        dm = mods["linalg"].DensityMatrix
        self._set(dm, "__post_init__", self._wrap("linalg.DensityMatrix", dm.__post_init__))
        for name in KERNELS:
            self._set(np.linalg, name, self._wrap(f"numpy.{name}", getattr(np.linalg, name),
                                                  count_matrices=name == "eigvalsh"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def metrics(self) -> dict[str, float]:
        out = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.s"] = st.s
            out[f"{name}.self_s"] = st.self_s
            if name == "numpy.eigvalsh":
                out[f"{name}.matrices"] = st.matrices
        return out
