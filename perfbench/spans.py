"""Spans around calls into the fusionframes modules, installed from outside ``src/``.

Every function in each module's ``__all__`` is wrapped, and the wrapper is
bound in every module namespace that imported the function, so nested calls
(cli -> erasures -> linalg) become nested spans. A span records its name,
start, end, parent span and op id, plus a work count taken from the call
arguments for the functions in ``_WORK``. Spans stay in memory, in flat
arrays, until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from array import array
from pathlib import Path

import numpy as np

MODULES = ("linalg", "fusion", "discrete", "duality", "erasures", "optimality", "cli")

# called once per enumerated subset: a wrapper would swamp the timing
UNTRACED = frozenset({"erasures.matrix_norm"})


def _subsets(m: int, r) -> int:
    return math.comb(m, r) if isinstance(r, int) and 1 <= r < m else 0


def _columns(vectors) -> int:
    return len(vectors) if hasattr(vectors, "__len__") else 0


# work counts read from the call arguments
_WORK = {
    "linalg.orthonormal_basis": lambda a: _columns(a["vectors"]),
    "erasures.worst_case_error": lambda a: _subsets(a["pair"].member_count, a["r"]),
    "erasures.discrete_worst_case": lambda a: _subsets(a["f"].count, a["r"]),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.work = array("q")
        self.op_id = -1
        self._stack: list[int] = []
        self._bindings: list[tuple[dict, str, object, object]] = []
        self._collect_bindings()

    def _collect_bindings(self) -> None:
        package = importlib.import_module("fusionframes")
        modules = [importlib.import_module(f"fusionframes.{m}") for m in MODULES]
        namespaces = [vars(package)] + [vars(m) for m in modules]
        for short, module in zip(MODULES, modules):
            for attr in module.__all__:
                fn = getattr(module, attr)
                label = f"{short}.{attr}"
                if not inspect.isfunction(fn) or label in UNTRACED:
                    continue
                wrapper = self._wrap(fn, label)
                for ns in namespaces:
                    for key, value in list(ns.items()):
                        if value is fn:
                            self._bindings.append((ns, key, fn, wrapper))

    def _wrap(self, fn, label: str):
        name_id = len(self.names)
        self.names.append(label)
        work = _WORK.get(label)
        signature = inspect.signature(fn)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.work.append(work(signature.bind(*args, **kwargs).arguments) if work else 0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        for ns, key, _, wrapper in self._bindings:
            ns[key] = wrapper

    def uninstall(self) -> None:
        for ns, key, original, _ in self._bindings:
            ns[key] = original

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "work": np.frombuffer(self.work, dtype=np.int64),
        }

    def write(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self time (duration minus child spans) and work."""
        a = self.arrays()
        duration = a["end"] - a["start"]
        covered = np.zeros_like(duration)
        nested = a["parent"] >= 0
        np.add.at(covered, a["parent"][nested], duration[nested])
        self_time = duration - covered
        size = len(self.names)
        calls = np.bincount(a["name"], minlength=size)
        selfs = np.bincount(a["name"], weights=self_time, minlength=size)
        work = np.bincount(a["name"], weights=a["work"].astype(float), minlength=size)
        return {
            label: {"calls": float(calls[k]), "self_s": float(selfs[k]), "work": float(work[k])}
            for k, label in enumerate(self.names)
        }


def layer_metrics(spec: list[dict], totals: dict, passes: int, ops: int, overhead_frac: float) -> dict:
    """Every per-layer metric named in ``spec``, per pass of the op list.

    Names follow ``<module>.self_s`` (self time of the whole layer) and
    ``<module>.<function>.{calls,self_s,cols,per_op}`` (cols is the work count
    of orthonormal_basis, per_op is calls per traced op), plus the derived
    metrics in ``special``. ``ops`` counts traced ops.
    """

    def total(label: str, key: str) -> float:
        return totals.get(label, {}).get(key, 0.0) / passes

    subsets = total("erasures.worst_case_error", "work") + total("erasures.discrete_worst_case", "work")
    enum_self = total("erasures.worst_case_error", "self_s") + total("erasures.discrete_worst_case", "self_s")
    special = {
        "erasures.subsets": subsets,
        "erasures.us_per_subset": enum_self / subsets * 1e6 if subsets else 0.0,
        "erasures.partial.calls": total("erasures.fusion_partial_error", "calls")
        + total("erasures.partial_erasure_error", "calls"),
        "cli.report_s": total("cli.run", "self_s") + total("cli.main", "self_s"),
        "trace.overhead_frac": overhead_frac,
    }
    out = {}
    for entry in spec:
        name = entry["name"]
        label, _, key = name.rpartition(".")
        if name in special:
            value = special[name]
        elif label in MODULES and key == "self_s":
            value = sum(v["self_s"] for k, v in totals.items() if k.startswith(label + ".")) / passes
        elif label not in totals:
            raise ValueError(f"per-layer metric {name!r} names no traced function")
        elif key == "per_op":
            value = total(label, "calls") / (ops / passes)
        elif key in ("calls", "self_s"):
            value = total(label, key)
        elif key == "cols":
            value = total(label, "work")
        else:
            raise ValueError(f"unknown per-layer metric {name!r}")
        out[name] = {"value": value, "unit": entry["unit"]}
    return out
