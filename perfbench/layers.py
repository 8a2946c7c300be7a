"""Span tracing of qotto's layers from outside the package.

`Tracer.install()` wraps each function in LAYERS and rebinds the wrapper in
every loaded `qotto` module that holds the original object, so calls made
through a name imported with `from .x import f` are counted too. A layer
whose module or function no longer exists is left out and reported with 0
calls. Spans are kept in memory as plain lists and written out by the caller
once the run ends; `layer_metrics` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import sys
import threading
import time

# (module, function, what the span's amount counts)
LAYERS = (
    ("manybody", "state_energy_coefficients", "states"),
    ("kernels", "multiset_sums", None),
    ("kernels", "subset_sums", None),
    ("kernels", "log_z_and_mean", "elements"),
    ("manybody", "internal_energy", None),
    ("manybody", "partition_by_enumeration", None),
    ("manybody", "partition_by_recursion", None),
    ("manybody", "_recursion_float", None),
    ("manybody", "_recursion_mp", "dps"),
    ("thermo", "run_cycle", None),
    ("experiments", "make_record", None),
    ("experiments", "_cross_check", None),
    ("experiments", "write_csv", "bytes"),
    ("cli", "main", None),
)

# span fields
LAYER, SPAN, PARENT, START, END, FAILED, AMOUNT, KEY = range(8)


def layer_name(module: str, function: str) -> str:
    return f"{module}.{function.lstrip('_')}"


def _amount(kind, args, kwargs, result):
    if kind == "states":
        return len(result), args[:2]
    if kind == "elements":
        return len(args[0]), None
    if kind == "dps":
        return kwargs.get("dps", args[4] if len(args) > 4 else 0), None
    if kind == "bytes":
        path = kwargs.get("path", args[1] if len(args) > 1 else None)
        return os.path.getsize(path), None
    return 0, None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._keys: dict = {}
        self._keys_lock = threading.Lock()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, index: int, fn, kind):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # a pool worker's outermost span belongs to the main thread's
            # open span, which is waiting on the pool
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else 0
            sid = next(self._ids)
            stack.append(sid)
            failed = True
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                amount, key = (0, None) if failed else \
                    _amount(kind, args, kwargs, result)
                if key is not None:  # spans hold a small id, not the arguments
                    with self._keys_lock:
                        key = self._keys.setdefault(key, len(self._keys))
                self.spans.append([index, sid, parent, start, end, failed,
                                   amount, key])
        return traced

    def install(self) -> None:
        for index, (module, function, kind) in enumerate(LAYERS):
            try:
                mod = importlib.import_module(f"qotto.{module}")
            except ImportError:
                continue
            original = getattr(mod, function, None)
            if original is None:
                continue
            traced = self._wrap(index, original, kind)
            for name, loaded in list(sys.modules.items()):
                if loaded is None or not (name == "qotto" or name.startswith("qotto.")):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, attr, traced)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans: list[list], rows: int) -> dict[str, float]:
    """Per-layer metrics of one traced run, keyed by metric name."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        children.setdefault(s[PARENT], []).append((s[START], s[END]))
    stats = {}
    for index, (module, function, _) in enumerate(LAYERS):
        stats[index] = {"calls": 0, "self_s": 0.0, "errors": 0, "amount": 0,
                        "amount_max": 0, "keys": set()}
    for s in spans:
        st = stats[s[LAYER]]
        st["calls"] += 1
        st["self_s"] += (s[END] - s[START]) - \
            _covered(children.get(s[SPAN], []), s[START], s[END])
        st["errors"] += int(s[FAILED])
        st["amount"] += s[AMOUNT]
        st["amount_max"] = max(st["amount_max"], s[AMOUNT])
        if s[KEY] is not None:
            st["keys"].add(s[KEY])
    by_name = {layer_name(m, f): stats[i] for i, (m, f, _) in enumerate(LAYERS)}

    def get(layer, quantity):
        return by_name[layer][quantity]

    sec = "manybody.state_energy_coefficients"
    lzm = "kernels.log_z_and_mean"
    calls = get(sec, "calls")
    elements = get(lzm, "amount")
    out = {
        f"{sec}.calls": calls,
        f"{sec}.self_s": get(sec, "self_s"),
        f"{sec}.states": get(sec, "amount"),
        f"{sec}.distinct_frac": len(get(sec, "keys")) / calls if calls else 0.0,
    }
    for layer in ("kernels.multiset_sums", "kernels.subset_sums"):
        out[f"{layer}.calls"] = get(layer, "calls")
        out[f"{layer}.self_s"] = get(layer, "self_s")
    out[f"{lzm}.calls"] = get(lzm, "calls")
    out[f"{lzm}.self_s"] = get(lzm, "self_s")
    out[f"{lzm}.elements"] = elements
    out[f"{lzm}.ns_per_element"] = \
        get(lzm, "self_s") / elements * 1e9 if elements else 0.0
    ie = "manybody.internal_energy"
    out[f"{ie}.calls"] = get(ie, "calls")
    out[f"{ie}.calls_per_row"] = get(ie, "calls") / rows
    for layer in ("manybody.partition_by_enumeration",
                  "manybody.partition_by_recursion",
                  "manybody.recursion_float", "manybody.recursion_mp",
                  "thermo.run_cycle", "experiments.make_record",
                  "experiments.cross_check"):
        out[f"{layer}.calls"] = get(layer, "calls")
        out[f"{layer}.self_s"] = get(layer, "self_s")
    out["manybody.partition_by_recursion.errors"] = \
        get("manybody.partition_by_recursion", "errors")
    out["manybody.recursion_mp.dps_max"] = get("manybody.recursion_mp", "amount_max")
    out["experiments.write_csv.self_s"] = get("experiments.write_csv", "self_s")
    out["experiments.write_csv.bytes"] = get("experiments.write_csv", "amount")
    out["cli.main.self_s"] = get("cli.main", "self_s")
    return out
