"""Per-layer tracing from outside the program.

`install` wraps every public function of each `phantomcover` layer module,
plus `Submodule.contains` and `ModuleMorphism.__post_init__`, in a recording
wrapper, and rebinds every alias of the original in every `phantomcover.*`
namespace (modules import by name, so patching the defining module alone
would miss most calls).  Each call records a span: name, start, end, parent
span and op id.  Spans stay in memory in flat arrays and are written out
once, at the end; self time is a span's duration minus the time its child
spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

LAYERS = ("exact_linalg", "finmod", "ideals", "rep_a2", "approx", "filtration",
          "manifest", "samplers", "oracles", "verify", "cli")
METHODS = (("finmod", "Submodule", "contains"),
           ("finmod", "ModuleMorphism", "__post_init__"))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.counters = {"approx.probes_checked": 0, "exact_linalg.snf.max_bits": 0,
                         "filtration.steps": 0, "manifest.bytes": 0}

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self.stack.pop()

    def in_layer(self, prefix: str) -> bool:
        """Whether the innermost open span belongs to the given layer."""
        return bool(self.stack) and self.names[
            self.name_id[self.stack[-1]]].startswith(prefix)

    def summary(self) -> dict:
        """Calls and self time per span name and per layer, plus counters."""
        count = len(self.start)
        child = [0.0] * count
        in_build = bytearray(count)
        build = self._ids.get("filtration.build_filtration", -2)
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
                in_build[i] = in_build[p] or self.name_id[p] == build
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        contains_in_build = 0
        contains = self._ids.get("finmod.Submodule.contains", -2)
        for i in range(count):
            nid = self.name_id[i]
            calls[nid] += 1
            self_s[nid] += self.end[i] - self.start[i] - child[i]
            if nid == contains and in_build[i]:
                contains_in_build += 1
        spans = {name: {"calls": calls[k], "self_s": self_s[k]}
                 for k, name in enumerate(self.names)}
        layers = {layer: sum(v["self_s"] for k, v in spans.items()
                             if k.split(".")[0] == layer) for layer in LAYERS}
        counters = dict(self.counters)
        counters["filtration.build.contains"] = contains_in_build
        counters["spans"] = count
        return {"spans": spans, "layers": layers, "counters": counters}

    def write(self, path: str) -> None:
        """One tab-separated line per span: index, name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\tname\tstart_s\tend_s\tparent\top\n")
            for i in range(len(self.start)):
                out.write(f"{i}\t{self.names[self.name_id[i]]}\t{self.start[i]:.9f}\t"
                          f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.op[i]}\n")


def _max_bits(res) -> int:
    """Largest entry bit length over the transforms the decomposition has."""
    transforms = (getattr(res, f, None) for f in ("u", "v", "u_inv", "v_inv"))
    return max((abs(x).bit_length() for m in transforms if m is not None
                for x in m.entries), default=0)


def _record(tracer: Tracer, name: str, args, kwargs, res) -> None:
    """Counters that need an argument or a result, not just the call."""
    c = tracer.counters
    if name == "exact_linalg.smith_normal_form":
        c["exact_linalg.snf.max_bits"] = max(c["exact_linalg.snf.max_bits"], _max_bits(res))
    elif name == "approx.is_precover":
        c["approx.probes_checked"] += len(args[2] if len(args) > 2 else kwargs["probes"])
    elif name == "filtration.build_filtration":
        c["filtration.steps"] += res.length
    elif name.startswith("manifest.") and not tracer.in_layer("manifest."):
        # outermost manifest call only: parse_filtration calls parse
        if name in ("manifest.parse", "manifest.parse_filtration") and args:
            c["manifest.bytes"] += len(args[0])
        elif name in ("manifest.serialize", "manifest.serialize_filtration"):
            c["manifest.bytes"] += len(res)


_RECORDED = {"exact_linalg.smith_normal_form", "approx.is_precover",
             "filtration.build_filtration", "manifest.parse",
             "manifest.parse_filtration", "manifest.serialize",
             "manifest.serialize_filtration"}


def _wrap(tracer: Tracer, name: str, fn):
    record = name in _RECORDED

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            res = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if record:
            _record(tracer, name, args, kwargs, res)
        return res

    return wrapper


def _public_functions(module):
    """Public functions defined in the module, lru_cache wrappers included."""
    prefix = module.__name__
    for attr, obj in vars(module).items():
        if attr.startswith("_"):
            continue
        target = getattr(obj, "__wrapped__", obj)
        if inspect.isfunction(target) and target.__module__ == prefix:
            yield attr, obj


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions and rebind all their aliases."""
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"phantomcover.{layer}")
        for attr, obj in _public_functions(module):
            if id(obj) not in wrappers:
                wrappers[id(obj)] = (obj, _wrap(tracer, f"{layer}.{attr}", obj))
    for name, module in list(sys.modules.items()):
        if name == "phantomcover" or name.startswith("phantomcover."):
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
    for layer, cls_name, method in METHODS:
        cls = getattr(importlib.import_module(f"phantomcover.{layer}"), cls_name)
        setattr(cls, method, _wrap(tracer, f"{layer}.{cls_name}.{method}",
                                   getattr(cls, method)))
