"""Out-of-program instrumentation for dosediff.

Two kinds of wrappers are installed from outside the package, after it
has been imported:

* ``Marks`` records start/end timestamps of the few functions that
  delimit the workload's units (a training step, a sampled case, a
  generated case, an evaluated case). It is always on; it adds one
  timestamp pair per unit.
* ``Tracer`` wraps every public function of each layer module plus a
  short list of methods, records one span per call (name, start, end,
  parent span) in memory and writes them to an ``.npz`` file when the
  process ends. A few probes add counts at the same boundaries: graph
  nodes per training loss, conv2d/matmul FLOPs computed from shapes,
  Adam parameter tensors and checkpoint bytes.

A function is often bound under several names (``networks`` imports
``swin_block`` by name, ``train`` imports ``backward`` and ``adam_step``,
the package ``__init__`` re-exports many). ``rebind`` replaces every
alias found in any ``dosediff.*`` module, so calls through any of them
are seen.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import pkgutil
import sys
import types
from array import array
from time import perf_counter

PACKAGE = "dosediff"

# The layers, in the order the documentation lists them.
LAYERS = ("tensor", "optim", "diffusion", "blocks", "networks", "phantom",
          "metrics", "checkpoint", "render", "train", "cli")

# Methods traced besides the modules' public functions: (module, class, method).
METHODS = (
    ("tensor", "Tensor", "reshape"),
    ("tensor", "Tensor", "permute"),
    ("networks", "DoseModel", "encode_structure"),
    ("networks", "DoseModel", "predict_noise"),
    ("train", "Trainer", "run"),
)

# Unit boundaries recorded by Marks: dotted path below the package.
MARKS = ("train.Trainer.run", "diffusion.training_step", "train.sample_case",
         "phantom.generate_phantom", "phantom.read_dose_map")

RESHAPE_KINDS = ("reshape", "permute")


def import_package() -> dict:
    """Import every ``dosediff`` submodule except ``__main__``, which runs
    the CLI on import; returns {short name: module}."""
    pkg = importlib.import_module(PACKAGE)
    mods = {}
    for info in pkgutil.iter_modules(pkg.__path__):
        if info.name != "__main__":
            mods[info.name] = importlib.import_module(f"{PACKAGE}.{info.name}")
    return mods


def rebind(original, replacement) -> int:
    """Replace every module-level alias of ``original`` in dosediff.*."""
    count = 0
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                count += 1
    return count


def _resolve(mods: dict, dotted: str):
    """'train.Trainer.run' -> (owner, attribute name, current value)."""
    parts = dotted.split(".")
    owner = mods[parts[0]]
    for p in parts[1:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1], getattr(owner, parts[-1])


def _install(owner, attr: str, current, wrapper) -> None:
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
    else:
        rebind(current, wrapper)


def public_functions(mod) -> list:
    """Public functions defined in ``mod`` that can be timed as calls.

    Generator functions and context managers (``no_grad``) are skipped:
    timing their call would time only the creation of the iterator.
    """
    out = []
    for name, obj in vars(mod).items():
        if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                and obj.__module__ == mod.__name__
                and not hasattr(obj, "__wrapped__")
                and not inspect.isgeneratorfunction(obj)):
            out.append(name)
    return sorted(out)


class Marks:
    """Start/end timestamps of the unit-delimiting functions."""

    def __init__(self):
        self.calls = {name: [] for name in MARKS}

    def install(self, mods: dict) -> None:
        for dotted in MARKS:
            owner, attr, current = _resolve(mods, dotted)
            _install(owner, attr, current, self._wrap(current, self.calls[dotted]))

    @staticmethod
    def _wrap(fn, sink):
        @functools.wraps(fn)
        def marked(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                sink.append((t0, perf_counter()))
        return marked


def _graph_counts(loss) -> tuple:
    """Nodes reachable from ``loss`` through ``node.parents``, and how many
    of them are reshape or permute."""
    nodes = reshapes = 0
    seen = set()
    stack = [loss]
    while stack:
        t = stack.pop()
        node = getattr(t, "node", None)
        if node is None or id(t) in seen:
            continue
        seen.add(id(t))
        nodes += 1
        if node.kind in RESHAPE_KINDS:
            reshapes += 1
        stack.extend(node.parents)
    return nodes, reshapes


def _probe_training_step(c, args, kwargs, result):
    nodes, reshapes = _graph_counts(result)
    c["graph.losses"] += 1
    c["graph.nodes"] += nodes
    c["graph.nodes_reshape_permute"] += reshapes


def _probe_conv2d(c, args, kwargs, result):
    # 2 * output elements * (C_in * kh * kw) multiply-adds, from shapes only
    w = args[1] if len(args) > 1 else kwargs["w"]
    c["conv2d.flop"] += 2.0 * math.prod(result.shape) * math.prod(w.shape[1:])


def _probe_matmul(c, args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    c["matmul.flop"] += 2.0 * math.prod(result.shape) * a.shape[-1]


def _probe_adam(c, args, kwargs, result):
    grads = args[1] if len(args) > 1 else kwargs["grads"]
    c["adam.calls"] += 1
    c["adam.param_tensors"] += len(grads)


def _probe_ckpt_bytes(c, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    c["checkpoint.bytes"] += os.path.getsize(path)


COUNTERS = ("graph.losses", "graph.nodes", "graph.nodes_reshape_permute",
            "conv2d.flop", "matmul.flop", "adam.calls", "adam.param_tensors",
            "checkpoint.bytes")

PROBES = {
    "diffusion.training_step": _probe_training_step,
    "tensor.conv2d": _probe_conv2d,
    "tensor.matmul": _probe_matmul,
    "optim.adam_step": _probe_adam,
    "checkpoint.save_checkpoint": _probe_ckpt_bytes,
    "checkpoint.load_checkpoint": _probe_ckpt_bytes,
}


class Tracer:
    """In-memory span recorder over the public functions of every layer."""

    def __init__(self):
        self.names: list = []
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counters = dict.fromkeys(COUNTERS, 0.0)

    def install(self, mods: dict) -> None:
        for layer in LAYERS:
            for fname in public_functions(mods[layer]):
                self._trace(mods, f"{layer}.{fname}")
        for layer, cls, meth in METHODS:
            self._trace(mods, f"{layer}.{cls}.{meth}", label=f"{layer}.{meth}")

    def _trace(self, mods: dict, dotted: str, label: str = None) -> None:
        owner, attr, current = _resolve(mods, dotted)
        label = (label or dotted).rstrip("_")   # tensor.slice_ -> tensor.slice
        _install(owner, attr, current, self.wrap(label, current, PROBES.get(dotted)))

    def wrap(self, label: str, fn, probe=None):
        nid = len(self.names)
        self.names.append(label)
        names, start, end, parent, stack = (self.span_name, self.start, self.end,
                                            self.parent, self._stack)
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if probe is not None:
                probe(counters, args, kwargs, result)
            return result
        return traced

    def dump(self, path) -> None:
        """Write the spans and counters (called once, when the run ends)."""
        import numpy as np
        np.savez(path,
                 names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 counters=np.array(json.dumps(self.counters)))


def self_times(spans) -> dict:
    """{span name: (calls, total self seconds)} from a loaded spans file.

    Self time is a span's duration minus the durations of its direct
    children; the children's own children are already inside those.
    """
    import numpy as np
    names = [str(n) for n in spans["names"]]
    name, parent = spans["name"], spans["parent"]
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_t = dur - child
    calls = np.bincount(name, minlength=len(names))
    total = np.bincount(name, weights=self_t, minlength=len(names))
    return {n: (int(calls[i]), float(total[i])) for i, n in enumerate(names)}
