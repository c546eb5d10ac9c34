"""In-memory span recorder for the traced benchmark run.

``SpanRecorder.install`` replaces every public function of the traced
bagdet modules with a timing wrapper, both at its own module attribute and
wherever another bagdet module imported it by name (for example
``determinant.integrate_adaptive``).  Each call becomes one span: name,
operation number, parent span, start, end, whether it raised a
``BagdetError`` and, for a ``QuadratureResult``, the nodes it used.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

from bagdet.errors import BagdetError
from bagdet.quadrature import QuadratureResult

TRACED_MODULES = ("quadrature", "determinant", "seeley", "calderon", "greens",
                  "cli")

# Spans whose arguments are also keyed, to measure how often a call repeats
# one made earlier in the same pass over the inputs: the share a cache keyed
# on them could serve.  bulk_log_term is keyed on its gauge-independent
# arguments only.
REPEAT_KEYS = {
    "determinant.bulk_log_term": ("spec", "n_ang"),
    "quadrature.j2_over_u_integral": ("split", "tol", "u_match"),
}

OP_SPAN = "op"


class SpanRecorder:
    """Spans of one traced run, kept in flat arrays until written out."""

    def __init__(self):
        self.names = [OP_SPAN]
        self._op = array("q")
        self._parent = array("q")
        self._name = array("q")
        self._t0 = array("d")
        self._t1 = array("d")
        self._raised = array("b")
        self._nodes = array("q")
        self._stack = []
        self._op_index = -1
        self._seen = {name: set() for name in REPEAT_KEYS}
        self.repeat_calls = dict.fromkeys(REPEAT_KEYS, 0)
        self.repeat_hits = dict.fromkeys(REPEAT_KEYS, 0)
        self._wrappers = {}
        self._restore = []

    def __len__(self) -> int:
        return len(self._t0)

    def _open(self, name_index: int) -> int:
        sid = len(self._t0)
        self._op.append(self._op_index)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._name.append(name_index)
        self._raised.append(0)
        self._nodes.append(0)
        self._t1.append(0.0)
        self._stack.append(sid)
        self._t0.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self._t1[sid] = time.perf_counter()
        self._stack.pop()

    def begin_pass(self) -> None:
        """Start a pass over the workload's inputs: repeats are counted
        within one pass, so the shares do not grow with the pass count."""
        for seen in self._seen.values():
            seen.clear()

    def begin_op(self) -> int:
        """Open the root span of the next operation."""
        self._op_index += 1
        return self._open(0)

    def end_op(self, sid: int) -> None:
        self._close(sid)

    def _note_repeat(self, name, signature, keys, args, kwargs) -> None:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        key = tuple(bound.arguments[k] for k in keys)
        self.repeat_calls[name] += 1
        if key in self._seen[name]:
            self.repeat_hits[name] += 1
        else:
            self._seen[name].add(key)

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        keys = REPEAT_KEYS.get(name)
        signature = inspect.signature(fn) if keys else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keys:
                self._note_repeat(name, signature, keys, args, kwargs)
            sid = self._open(index)
            try:
                result = fn(*args, **kwargs)
            except BagdetError:
                self._close(sid)
                self._raised[sid] = 1
                raise
            except BaseException:
                self._close(sid)
                raise
            self._close(sid)
            if isinstance(result, QuadratureResult):
                self._nodes[sid] = result.nodes_used
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of TRACED_MODULES everywhere bagdet
        refers to them.  The wrappers are built on the first call and
        reused, so a recorder can be installed and uninstalled per pass."""
        if not self._wrappers:
            for short in TRACED_MODULES:
                module = importlib.import_module(f"bagdet.{short}")
                for attr in module.__all__:
                    fn = getattr(module, attr)
                    if (inspect.isfunction(fn)
                            and fn.__module__ == module.__name__):
                        self._wrappers[fn] = self._wrap(f"{short}.{attr}", fn)
        for modname, module in list(sys.modules.items()):
            if modname != "bagdet" and not modname.startswith("bagdet."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in self._wrappers:
                    setattr(module, attr, self._wrappers[value])
                    self._restore.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def aggregate(self) -> dict:
        """Per span name: calls, inclusive and self seconds, nodes, raised."""
        name = np.frombuffer(self._name, dtype=np.int64)
        parent = np.frombuffer(self._parent, dtype=np.int64)
        dur = (np.frombuffer(self._t1, dtype=np.float64)
               - np.frombuffer(self._t0, dtype=np.float64))
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        total = np.bincount(name, weights=dur, minlength=n)
        self_s = np.bincount(name, weights=dur - child, minlength=n)
        nodes = np.bincount(name, weights=np.frombuffer(self._nodes, dtype=np.int64),
                            minlength=n)
        raised = np.bincount(name, weights=np.frombuffer(self._raised, dtype=np.int8),
                             minlength=n)
        return {nm: {"calls": int(calls[i]), "s": float(total[i]),
                     "self_s": float(self_s[i]), "nodes": int(nodes[i]),
                     "raised": int(raised[i])}
                for i, nm in enumerate(self.names)}

    def repeat_share(self, name: str) -> float:
        calls = self.repeat_calls[name]
        return self.repeat_hits[name] / calls if calls else 0.0

    def write(self, path: str) -> None:
        """Write every span as one CSV line to a gzip file."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,op,parent,name,start_s,end_s,raised,nodes\n")
            for sid in range(len(self._t0)):
                fh.write(f"{sid},{self._op[sid]},{self._parent[sid]},"
                         f"{self.names[self._name[sid]]},{self._t0[sid]:.9f},"
                         f"{self._t1[sid]:.9f},{self._raised[sid]},"
                         f"{self._nodes[sid]}\n")
