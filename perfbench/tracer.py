"""Span tracing of qramsey's public functions, installed from outside the package.

``Tracer.install`` replaces each traced function by a wrapper in every
qramsey module that holds it, including the modules that imported it by
name (``ramsey`` binds ``difference_set``, ``validate``,
``centralizer_image`` and ``hermitian_rep`` that way), so calls between
layers are seen too.  Spans live in flat arrays in memory: name, parent
span, op id, start and end.  A function's self time is its span minus
the time covered by its child spans.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array

PACKAGE = "qramsey"

# (module, function) pairs; one layer each, named by their module
TRACED = (
    ("pauli", "hermitian_rep"),
    ("f2", "reduce"),
    ("f2", "twisted_dot"),
    ("f2", "twisted_kernel"),
    ("f2", "complete_lagrangian"),
    ("f2", "enumerate_isotropic"),
    ("f2", "coset_count"),
    ("channel", "difference_set"),
    ("channel", "graph_dimension"),
    ("stabilizer", "validate"),
    ("stabilizer", "centralizer_image"),
    ("stabilizer", "projector"),
    ("ramsey", "classify"),
    ("ramsey", "search"),
    ("ramsey", "compressed_dimension"),
    ("ramsey", "is_anticlique"),
    ("ramsey", "is_clique"),
    ("ramsey", "gottesman_correctable"),
    ("oracle", "dense_compressed_dimension"),
    ("oracle", "dense_graph_dimension"),
    ("oracle", "kl_check"),
    ("oracle", "private_witness_check"),
)


class Tracer:
    """Records one span per call of each traced function while installed."""

    def __init__(self):
        self.functions = TRACED
        self.names = [f"{m}.{f}" for m, f in self.functions]
        self.calls = [0] * len(self.functions)
        # items yielded, for generator functions (enumerate_isotropic)
        self.yielded = [0] * len(self.functions)
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.current_op = -1
        # wrappers only record while this is set: ops on, output checks off
        self.recording = False
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _enter(self, idx: int) -> int:
        sid = len(self.start)
        self.name.append(idx)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _exit(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, idx: int, fn):
        if inspect.isgeneratorfunction(fn):
            # time only the work done inside each next(), not the consumer's
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if not self.recording:
                    yield from fn(*args, **kwargs)
                    return
                self.calls[idx] += 1
                it = fn(*args, **kwargs)
                while True:
                    sid = self._enter(idx)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._exit(sid)
                    self.yielded[idx] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            self.calls[idx] += 1
            sid = self._enter(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(sid)

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = [
            m
            for name, m in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for idx, (mod_name, fn_name) in enumerate(self.functions):
            original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)
            wrapper = self._wrap(idx, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results --------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        child = [0.0] * len(self.start)
        for sid, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        return [self.end[s] - self.start[s] - child[s] for s in range(len(self.start))]

    def summary(self) -> dict[str, dict[str, float]]:
        """``{"module.function": {"calls", "self_s", "yielded"}}`` over all spans."""
        self_s = [0.0] * len(self.functions)
        for sid, t in enumerate(self.self_times()):
            self_s[self.name[sid]] += t
        return {
            name: {
                "calls": self.calls[i],
                "self_s": self_s[i],
                "yielded": self.yielded[i],
            }
            for i, name in enumerate(self.names)
        }

    def write(self, path) -> None:
        """Write every span, gzipped, as a tab-separated line: name, parent, op, start, end."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("name\tparent\top\tstart_s\tend_s\n")
            for sid in range(len(self.start)):
                out.write(
                    f"{self.names[self.name[sid]]}\t{self.parent[sid]}\t"
                    f"{self.op[sid]}\t{self.start[sid]:.9f}\t{self.end[sid]:.9f}\n"
                )
