"""Spans and kernel-call counters for the traced benchmark run.

Spans are recorded by the benchmark's own code around each call into a
layer of ``infocoupling``; the package itself is not instrumented.
Kernel counters wrap ``numpy.linalg.eigh``/``svd`` and
``scipy.optimize.linprog``/``minimize``.  They must be installed before
``infocoupling`` is imported, because ``coupling`` binds ``linprog`` and
``minimize`` by name at import time.  Kernel calls are counted only
while a span is open, so the benchmark's own checks are not counted.
``wrap_calls`` puts spans around calls a module makes through its own
namespace, for code the benchmark runs unchanged (the CLI).
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext

_NULL_SPAN = nullcontext()


class NullTracer:
    """Tracing off: spans and counts cost one attribute lookup."""

    op = None

    def span(self, name):
        return _NULL_SPAN

    def count(self, name, n=1):
        pass

    def set_max(self, name, value):
        pass

    def wrap_calls(self, module, spans):
        pass


class Tracer:
    """In-memory spans ``[name, op, parent, start, end]`` and counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.op = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.op, parent, time.perf_counter(), None])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][4] = time.perf_counter()

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def set_max(self, name, value):
        self.counts[name] = max(self.counts.get(name, 0.0), float(value))

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def total_ms(self, name) -> float:
        return 1e3 * sum(s[4] - s[3] for s in self.spans if s[0] == name)

    def calls(self, name) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def install_kernel_counters(self):
        """Wrap the kernels in place; call before importing infocoupling."""
        import numpy.linalg
        import scipy.optimize

        for module, attr, counter in (
            (numpy.linalg, "eigh", "coupling.eigh_calls"),
            (numpy.linalg, "svd", "channel.svd_calls"),
            (scipy.optimize, "linprog", "coupling.linprog_calls"),
            (scipy.optimize, "minimize", "coupling.minimize_calls"),
        ):
            setattr(module, attr, self._counted(getattr(module, attr), counter))

    def wrap_calls(self, module, spans):
        """Replace each ``module.<attr>`` named in ``spans`` by a wrapper
        that runs it inside the span ``spans[attr]``."""
        for attr, name in spans.items():
            setattr(module, attr, self._spanned(getattr(module, attr), name))

    def _spanned(self, original, name):
        def spanned(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        return spanned

    def _counted(self, original, counter):
        def counted(*args, **kwargs):
            if self._stack:
                self.count(counter)
            return original(*args, **kwargs)

        return counted

    def dump(self) -> list[dict]:
        return [
            {"name": n, "op": op, "parent": p, "start": s, "end": e}
            for n, op, p, s, e in self.spans
        ]
