"""Spans around the calls into each neelwall layer, installed from outside.

The package's modules bind each other's functions by name
(``from .energy import gradient_values``), so wrapping only the defining
module would miss the calls made from ``minimize``.  ``Tracer.install``
therefore replaces a function at every binding site: every attribute of
every loaded ``neelwall`` module that is the function object itself,
including the package namespace, where ``neelwall.minimize`` is the
function and shadows the module.

Each span records its name, start, end, parent span and thread.  Parents
come from a per-thread stack; a span opened on a worker thread with an empty
stack (the sweep's cells) takes the client thread's innermost open span as
its parent, the call that caused it.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import threading
import time
from collections import defaultdict

# (module, function) pairs wrapped by the traced run, one entry per call
# into a layer that the per-layer metrics read.
TRACED = (
    ("grid", "make_grid"),
    ("grid", "reference_profile"),
    ("fractional", "half_laplacian_spectral_values"),
    ("energy", "energy_delta"),
    ("energy", "gradient_values"),
    ("energy", "energy_parts"),
    ("energy", "clamp_values"),
    ("energy", "symmetrize_rearrange"),
    ("energy", "_layer_widths"),
    ("minimize", "minimize"),
    ("minimize", "_precondition"),
    ("minimize", "recenter"),
    ("green", "green_quadrature"),
    ("green", "green_samples"),
    ("green", "forcing_terms"),
    ("green", "decay_amplitude"),
    ("green", "convolve_green"),
    ("analysis", "solve_cell"),
    ("analysis", "_row_for"),
    ("analysis", "verify"),
    ("analysis", "wall_width"),
    ("analysis", "sweep"),
    ("io", "emit"),
    ("io", "load_result"),
    ("cli", "main"),
)

# spans that also record process CPU time, for the sweep's CPU utilisation
CPU_SPANS = frozenset({"analysis.sweep"})

PACKAGE = "neelwall"


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "thread",
                 "cpu_start", "cpu_end", "result")

    def __init__(self, span_id, name, parent, thread):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = self.end = 0.0
        self.cpu_start = self.cpu_end = 0.0
        self.result = None


class Tracer:
    """In-memory span recorder; wrappers record only inside ``record``."""

    def __init__(self):
        self.spans = []
        self.recording = False
        self._stacks = threading.local()
        self._client = threading.get_ident()
        self._client_stack = []
        self._lock = threading.Lock()
        self._next_id = 0
        self._restore = []

    def _stack(self):
        if threading.get_ident() == self._client:
            return self._client_stack
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = self._stacks.stack = []
        return stack

    @contextlib.contextmanager
    def record(self, name):
        """Record spans while the block runs, under a root span ``name``."""
        self.recording = True
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)
            self.recording = False

    def _open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        elif self._client_stack:
            parent = self._client_stack[-1].id
        else:
            parent = None
        with self._lock:
            span = Span(self._next_id, name, parent, threading.get_ident())
            self._next_id += 1
            self.spans.append(span)
        stack.append(span)
        if name in CPU_SPANS:
            span.cpu_start = time.process_time()
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        if span.name in CPU_SPANS:
            span.cpu_end = time.process_time()
        self._stack().pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            span.result = _keep(name, args, kwargs, result)
            return result
        return traced

    def install(self):
        """Wrap every TRACED function at each of its binding sites."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)
            wrapped = self.wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        self._restore.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()


def _keep(name, args, kwargs, result):
    """The part of a call that a per-layer metric reads."""
    def arg(i, key):
        return args[i] if len(args) > i else kwargs[key]

    if name == "minimize.minimize":
        return result.iterations
    if name == "analysis.solve_cell":
        return (arg(0, "nu"), arg(1, "h"), result.iterations)
    if name == "io.emit":
        return os.path.getsize(arg(2, "path"))
    return None


def self_times(spans):
    """Map span id to its duration minus the time its children cover.

    Children on worker threads may overlap each other, so the covered time is
    the length of the union of the child intervals.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        lo = hi = None
        for a, b in sorted(children.get(s.id, ())):
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out[s.id] = (s.end - s.start) - covered
    return out
