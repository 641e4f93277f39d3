"""Span tracer for the fockindex benchmark.

The tracer lives outside the package.  It puts a timing wrapper around every
public callable of each library module -- the functions named in the module's
``__all__`` and the public methods of the classes named there -- around
``cli.run`` and ``cli.Report.to_json``, and around the ``numpy.linalg``
kernels.  Wrappers go in as each module finishes loading (an import hook), so
a name another module imports with ``from .fock import creation`` binds to the
wrapper; modules already loaded when the tracer is installed are patched in
place.

A span is ``[name, layer, start, end, parent, request, nbytes]``, where
``parent`` is the index of the enclosing span and ``nbytes`` the input size
of a kernel call.  Spans stay in memory; :func:`summarize` turns them into
per-layer self times and counts.
A ``numpy.linalg`` kernel is its own ``linalg`` span and is attributed to the
layer of the span that was open when it was called.

Run as a script, the module is a traced cold CLI process::

    python3 perfbench/tracer.py verify-algebra --n 2 --cutoff 16 --seed 7

It installs the tracer, then imports ``fockindex.cli`` and calls ``main``
inside one root span (so the ``cli`` layer includes package import), prints
the report as the CLI does, and writes its spans to standard error as one
line starting with :data:`MARKER`.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib.abc
import importlib.machinery
import json
import sys
import time

LAYERS = ("cli", "fock", "spinors", "symbols", "models", "pairs", "topo")
KERNELS = ("svd", "pinv", "qr", "inv")
MARKER = "PERFBENCH-SPANS "
ROOT = "request"

_CACHE_METHODS = ("cache_info", "cache_clear", "cache_parameters")


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.request = None
        self.evals = collections.Counter()
        self.installed = {layer: 0 for layer in LAYERS + ("linalg",)}
        self._wrapped = {}

    # -- spans -------------------------------------------------------------

    def open(self, name, layer, nbytes=0):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, layer, time.perf_counter(), None, parent,
                           self.request, nbytes])
        self.stack.append(index)
        return index

    def close(self, index):
        self.spans[index][3] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def root(self, request):
        """The root span of one request; spans opened inside carry its id."""
        self.request = request
        index = self.open(ROOT, "cli")
        try:
            yield
        finally:
            self.close(index)
            self.request = None

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn, name, layer):
        if id(fn) in self._wrapped:
            return self._wrapped[id(fn)][1]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)

        for attr in _CACHE_METHODS:
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        self._wrapped[id(fn)] = (fn, traced)
        self.installed[layer] += 1
        return traced

    def _wrap_kernel(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(a, *args, **kwargs):
            index = tracer.open(name, "linalg", getattr(a, "nbytes", 0))
            try:
                return fn(a, *args, **kwargs)
            finally:
                tracer.close(index)

        self.installed["linalg"] += 1
        return traced

    def _count_evals(self, factory):
        """Wrap a ``*_integrand`` factory so its integrands count their calls."""
        tracer = self

        @functools.wraps(factory)
        def counting_factory(*args, **kwargs):
            integrand = factory(*args, **kwargs)

            @functools.wraps(integrand)
            def counted(*a, **k):
                tracer.evals[tracer.request] += 1
                return integrand(*a, **k)

            return counted

        return counting_factory

    # -- installation ------------------------------------------------------

    def install(self):
        """Instrument loaded modules now and the rest as they load."""
        sys.meta_path.insert(0, _InstrumentOnLoad(self))
        for name in _targets():
            if name in sys.modules:
                self.instrument(sys.modules[name])

    def instrument(self, module):
        if module.__name__ == "numpy.linalg":
            for kernel in KERNELS:
                setattr(module, kernel,
                        self._wrap_kernel(getattr(module, kernel),
                                          f"linalg.{kernel}"))
            return
        layer = module.__name__.rsplit(".", 1)[1]
        if layer == "cli":
            module.run = self.wrap(module.run, "cli.run", "cli")
            module.Report.to_json = self.wrap(module.Report.to_json,
                                              "cli.Report.to_json", "cli")
        else:
            for name in module.__all__:
                obj = getattr(module, name)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    self._instrument_class(obj, layer)
                elif callable(obj):
                    wrapped = self.wrap(obj, f"{layer}.{name}", layer)
                    if name.endswith("_integrand"):
                        wrapped = self._count_evals(wrapped)
                        self._wrapped[id(obj)] = (obj, wrapped)
                    setattr(module, name, wrapped)
        self._rebind()

    def _instrument_class(self, cls, layer):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__post_init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(value, (staticmethod, classmethod)):
                setattr(cls, attr,
                        type(value)(self.wrap(value.__func__, name, layer)))
            elif isinstance(value, property) and value.fget is not None:
                setattr(cls, attr,
                        property(self.wrap(value.fget, name, layer),
                                 value.fset, value.fdel, value.__doc__))
            elif callable(value) and not isinstance(value, type):
                setattr(cls, attr, self.wrap(value, name, layer))

    def _rebind(self):
        """Point names bound before wrapping (``from .x import f``) at wrappers."""
        for name in _targets():
            module = sys.modules.get(name)
            if module is None or name == "numpy.linalg":
                continue
            for attr, value in list(vars(module).items()):
                entry = self._wrapped.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])


def _targets():
    return ("numpy.linalg",) + tuple(f"fockindex.{layer}" for layer in LAYERS)


class _InstrumentOnLoad(importlib.abc.MetaPathFinder):
    def __init__(self, tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if fullname not in _targets():
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        tracer = self.tracer

        def instrumented_exec(module):
            exec_module(module)
            tracer.instrument(module)

        spec.loader.exec_module = instrumented_exec
        return spec


# -- aggregation --------------------------------------------------------------


def summarize(spans, evals):
    """Totals over the spans that belong to a request.

    ``evals`` maps request ids to integrand evaluations.  Self time of a span
    is its duration minus its children's durations, so the layers' self times
    add up to the root spans' total (``request_s``).
    """
    child_time = collections.defaultdict(float)
    for span in spans:
        if span[4] is not None:
            child_time[span[4]] += span[3] - span[2]
    totals = collections.defaultdict(float)
    requests = set()
    for index, span in enumerate(spans):
        name, layer, start, end, parent, request, nbytes = span
        if request is None:
            continue
        requests.add(request)
        duration = end - start
        totals[f"{layer}.self_s"] += duration - child_time[index]
        if name == ROOT:
            totals["request_s"] += duration
            continue
        totals[f"{layer}.calls"] += 1
        if layer == "linalg":
            owner = spans[parent][1] if parent is not None else "none"
            kernel = name.split(".", 1)[1]
            totals[f"{owner}.{kernel}.calls"] += 1
            totals[f"{owner}.{kernel}.s"] += duration
            totals[f"{owner}.dense_bytes.computed"] += nbytes
        elif name == "cli.Report.to_json":
            totals["cli.to_json_s"] += duration
        elif name == "symbols.contour_integral":
            totals["symbols.contour_integral.calls"] += 1
            totals["symbols.contour_integral.s"] += duration
    totals["symbols.integrand.evals"] = sum(
        evals.get(request, 0) for request in requests)
    totals["requests"] = len(requests)
    return dict(totals)


def main(argv):
    tracer = Tracer()
    tracer.install()
    with tracer.root(0):
        from fockindex import cli

        code = cli.main(argv)
    sys.stdout.flush()
    sys.stderr.write(MARKER + json.dumps(
        {"spans": tracer.spans, "evals": tracer.evals[0],
         "installed": tracer.installed}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
