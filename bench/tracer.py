"""Layer tracer for the in-process replay.

Every function that one ``toricdm`` module binds from another is replaced,
in the binding module's namespace, by a wrapper that records a span tagged
with the defining module as its layer.  The bindings are discovered by
walking the module namespaces, so a new import is traced without editing
this file.  A few functions are also wrapped in their home module, because
the named per-layer metrics need their calls from inside that module too.

Spans stay in memory as ``(id, name, start, end, parent id, request id)``;
self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import pkgutil
import time
import types

LAYERS = ("cli", "documents", "fans", "lattice", "stacky", "gerbes", "morphisms", "oracle")

# Functions wrapped in their own module as well, for the named metrics.
HOME_WRAPPED = {
    "documents": ("schema_errors",),
    "fans": ("maximal_cones", "validate_fan", "is_admissible_zero_pattern"),
    "lattice": ("_snf_full",),
    "gerbes": ("canonicalize",),
}

# Span records kept for the spans file; aggregates are exact beyond it.
SPAN_RECORD_LIMIT = 200_000


class _Stat:
    __slots__ = ("layer", "calls", "total", "self_time", "errors")

    def __init__(self, layer):
        self.layer = layer
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.errors = 0


class Tracer:
    def __init__(self, package: str = "toricdm"):
        self.package = package
        self.modules = {}
        self.stats = {}
        self.stack = []
        self.spans = []
        self.dropped = 0
        self.next_id = 0
        self.request_id = 0
        self.request_time = 0.0
        self.snf_max_dim = 0
        self.poly_evals = 0
        self.condition_b = {"proven": 0, "refuted": 0, "unknown": 0}
        self.oracle_skipped = 0
        self.unwrapped = {}
        self._undo = []

    # -- installation ---------------------------------------------------------

    def install(self):
        pkg = importlib.import_module(self.package)
        for info in pkgutil.iter_modules(pkg.__path__):
            self.modules[info.name] = importlib.import_module(f"{self.package}.{info.name}")
        errors = self.modules["errors"]
        self._toric_error = errors.ToricError
        self._too_large = errors.TooLargeError
        wrappers = {}
        prefix = self.package + "."
        for name, module in [(self.package, pkg)] + sorted(self.modules.items()):
            home = name.rsplit(".", 1)[-1]
            for attr, obj in list(vars(module).items()):
                if inspect.ismodule(obj) and obj.__name__.startswith(prefix) and obj is not module:
                    # ``from . import documents``: calls go through the module
                    # object, so the binding module gets a view whose
                    # functions are wrapped; the module's own calls are not.
                    self._replace(module, attr, self._module_view(obj, wrappers))
                    continue
                defined = getattr(obj, "__module__", None) or ""
                if not defined.startswith(prefix):
                    continue
                layer = defined[len(prefix):]
                if inspect.isfunction(obj):
                    if layer != home or attr in HOME_WRAPPED.get(home, ()):
                        key = (layer, obj.__name__)
                        if key not in wrappers:
                            wrappers[key] = self._wrap(obj, f"{layer}.{obj.__name__}", layer)
                        self._replace(module, attr, wrappers[key])
                elif inspect.isclass(obj) and layer in LAYERS and home in LAYERS \
                        and layer != home:
                    self.unwrapped.setdefault(f"{layer}.{obj.__name__}", set()).add(home)
        polys = self.modules["morphisms"].SparsePolynomial
        self._replace(polys, "evaluate", self._count_evals(polys.evaluate))
        self.run = self._wrap(self.modules["cli"].run, "cli.run", "cli")

    def _module_view(self, module, wrappers):
        view = types.ModuleType(module.__name__, module.__doc__)
        view.__dict__.update(vars(module))
        layer = module.__name__[len(self.package) + 1:]
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                key = (layer, obj.__name__)
                if key not in wrappers:
                    wrappers[key] = self._wrap(obj, f"{layer}.{obj.__name__}", layer)
                setattr(view, attr, wrappers[key])
        return view

    def uninstall(self):
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    def _replace(self, target, attr, value):
        self._undo.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def _count_evals(self, fn):
        tracer = self

        def evaluate(*args, **kwargs):
            tracer.poly_evals += 1
            return fn(*args, **kwargs)

        return evaluate

    def _wrap(self, fn, name, layer):
        stat = self.stats.setdefault(name, _Stat(layer))
        stack = self.stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self
        toric_error = self._toric_error
        too_large = self._too_large
        hook = {"lattice._snf_full": self._on_snf,
                "morphisms.check_condition_b": self._on_condition_b}.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = tracer.next_id
            tracer.next_id = span_id + 1
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, result)
                return result
            except toric_error as exc:
                if not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    stat.errors += 1
                    if layer == "oracle" and isinstance(exc, too_large):
                        tracer.oracle_skipped += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat.calls += 1
                stat.total += duration
                stat.self_time += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                    parent_id = parent[1]
                else:
                    parent_id = None
                    tracer.request_time += duration
                if len(spans) < SPAN_RECORD_LIMIT:
                    spans.append((span_id, name, start, end, parent_id, tracer.request_id))
                else:
                    tracer.dropped += 1

        traced.__wrapped__ = fn
        return traced

    def _on_snf(self, args, result):
        matrix = args[0]
        self.snf_max_dim = max(self.snf_max_dim, matrix.rows, matrix.cols)

    def _on_condition_b(self, args, verdict):
        self.condition_b[verdict.status] = self.condition_b.get(verdict.status, 0) + 1

    # -- results ----------------------------------------------------------------

    def layer_metrics(self) -> dict:
        out = {}
        total = self.request_time or 1.0
        for layer in LAYERS:
            stats = [s for s in self.stats.values() if s.layer == layer]
            self_time = sum(s.self_time for s in stats)
            out[f"{layer}.calls"] = (sum(s.calls for s in stats), "count")
            out[f"{layer}.self_s"] = (self_time, "s")
            out[f"{layer}.share"] = (self_time / total, "ratio")
            out[f"{layer}.errors"] = (sum(s.errors for s in stats), "count")

        def stat(name):
            return self.stats.get(name) or _Stat(None)

        checks = sum(self.condition_b.values())
        decided = self.condition_b["proven"] + self.condition_b["refuted"]
        out.update({
            "documents.schema_s": (stat("documents.schema_errors").total, "s"),
            "fans.validate_fan.calls": (stat("fans.validate_fan").calls, "count"),
            "fans.validate_fan.self_s": (stat("fans.validate_fan").self_time, "s"),
            "fans.admissible.calls": (stat("fans.is_admissible_zero_pattern").calls, "count"),
            "fans.maximal_cones.calls": (stat("fans.maximal_cones").calls, "count"),
            "lattice.snf.calls": (stat("lattice._snf_full").calls, "count"),
            "lattice.snf.self_s": (stat("lattice._snf_full").self_time, "s"),
            "lattice.snf.max_dim": (self.snf_max_dim, "count"),
            "gerbes.canonicalize.calls": (stat("gerbes.canonicalize").calls, "count"),
            "morphisms.poly_evals": (self.poly_evals, "count"),
            "morphisms.decided_ratio": (decided / checks if checks else 0.0, "ratio"),
            "oracle.skipped": (self.oracle_skipped, "count"),
        })
        return out

    def write_spans(self, path, request_kinds):
        """Header line (field names, dropped count, request kinds by request
        id), then one JSON array per span."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps({"fields": ["id", "name", "start", "end", "parent",
                                                "request"],
                                     "dropped": self.dropped,
                                     "requests": request_kinds}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
