"""Spans around the library's public functions, recorded from outside.

`Tracer.install` replaces each listed function at every module attribute
of the package that binds it (so `closure.minimize_dfa` is wrapped as
well as `languages.minimize_dfa`), and `uninstall` puts the originals
back.  A span is (name, start, end, parent span, query id); spans stay in
memory and are written once by `write_spans`.  Self time is a span's
duration minus the time its direct children cover.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
import time

PACKAGE = "profinite_kit"
LAYERS = {
    "languages": ("parse_regex", "to_minimal_dfa", "minimize_dfa", "transition_semigroup",
                  "syntactic_semigroup", "dfa_to_regex"),
    "semigroups": ("FiniteSemigroup.from_table", "check_associativity", "green_relations",
                   "subsemigroup_closure", "enumerate_semigroups", "associative_tables",
                   "canonical_form"),
    "kappa": ("member", "satisfies"),
    "metric": ("separation_rank",),
    "closure": ("pro_g_closure", "kernel_g", "kernel_via_closure", "g_pointlike",
                "separable_by_group_language", "separation_certificate"),
    "freegroup": ("benois_saturate", "generated_subgroup", "trim", "stallings_graph",
                  "rational_intersection_witness"),
    "symbolic": ("factorial_trim", "entropy"),
}
CLI_TIMERS = ("cli.process_ms", "cli.import_ms", "cli.handler_ms", "cli.render_ms")

# Size counters read off arguments and results: function -> [(counter, reader)].
SIZE_COUNTERS = {
    "languages.to_minimal_dfa": [("languages.to_minimal_dfa.states",
                                  lambda args, out: out.n_states)],
    "semigroups.FiniteSemigroup.from_table": [("semigroups.from_table.elements",
                                               lambda args, out: out.order)],
    "freegroup.benois_saturate": [
        ("freegroup.benois_saturate.states", lambda args, out: args[0].n_states),
        ("freegroup.benois_saturate.eps_added",
         lambda args, out: len(out.eps) - len(args[0].eps)),
    ],
    "freegroup.stallings_graph": [("freegroup.stallings_graph.states",
                                   lambda args, out: out.n_states)],
    "closure.pro_g_closure": [("closure.pro_g_closure.states",
                               lambda args, out: out.automaton.n_states)],
    "kappa.member": [("kappa.member.true", lambda args, out: int(out))],
    "metric.separation_rank": [("metric.separation_rank.exact",
                                lambda args, out: int(out.exact))],
    "closure.separation_certificate": [("closure.separation_certificate.found",
                                        lambda args, out: int(out is not None))],
}
RATIOS = {
    "kappa.member.true_ratio": ("kappa.member.true", "kappa.member"),
    "metric.separation_rank.exact_ratio": ("metric.separation_rank.exact",
                                           "metric.separation_rank"),
    "closure.separation_certificate.found_ratio": ("closure.separation_certificate.found",
                                                   "closure.separation_certificate"),
}
SIZE_METRICS = (
    "languages.to_minimal_dfa.states", "semigroups.from_table.elements",
    "freegroup.benois_saturate.states", "freegroup.benois_saturate.eps_added",
    "freegroup.stallings_graph.states", "closure.pro_g_closure.states",
)


def function_names() -> list[str]:
    return [f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns]


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for name in function_names():
        out.append((f"{name}.calls", "count"))
        out.append((f"{name}.self_ms", "ms"))
    out.extend((f"{module}.self_ms", "ms") for module in LAYERS)
    out.extend((name, "ms") for name in CLI_TIMERS)
    out.extend((name, "count") for name in SIZE_METRICS)
    out.extend((name, "ratio") for name in RATIOS)
    out.append(("trace.overhead_ratio", "ratio"))
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index, query id]
        self.calls: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.query = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.query])
        self._stack.append(index)
        return index

    def _close(self, index: int):
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    def _count(self, name: str, args, out):
        self.calls[name] = self.calls.get(name, 0) + 1
        for counter, read in SIZE_COUNTERS.get(name, ()):
            self.counters[counter] = self.counters.get(counter, 0) + read(args, out)

    def span(self, name: str, fn, *args):
        """Run fn(*args) inside a span of its own (used for bench-side timers)."""
        index = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(index)

    def _wrap(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            tracer._count(name, args, out)
            return out

        return wrapper

    def _wrap_generator(self, name: str, fn):
        # One span per resumption, so work the consumer does between two
        # items is not charged to the generator.
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._count(name, args, None)
            inner = fn(*args, **kwargs)
            while True:
                index = tracer._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer._close(index)
                yield item

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self):
        modules = [sys.modules[m] for m in list(sys.modules)
                   if m == PACKAGE or m.startswith(PACKAGE + ".")]
        for layer, fns in LAYERS.items():
            home = importlib.import_module(f"{PACKAGE}.{layer}")
            for fn_name in fns:
                name = f"{layer}.{fn_name}"
                if "." in fn_name:
                    cls_name, method = fn_name.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[method]
                    wrapped = classmethod(self._wrap(name, original.__func__))
                    self._patch(cls, method, original, wrapped)
                    continue
                original = getattr(home, fn_name)
                wrap = self._wrap_generator if inspect.isgeneratorfunction(original) else self._wrap
                wrapped = wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, original, wrapped)

    def _patch(self, owner, attr: str, original, wrapped):
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def self_ms(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start - covered) * 1000.0
        return out

    def total_ms(self, name: str) -> float:
        """Inclusive time of every span with this name."""
        return sum(end - start for n, start, end, _, _ in self.spans if n == name) * 1000.0

    def export(self) -> dict:
        return {"spans": self.spans, "calls": self.calls, "counters": self.counters}

    def merge(self, data: dict, parent: int):
        """Adopt another process's export; its root spans hang under `parent`."""
        offset = len(self.spans)
        for name, start, end, up, _ in data["spans"]:
            self.spans.append([name, start, end, parent if up < 0 else up + offset, self.query])
        for table, mine in ((data["calls"], self.calls), (data["counters"], self.counters)):
            for key, value in table.items():
                mine[key] = mine.get(key, 0) + value

    def write_spans(self, path: str):
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("index\tname\tstart\tend\tparent\tquery\n")
            for index, (name, start, end, parent, query) in enumerate(self.spans):
                handle.write(f"{index}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{query}\n")


def summarize(tracer: Tracer, overhead: float) -> dict:
    """Every per-layer metric as name -> (value, unit)."""
    calls, counters, self_ms = tracer.calls, tracer.counters, tracer.self_ms()
    metrics: dict[str, tuple[float, str]] = {}
    for name in function_names():
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.self_ms"] = (self_ms.get(name, 0.0), "ms")
    for module, fns in LAYERS.items():
        total = sum(self_ms.get(f"{module}.{fn}", 0.0) for fn in fns)
        metrics[f"{module}.self_ms"] = (total, "ms")
    for name in CLI_TIMERS:
        metrics[name] = (tracer.total_ms(name), "ms")
    for name in SIZE_METRICS:
        metrics[name] = (counters.get(name, 0), "count")
    for name, (numerator, denominator) in RATIOS.items():
        base = calls.get(denominator, 0)
        metrics[name] = (counters.get(numerator, 0) / base if base else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics
