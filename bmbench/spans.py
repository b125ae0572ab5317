"""Outside-in tracing of the bmcircuits layers.

`Tracer.install` re-binds every public function of each layer module in
every `bmcircuits` namespace that holds it, so a call opens a span named
after its layer (the module) and function. The constructors of
`BinaryMatroid` and `Circuit` open spans too, and the `Gf2Eliminator`
methods bump counters charged to the innermost open layer span. Nothing in
the package is edited; `uninstall` puts every original back.

Spans stay in memory as (id, parent, layer, name, start, end) and are written
out when the run ends. Self time is a span's duration minus the durations of
its direct children, so the self times of one command's spans add up to the
command's own span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("gf2core", "circuits", "decompose", "arboricity", "oddcover", "orbit",
          "oracle", "formats", "generators", "cli")

# the benchmark opens the cli span around each command itself
_WRAPPED_MODULES = LAYERS[:-1]
_NAMESPACES = LAYERS + ("__init__",)

# per-layer eliminator counters
INSERTS, INDEPENDENT, REDUCES, BUILT = range(4)


class Tracer:
    """Span stack, span log and per-layer counters for one traced pass.

    ``clock`` is injectable so the self-time arithmetic can be tested.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []  # (id, parent, layer, name, start, end)
        self._stack: list[list] = []  # open spans: [id, layer, name, start]
        self.elim: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0, 0])
        self.counts: dict[str, int] = defaultdict(int)
        self._cur = self.elim["none"]
        self._in_insert = 0
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def enter(self, layer: str, name: str) -> None:
        sid = len(self.spans)
        self.spans.append(None)  # reserve the id; filled on exit
        self._stack.append([sid, layer, name, self.clock()])
        self._cur = self.elim[layer]

    def exit(self) -> None:
        end = self.clock()
        sid, layer, name, start = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else None
        self.spans[sid] = (sid, parent, layer, name, start, end)
        self._cur = self.elim[self._stack[-1][1]] if self._stack else self.elim["none"]

    def parent_layer(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    # -- patching ------------------------------------------------------------

    def _span(self, layer: str, name: str, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.enter(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Re-bind the package's public functions and class hooks to traced versions."""
        modules = {name: importlib.import_module(
            "bmcircuits" if name == "__init__" else f"bmcircuits.{name}")
            for name in _NAMESPACES}
        hooks = self._result_hooks()
        wrapped = {}
        for layer in _WRAPPED_MODULES:
            mod = modules[layer]
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrapped[fn] = self._span(layer, name, fn, hooks.get(name))
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._set(mod, name, wrapped[value])
        self._install_classes(modules["gf2core"], modules["circuits"])

    def _install_classes(self, gf2core, circuits) -> None:
        tracer = self
        counts = self.counts
        elim_cls = gf2core.Gf2Eliminator
        matroid_init = self._span("gf2core", "BinaryMatroid", gf2core.BinaryMatroid.__init__)
        circuit_init = self._span("circuits", "Circuit", circuits.Circuit.__init__)
        orig_elim_init = elim_cls.__init__
        orig_insert = elim_cls.insert
        orig_reduce = elim_cls.reduce

        def build_matroid(m, *args, **kwargs):
            matroid_init(m, *args, **kwargs)
            counts["matroid_builds"] += 1
            counts["matroid_build_elements"] += len(m.elements)

        def build_circuit(c, *args, **kwargs):
            circuit_init(c, *args, **kwargs)
            counts["circuit_builds"] += 1

        def elim_init(e, *args, **kwargs):
            tracer._cur[BUILT] += 1
            orig_elim_init(e, *args, **kwargs)

        def insert(e, key):
            cur = tracer._cur
            tracer._in_insert += 1
            try:
                result = orig_insert(e, key)
            finally:
                tracer._in_insert -= 1
            cur[INSERTS] += 1
            if result is None:
                cur[INDEPENDENT] += 1
            return result

        def reduce(e, key):
            if not tracer._in_insert:  # reductions an insert makes are counted as the insert
                tracer._cur[REDUCES] += 1
            return orig_reduce(e, key)

        self._set(gf2core.BinaryMatroid, "__init__", build_matroid)
        self._set(circuits.Circuit, "__init__", build_circuit)
        self._set(elim_cls, "__init__", elim_init)
        self._set(elim_cls, "insert", insert)
        self._set(elim_cls, "reduce", reduce)

    def _result_hooks(self) -> dict:
        counts = self.counts

        def decomposition(d) -> None:
            # count each decomposition once, at its outermost decompose call
            if self.parent_layer() != "decompose":
                counts["phase1_steps"] += d.phase1
                counts["phase2_steps"] += d.phase2

        def partition(result) -> None:
            counts["k_success"] += type(result).__name__ == "IndependentPartition"

        def catalog(result) -> None:
            counts["circuits_enumerated"] += len(result.masks)

        def text(result) -> None:
            counts["bytes_written"] += len(result.encode())

        return {"format_bm": text, "format_bmdec": text,
                "peel_decompose": decomposition, "log_greedy_decompose": decomposition,
                "dense_decompose": decomposition, "auto_decompose": decomposition,
                "can_partition": partition, "enumerate_circuits": catalog}

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output --------------------------------------------------------------

    def write(self, path, **extra) -> None:
        """One JSON line per span: id, parent, layer, name, start, end."""
        with open(path, "a") as out:
            for sid, parent, layer, name, start, end in self.spans:
                out.write(json.dumps({"id": sid, "parent": parent, "layer": layer,
                                      "name": name, "start": start, "end": end,
                                      **extra}) + "\n")


def self_times(spans) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    own = [end - start for _, _, _, _, start, end in spans]
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def check_nesting(spans, rel_tol: float = 1e-9) -> str | None:
    """None when every child lies inside its parent, siblings do not overlap,
    and each root's self times add up to its duration."""
    last_child_end: dict[int, float] = {}
    root_of: list[int] = []
    for sid, parent, _, name, start, end in spans:
        if end < start:
            return f"span {sid} ({name}) ends before it starts"
        if parent is None:
            root_of.append(sid)
            continue
        root_of.append(root_of[parent])
        _, _, _, pname, pstart, pend = spans[parent]
        if start < pstart or end > pend:
            return f"span {sid} ({name}) lies outside its parent {parent} ({pname})"
        if start < last_child_end.get(parent, pstart):
            return f"span {sid} ({name}) overlaps a sibling"
        last_child_end[parent] = end
    totals: dict[int, float] = defaultdict(float)
    for sid, own in enumerate(self_times(spans)):
        totals[root_of[sid]] += own
    for root, total in totals.items():
        duration = spans[root][5] - spans[root][4]
        if abs(total - duration) > rel_tol * max(duration, 1.0):
            return f"self times of command {root} add up to {total}, not {duration}"
    return None
