"""Outside-in span tracer for orbitkit.

Nothing under ``src/`` knows about it: :meth:`Tracer.install` rebinds every
``orbitkit.*`` module global that refers to one of the traced functions to
a wrapper that records a span, and :meth:`Tracer.restore` puts the
original objects back.  Rebinding every global (not only the defining one)
matters because ``pipeline``, ``quantize`` and ``cech`` import functions
such as ``generate_weyl_group`` or ``rank`` (as ``rational_rank``) by name.

Spans are kept in memory as compact arrays with their parent ids and can
be written out at the end; the per-op metrics are aggregated from them.
"""

from __future__ import annotations

import array
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = {
    "rootsys": ("build_root_system", "ambient_weight", "positive_roots", "pairing"),
    "weyl": ("generate_weyl_group", "weyl_orbit", "dominant_representative", "reflection"),
    "orbit": (
        "singular_roots", "stabilizer_report", "admissible_positive_system",
        "check_admissibility", "polarization", "kks_matrix", "lagrangian_check",
    ),
    "quantize": ("orbit_to_rep", "is_integral", "extendability_certificate", "custom_lattice"),
    "pipeline": ("analyze_orbit",),
    "cech": (
        "parse_nerve_lines", "parse_cochain_lines", "coboundary_matrix",
        "coboundary", "cohomology", "chern_class",
    ),
    "linalg": ("rank", "solve", "smith_normal_form", "in_integer_row_span", "mat_mul", "mat_vec"),
    "cli": ("main", "canonical_json"),
}

OP_SPAN = "bench.op"


def _cells(m) -> int:
    return len(m) * len(m[0]) if m and m[0] else 0


# size counters, keyed by traced function: (counter name, f(args, result))
COUNTERS = {
    "weyl.generate_weyl_group": ("weyl.elements", lambda args, r: r.order),
    "weyl.weyl_orbit": ("weyl.orbit_points", lambda args, r: len(r.points)),
    "linalg.rank": ("linalg.rank.cells", lambda args, r: _cells(args[0])),
    "linalg.smith_normal_form": ("linalg.smith_normal_form.cells", lambda args, r: _cells(args[0])),
    "cech.coboundary_matrix": ("cech.coboundary_matrix.cells", lambda args, r: _cells(r)),
}
COUNTER_NAMES = tuple(name for name, _ in COUNTERS.values()) + (
    "cech.eliminations",
    "cli.stdout_bytes",
)


def span_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


class Tracer:
    """Records spans around the traced orbitkit functions while installed."""

    def __init__(self):
        self.names = span_names() + [OP_SPAN]
        self.layers = [n.split(".", 1)[0] for n in self.names]
        self._layer_index = {l: i for i, l in enumerate(dict.fromkeys(self.layers))}
        self._span_layer = [self._layer_index[l] for l in self.layers]
        self._depth = [0] * len(self._layer_index)
        # one entry per closed span, in closing order
        self.ids = array.array("q")
        self.parents = array.array("q")
        self.kinds = array.array("H")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.outermost = array.array("b")
        self.counters: dict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._next_id = 0
        self._bound: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def _open(self, kind: int) -> tuple[int, int, bool]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        layer = self._span_layer[kind]
        outer = self._depth[layer] == 0
        self._depth[layer] += 1
        return sid, parent, outer

    def _close(self, kind: int, sid: int, parent: int, outer: bool, t0: float, t1: float) -> None:
        self._stack.pop()
        self._depth[self._span_layer[kind]] -= 1
        self.ids.append(sid)
        self.parents.append(parent)
        self.kinds.append(kind)
        self.starts.append(t0)
        self.ends.append(t1)
        self.outermost.append(outer)

    def op(self, fn, *args):
        """Run one benchmark op under a root span and return its result."""
        kind = len(self.names) - 1
        sid, parent, outer = self._open(kind)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(kind, sid, parent, outer, t0, perf_counter())

    def _wrap(self, name: str, fn):
        kind = self.names.index(name)
        counter = COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            sid, parent, outer = tracer._open(kind)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(kind, sid, parent, outer, t0, perf_counter())
            if counter is not None:
                tracer.counters[counter[0]] += counter[1](args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    # ------------------------------------------------------------ binding

    def install(self) -> None:
        """Rebind every orbitkit module global bound to a traced function."""
        if self._bound:
            raise RuntimeError("tracer already installed")
        importlib.import_module("orbitkit.cli")
        wrappers = {}
        for layer, fns in LAYERS.items():
            module = importlib.import_module(f"orbitkit.{layer}")
            for fn_name in fns:
                original = getattr(module, fn_name)
                wrappers[id(original)] = (original, self._wrap(f"{layer}.{fn_name}", original))
        for mod_name, module in sorted(sys.modules.items()):
            if mod_name != "orbitkit" and not mod_name.startswith("orbitkit."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._bound.append((module, attr, value))

    def restore(self) -> None:
        for module, attr, original in reversed(self._bound):
            setattr(module, attr, original)
        self._bound.clear()

    @property
    def bound(self) -> list[tuple[object, str, object]]:
        """(module, attribute, original function) for each rebound global."""
        return list(self._bound)

    # ------------------------------------------------------------ output

    def per_op_metrics(self) -> dict[str, float]:
        """Means per op span: calls and self time per traced function, self
        and inclusive time per layer, and the size counters."""
        n_names = len(self.names)
        calls = [0] * n_names
        self_s = [0.0] * n_names
        incl_s = [0.0] * n_names
        child = defaultdict(float)
        for sid, parent, kind, t0, t1, outer in zip(
            self.ids, self.parents, self.kinds, self.starts, self.ends, self.outermost
        ):
            dur = t1 - t0
            calls[kind] += 1
            self_s[kind] += dur - child.pop(sid, 0.0)
            if outer:
                incl_s[kind] += dur
            child[parent] += dur
        op_kind = n_names - 1
        ops = calls[op_kind]
        if ops == 0:
            raise ValueError("no op spans recorded")
        out: dict[str, float] = {}
        layer_self = defaultdict(float)
        layer_incl = defaultdict(float)
        for kind, name in enumerate(self.names[:-1]):
            out[f"{name}.calls"] = calls[kind] / ops
            out[f"{name}.self_s"] = self_s[kind] / ops
            layer_self[self.layers[kind]] += self_s[kind]
            layer_incl[self.layers[kind]] += incl_s[kind]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer] / ops
            out[f"{layer}.incl_s"] = layer_incl[layer] / ops
        for name in COUNTER_NAMES:
            out[name] = self.counters.get(name, 0) / ops
        out["cech.eliminations"] = out["linalg.rank.calls"] + out["linalg.smith_normal_form.calls"]
        out["trace.op_s"] = incl_s[op_kind] / ops
        return out

    def write_spans(self, path: str) -> None:
        """A JSON header line, then the span arrays back to back."""
        fields = ("ids", "parents", "kinds", "starts", "ends", "outermost")
        header = {
            "names": self.names,
            "count": len(self.ids),
            "fields": [[f, getattr(self, f).typecode] for f in fields],
            "order": "closing",
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for f in fields:
                getattr(self, f).tofile(fh)
