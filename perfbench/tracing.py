"""Spans and counters around the public functions of rootfold's layers.

The tracer wraps functions from outside the program: each wrapper is
installed in every rootfold module namespace that binds the original
object (``action.weyl_group``, ``folding.weyl_group``, the names
``selftest`` imports, ...), and ``DatumAutomorphism.__mul__`` and
``inverse`` are wrapped on the class.  ``uninstall`` puts every
original object back, so an untraced pass in the same process runs the
unmodified program.

A span is (name, start, end, parent span, operation id), kept in
memory and written out with ``dump``.  A span's self time is its
duration minus the durations of its direct children, so the self
times of all spans under an operation add up to the operation's time.
Hot kernels get counters only, no spans: their time stays in the self
time of the span that called them.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# (module, attribute, metric name): functions that get a span
SPANNED = (
    ("lattice", "mat_inverse_fractions", "lattice.mat_inverse_fractions"),
    ("lattice", "det", "lattice.det"),
    ("lattice", "smith_normal_form", "lattice.smith_normal_form"),
    ("lattice", "hermite_row_form", "lattice.hermite_row_form"),
    ("rootdatum", "weyl_group", "rootdatum.weyl_group"),
    ("rootdatum", "verify_axioms", "rootdatum.verify_axioms"),
    ("rootdatum", "positive_systems", "rootdatum.positive_systems"),
    ("rootdatum", "classify", "rootdatum.classify"),
    ("action", "make_action", "action.make_action"),
    ("action", "coinvariants", "action.coinvariants"),
    ("action", "fixed_weyl", "action.fixed_weyl"),
    ("folding", "restrict", "folding.restrict"),
    ("folding", "weyl_descent_iso", "folding.weyl_descent_iso"),
    ("folding", "invariant_positive_systems",
     "folding.invariant_positive_systems"),
    ("twist", "z1_enumerate", "twist.z1_enumerate"),
    ("twist", "h1_classes", "twist.h1_classes"),
    ("twist", "equivariant_automorphism_group",
     "twist.equivariant_automorphism_group"),
    ("twist", "equivariant_isomorphic", "twist.equivariant_isomorphic"),
    ("twist", "star_action", "twist.star_action"),
    ("twist", "twist_datum", "twist.twist_datum"),
    ("cli", "parse_datum", "cli.parse_datum"),
    ("cli", "emit_document", "cli.emit_document"),
)

# functions that only get a call counter
COUNTED = (
    ("lattice", "mat_mul", "lattice.mat_mul"),
    ("rootdatum", "root_permutation", "rootdatum.root_permutation"),
    ("action", "orbit", "action.orbit"),
    ("action", "orthogonal_orbit", "action.orthogonal_orbit"),
    ("twist", "cobound", "twist.cobound"),
    ("twist", "base_transport", "twist.base_transport"),
)

# methods of rootdatum.DatumAutomorphism: (attribute, metric name, spanned?)
METHODS = (
    ("inverse", "rootdatum.DatumAutomorphism.inverse", True),
    ("__mul__", "rootdatum.DatumAutomorphism.mul", False),
)


def _arg(args, kwargs, position, name):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else None


# Size hooks: (args, kwargs, result, frame) -> {extra counter: amount}.
# ``frame.child_sizes`` holds the sizes reported by direct children.
def _weyl_group(args, kwargs, result, frame):
    return {"elements": len(result)}


def _positive_systems(args, kwargs, result, frame):
    return {"systems": len(result)}


def _fixed_weyl(args, kwargs, result, frame):
    weyl = _arg(args, kwargs, 1, "weyl")
    scanned = (len(weyl) if weyl is not None
               else frame.child_sizes.get("rootdatum.weyl_group.elements", 0))
    return {"kept": len(result), "scanned": scanned}


def _weyl_descent_iso(args, kwargs, result, frame):
    return {"table_checks": len(result.fixed_subgroup) ** 2}


def _invariant_positive_systems(args, kwargs, result, frame):
    return {"kept": len(result),
            "scanned": frame.child_sizes.get("rootdatum.positive_systems.systems",
                                             0)}


def _z1_enumerate(args, kwargs, result, frame):
    galois = _arg(args, kwargs, 0, "galois")
    module = _arg(args, kwargs, 2, "module")
    return {"assignments": len(module) ** len(galois.generating_set),
            "cocycles": len(result)}


def _h1_classes(args, kwargs, result, frame):
    cocycles = _arg(args, kwargs, 0, "cocycles")
    group = _arg(args, kwargs, 1, "cobounding_group")
    return {"cobounds": len(cocycles) * len(group),
            "classes": result.class_count}


def _automorphism_group(args, kwargs, result, frame):
    return {"size": len(result)}


def _isomorphic(args, kwargs, result, frame):
    return {"found": int(result is not None)}


HOOKS = {
    "rootdatum.weyl_group": _weyl_group,
    "rootdatum.positive_systems": _positive_systems,
    "action.fixed_weyl": _fixed_weyl,
    "folding.weyl_descent_iso": _weyl_descent_iso,
    "folding.invariant_positive_systems": _invariant_positive_systems,
    "twist.z1_enumerate": _z1_enumerate,
    "twist.h1_classes": _h1_classes,
    "twist.equivariant_automorphism_group": _automorphism_group,
    "twist.equivariant_isomorphic": _isomorphic,
}

# the per-layer metrics (see BENCHMARK.json) derived from the stats
CALLS = tuple(n for _, _, n in SPANNED + COUNTED) + tuple(
    n for _, n, _ in METHODS)
SELF = ("lattice.mat_inverse_fractions", "lattice.det",
        "lattice.smith_normal_form", "lattice.hermite_row_form",
        "rootdatum.weyl_group", "rootdatum.DatumAutomorphism.inverse",
        "action.fixed_weyl", "folding.restrict", "folding.weyl_descent_iso",
        "folding.invariant_positive_systems", "twist.z1_enumerate",
        "twist.h1_classes", "cli.parse_datum")
TOTAL = ("rootdatum.verify_axioms", "rootdatum.positive_systems",
         "rootdatum.classify", "action.make_action", "action.coinvariants",
         "twist.equivariant_automorphism_group",
         "twist.equivariant_isomorphic", "twist.star_action",
         "twist.twist_datum", "cli.emit_document")
EXTRA = (("rootdatum.weyl_group", "elements"),
         ("rootdatum.positive_systems", "systems"),
         ("folding.weyl_descent_iso", "table_checks"),
         ("twist.z1_enumerate", "assignments"),
         ("twist.z1_enumerate", "cocycles"),
         ("twist.h1_classes", "cobounds"),
         ("twist.h1_classes", "classes"),
         ("twist.equivariant_automorphism_group", "size"))
RATIOS = (("action.fixed_weyl", "kept_ratio", "kept", "scanned"),
          ("folding.invariant_positive_systems", "kept_ratio", "kept",
           "scanned"),
          ("twist.z1_enumerate", "yield", "cocycles", "assignments"),
          ("twist.equivariant_isomorphic", "found_ratio", "found", None))


class _Frame:
    __slots__ = ("span", "child_time", "child_sizes")

    def __init__(self, span):
        self.span = span
        self.child_time = 0.0
        self.child_sizes = {}


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.extra = {}


class Tracer:
    """Span and counter registry with install/uninstall of wrappers."""

    def __init__(self):
        self.names = []
        self.spans = []          # [name index, start, end, parent, op id]
        self.stats = {}          # metric name -> Stat
        self.counters = {}       # metric name -> [calls]
        self.op_id = None
        self._stack = []
        self._patches = []       # (owner, attribute, original)

    # -- spans -------------------------------------------------------------

    def _enter(self, name_index):
        parent = self._stack[-1].span if self._stack else None
        span = len(self.spans)
        self.spans.append([name_index, 0.0, 0.0, parent, self.op_id])
        frame = _Frame(span)
        self._stack.append(frame)
        return frame

    def _exit(self, frame, name, start, end, sizes):
        self._stack.pop()
        record = self.spans[frame.span]
        record[1] = start
        record[2] = end
        duration = end - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        stat.calls += 1
        stat.total_s += duration
        stat.self_s += duration - frame.child_time
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child_time += duration
        for key, value in (sizes or {}).items():
            stat.extra[key] = stat.extra.get(key, 0) + value
            if parent is not None:
                child = f"{name}.{key}"
                parent.child_sizes[child] = parent.child_sizes.get(child, 0) + value

    def operation(self, op_id, fn):
        """Run ``fn()`` as the root span "op" of one operation; its self
        time is the harness time not spent inside a wrapped call."""
        self.op_id = op_id
        name_index = self._name_index("op")
        frame = self._enter(name_index)
        start = perf_counter()
        try:
            return fn()
        finally:
            self._exit(frame, "op", start, perf_counter(), None)
            self.op_id = None

    def _name_index(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        name_index = self._name_index(name)
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name_index)
            start = perf_counter()
            sizes = None
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(frame, name, start, perf_counter(), None)
                raise
            end = perf_counter()
            if hook is not None:
                sizes = hook(args, kwargs, result, frame)
            tracer._exit(frame, name, start, end, sizes)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        cell = self.counters.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every target wherever a rootfold module binds it."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for module_name, _, _ in SPANNED + COUNTED:
            importlib.import_module(f"rootfold.{module_name}")
        modules = [sys.modules[m] for m in sorted(sys.modules)
                   if m == "rootfold" or m.startswith("rootfold.")]
        targets = [(m, a, n, True) for m, a, n in SPANNED]
        targets += [(m, a, n, False) for m, a, n in COUNTED]
        for module_name, attribute, name, spanned in targets:
            original = getattr(sys.modules[f"rootfold.{module_name}"], attribute)
            wrapper = (self._span_wrapper if spanned
                       else self._count_wrapper)(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)
        cls = sys.modules["rootfold.rootdatum"].DatumAutomorphism
        for attribute, name, spanned in METHODS:
            original = cls.__dict__[attribute]
            wrapper = (self._span_wrapper if spanned
                       else self._count_wrapper)(name, original)
            self._patches.append((cls, attribute, original))
            setattr(cls, attribute, wrapper)

    def uninstall(self):
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches = []

    # -- results -----------------------------------------------------------

    def per_layer(self, passes):
        """Per-layer metrics as {name: (value, unit)}, each averaged over
        ``passes`` traced passes; ratios are taken over all of them."""
        empty = Stat()
        out = {}
        for name in CALLS:
            stat = self.stats.get(name)
            calls = stat.calls if stat else self.counters.get(name, [0])[0]
            out[f"{name}.calls"] = (calls / passes, "count")
        for name in SELF:
            out[f"{name}.self_s"] = (self.stats.get(name, empty).self_s / passes, "s")
        for name in TOTAL:
            out[f"{name}.total_s"] = (self.stats.get(name, empty).total_s / passes,
                                      "s")
        for name, key in EXTRA:
            value = self.stats.get(name, empty).extra.get(key, 0)
            out[f"{name}.{key}"] = (value / passes, "count")
        for name, key, num, den in RATIOS:
            stat = self.stats.get(name, empty)
            d = stat.calls if den is None else stat.extra.get(den, 0)
            out[f"{name}.{key}"] = (stat.extra.get(num, 0) / d if d else 0.0,
                                    "ratio")
        return out

    def self_time_balance(self):
        """(sum of self times of all spans, sum of "op" span durations)."""
        total_self = sum(s.self_s for s in self.stats.values())
        op = self.stats.get("op")
        return total_self, (op.total_s if op else 0.0)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh, separators=(",", ":"))
