"""In-memory span tracing of the udwharvest layers, from outside the package.

Each layer is one package module.  Its public functions are wrapped in
every module namespace that holds them (``closedform.faddeeva_w``,
``analysis.correlation_excess``, ``cli.find_lmax``, ...), so a call is
recorded whichever module makes it.  A span is (name, layer, start, end,
parent span, operation id) plus one number taken from the call: the
points it evaluates for ``specfun`` and ``closedform`` entries, the
iterations of a search, the length of a sweep.  Spans live in flat arrays
while the run lasts and are written out once it ends.

Self time is a span's duration minus the durations of its direct children;
a layer's self time is the sum over its spans.  A layer *call* is an entry
into the layer from outside it (a span whose parent belongs to another
layer, or to no layer), so nested helpers inside one layer are not counted
twice.
"""

from __future__ import annotations

import inspect
import time
from array import array

import numpy as np

LAYERS = ("specfun", "closedform", "analysis", "oracle", "cli")

# Public functions of each layer at the time the benchmark was written.
# Any of them that disappears is reported as missing; public functions
# added later are found and wrapped as well.
EXPECTED = {
    "specfun": ("erf_real", "erfcx_real", "faddeeva_w", "scaled_erfi"),
    "closedform": (
        "transition_probability", "geometric_mean_probability",
        "correlation_x_values", "correlation_x", "correlation_excess",
        "concurrence_values", "concurrence", "asymptotic_gm_probability",
        "asymptotic_x", "asymptotic_concurrence", "lmax_large_gap_estimate",
        "concurrence_gap_derivative_estimate",
    ),
    "analysis": ("find_lmax", "find_optimal_gap", "find_crossover", "sweep"),
    "oracle": (
        "extrapolate_to_zero", "pd_double_integral", "pv_gaussian_pole_integral",
        "x_single_integral_pv", "x_double_integral", "c_quadrature",
        "c_double_integral", "assemble_rho", "harvest_report",
    ),
    "cli": (
        "main", "build_figure", "run_verification", "read_data_file",
        "emit_record", "emit_table", "emit_csv", "cmd_eval", "cmd_verify",
        "cmd_sweep", "cmd_lmax", "cmd_peak", "cmd_crossover", "cmd_figure",
    ),
}

SEARCHES = ("find_lmax", "find_optimal_gap", "find_crossover")
DOUBLE_INTEGRALS = ("pd_double_integral", "x_double_integral", "c_double_integral")
PV_ROUTES = ("x_single_integral_pv", "c_quadrature", "pv_gaussian_pole_integral")


def _points(args):
    """Broadcast size of the numeric arguments; 1 for a scenario object."""
    arrays = [a for a in args if isinstance(a, (int, float, np.ndarray, np.generic))]
    if not arrays:
        return 1.0, True
    scalar = all(np.ndim(a) == 0 for a in arrays)
    return float(np.broadcast(*arrays).size), scalar


class Tracer:
    """Span recorder.  ``install`` swaps the wrappers in, ``uninstall``
    restores the originals so untraced passes pay nothing."""

    def __init__(self, modules):
        # modules: layer name -> module object; plus any extra namespaces
        # (such as the package itself) under keys not in LAYERS
        self.modules = modules
        self.names = []  # span name id -> (layer id, function name)
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.value = array("d")  # points / iterations / sweep length
        self.flags = array("b")  # 1 scalar call, 2 raised, 4 NonConvergence raised
        self.stack = []
        self.current_op = -1
        self.missing = []
        self._swaps = []
        self._plan()

    # -- wrapping --------------------------------------------------------

    def _plan(self):
        originals = {}
        for layer in LAYERS:
            mod = self.modules[layer]
            found = {
                name: obj for name, obj in vars(mod).items()
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__
                and not name.startswith("_")
            }
            self.missing += [f"{layer}.{n}" for n in EXPECTED[layer] if n not in found]
            for name, fn in found.items():
                originals[fn] = self._wrap(fn, LAYERS.index(layer), name)
        for mod in self.modules.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in originals:
                    self._swaps.append((mod, name, obj, originals[obj]))

    def install(self):
        for mod, name, _, wrapped in self._swaps:
            setattr(mod, name, wrapped)

    def uninstall(self):
        for mod, name, original, _ in self._swaps:
            setattr(mod, name, original)

    def _wrap(self, fn, layer_id, name):
        nid = len(self.names)
        self.names.append((layer_id, name))
        names = self.names
        stack = self.stack
        start, end, name_ids, parents = self.start, self.end, self.name_id, self.parent
        ops, values, flags = self.op, self.value, self.flags
        clock = time.perf_counter
        layer = LAYERS[layer_id]
        is_search = name in SEARCHES
        is_sweep = layer == "analysis" and name == "sweep"
        counts_points = layer in ("specfun", "closedform")

        def wrapper(*args, **kwargs):
            idx = len(start)
            parent = stack[-1] if stack else -1
            entry = parent < 0 or names[name_ids[parent]][0] != layer_id
            value, flag = 0.0, 0
            if entry and counts_points:
                value, scalar = _points(args)
                flag = 1 if scalar else 0
            start.append(0.0)
            end.append(0.0)
            name_ids.append(nid)
            parents.append(parent)
            ops.append(self.current_op)
            values.append(value)
            flags.append(flag)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                flag |= 2
                if type(exc).__name__ == "NonConvergence":
                    flag |= 4
                flags[idx] = flag
                raise
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if is_search:
                values[idx] = float(getattr(result, "iterations", 0))
            elif is_sweep:
                values[idx] = float(np.size(result.axis_values))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- analysis --------------------------------------------------------

    def arrays(self):
        """Copies of the span columns as numpy arrays."""
        cols = dict(start=self.start, end=self.end, parent=self.parent,
                    name_id=self.name_id, op=self.op, value=self.value, flags=self.flags)
        return {k: np.array(v) for k, v in cols.items()}

    def save(self, path):
        """Write every span, with the name table, as one ``.npz`` file."""
        a = self.arrays()
        layers = np.array([LAYERS[lid] for lid, _ in self.names])
        names = np.array([n for _, n in self.names])
        np.savez(path, span_layer_names=layers, span_names=names, **a)


def self_times(start, end, parent):
    """Per-span self time: duration minus the summed durations of direct
    children.  Children run inside their parent, so this never goes below
    zero except by clock rounding."""
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - child


def summarize(tracer, ops):
    """Per-layer totals over the traced operations.

    ``ops`` maps operation id -> (kind, label, wall seconds).  Returns
    (layer totals dict, per-operation closure rows) where each closure row
    is (op id, kind, wall, layer self times..., benchmark self time).
    """
    a = tracer.arrays()
    n = a["start"].size
    layer = np.array([lid for lid, _ in tracer.names])[a["name_id"]]
    name_of = np.array([nm for _, nm in tracer.names], dtype=object)[a["name_id"]]
    selft = self_times(a["start"], a["end"], a["parent"])
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    parent = np.maximum(a["parent"], 0)
    entry = ~has_parent | (layer[parent] != layer)

    def outermost(names):
        """Spans of these functions not called from one of them."""
        group = np.isin(name_of, names)
        return group & ~(has_parent & group[parent])

    totals = {}
    for lid, lname in enumerate(LAYERS):
        m = layer == lid
        totals[f"{lname}.self_s"] = float(selft[m].sum())
        totals[f"{lname}.calls"] = int((m & entry).sum())
        totals[f"{lname}.points"] = float(a["value"][m & entry].sum())
        totals[f"{lname}.scalar_calls"] = int((m & entry & (a["flags"] & 1 == 1)).sum())

    search = np.isin(name_of, SEARCHES) & (layer == LAYERS.index("analysis"))
    totals["analysis.searches"] = int(search.sum())
    totals["analysis.raised"] = int((search & (a["flags"] & 2 == 2)).sum())
    ok = search & (a["flags"] & 2 == 0)
    totals["analysis.iterations"] = float(a["value"][ok].sum())
    totals["analysis.completed"] = int(ok.sum())
    # closed-form entries made while a search is on the stack: climb the
    # parent links one level per step until every chain has ended
    in_search = np.zeros(n, dtype=bool)
    anc = a["parent"].copy()
    while (live := anc >= 0).any():
        in_search[live] |= search[anc[live]]
        anc[live] = a["parent"][anc[live]]
    cf = LAYERS.index("closedform")
    totals["analysis.closedform_calls"] = int(((layer == cf) & entry & in_search).sum())
    sweep = (name_of == "sweep") & (layer == LAYERS.index("analysis"))
    totals["analysis.sweep_points"] = float(a["value"][sweep].sum())

    orc = layer == LAYERS.index("oracle")
    totals["oracle.double_integral_s"] = float(dur[orc & outermost(DOUBLE_INTEGRALS)].sum())
    totals["oracle.pv_s"] = float(dur[orc & outermost(PV_ROUTES)].sum())
    totals["oracle.nonconvergence"] = int((orc & (a["flags"] & 4 == 4) & entry).sum())

    closure = []
    for op_id, (kind, _, wall) in ops.items():
        m = a["op"] == op_id
        row = [float(selft[m & (layer == lid)].sum()) for lid in range(len(LAYERS))]
        top = float(dur[m & (a["parent"] < 0)].sum())
        closure.append((op_id, kind, wall, row, wall - top))
    return totals, closure
