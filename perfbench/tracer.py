"""Per-layer tracing from outside the program.

`Tracer.install()` replaces the public functions of each hecke_forge layer
by timing wrappers, in this process only: the module attribute, every
other hecke_forge module global bound to the same object, and the
entries of `verify.ALL_CHECKS`.  Each wrapped call adds its duration to
its function's total (outermost calls only) and to its caller's child
time, so a layer's self time is the time its wrapped calls spent outside
other wrapped calls.  Time in code that is not wrapped is charged to the
nearest wrapped caller, or to the `bench` pseudo-layer at the top.

Functions marked hot (called up to millions of times) are counted and
timed but get no span; every other call records a span
(id, name, parent id, start, end), kept in memory until `spans()`.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

LAYERS = ("finglq", "repth", "hecke", "qpoly", "weyl", "pseudocoef",
          "charformula", "verify", "report")

# (module, attribute path, hot).  The layer is the module.  Besides the
# functions the metrics name, the main entry points of each layer are
# wrapped so that their time lands in their own layer's self time.
TARGETS = [
    ("finglq", "Fq.__init__", False),
    ("finglq", "mat_mul", True),
    ("finglq", "mat_inv", True),
    ("finglq", "mat_det", True),
    ("finglq", "enumerate_group", False),
    ("finglq", "MatrixGroup.precompute_inverses", False),
    ("finglq", "MatrixGroup.conjugacy_classes", False),
    ("finglq", "bruhat_decomposition", False),
    ("finglq", "elliptic_regular", True),
    ("finglq", "proper_parabolic_avoidance", True),
    ("finglq", "check_field_axioms", False),
    ("repth", "_coset_data", False),
    ("repth", "intertwining_dimension", False),
    ("repth", "finite_hecke_basis", False),
    ("repth", "e_tau", False),
    ("repth", "InducedRep.hecke_operator", False),
    ("repth", "trace_via_coset_sum", False),
    ("repth", "parabolic_induction_character", False),
    ("repth", "steinberg_char", False),
    ("repth", "alvis_curtis_sign_check", False),
    ("repth", "char_generalized_trivial", False),
    ("repth", "elliptic_regular_class_reps", False),
    ("repth", "subrep_from_idempotent", False),
    ("repth", "conj_avg", False),
    ("repth", "FinRep.invariant_inner_product", False),
    ("repth", "frobenius_transport_check", False),
    ("hecke", "t_mul", True),
    ("hecke", "t_power", False),
    ("hecke", "structure_constants", False),
    ("hecke", "convolution_oracle", False),
    ("hecke", "central_reduction", True),
    ("qpoly", "QPoly.__mul__", True),
    ("weyl", "mul", True),
    ("weyl", "length", True),
    ("weyl", "bfs_ball", False),
    ("weyl", "length_bfs", False),
    ("weyl", "parahoric_weyl_group", True),
    ("pseudocoef", "kottwitz_ep", False),
    ("pseudocoef", "average_pseudocoef", False),
    ("pseudocoef", "laumon_f0", False),
    ("pseudocoef", "assemble_F0", False),
    ("pseudocoef", "projection_check", False),
    ("pseudocoef", "support_filter", False),
    ("charformula", "constant_CS", False),
    ("charformula", "normalized_constant_check", False),
    ("charformula", "volume_is_poincare", False),
    ("charformula", "unramified_character_rhs", False),
    ("charformula", "ramified_prefactor", True),
    ("charformula", "power_identity_check", False),
    ("charformula", "epsilon_cross_check", True),
    ("report", "reports_to_json", False),
    ("report", "reports_to_csv", False),
]

# per-layer metric -> (kind, what).  `time` sums the outermost inclusive
# time of the listed functions, `calls` their call counts.
_METRICS = {
    "finglq.mat_mul_calls": ("calls", ["finglq.mat_mul"]),
    "finglq.mat_mul_s": ("time", ["finglq.mat_mul"]),
    "finglq.mat_inv_calls": ("calls", ["finglq.mat_inv"]),
    "finglq.precompute_inverses_calls":
        ("calls", ["finglq.MatrixGroup.precompute_inverses"]),
    "finglq.enumerate_s": ("time", ["finglq.enumerate_group"]),
    "finglq.elements_enumerated": ("counter", "elements_enumerated"),
    "finglq.field_tables_s": ("time", ["finglq.Fq.__init__"]),
    "finglq.group_cache_hit_ratio": ("cache", None),
    "finglq.classes_s": ("time", ["finglq.MatrixGroup.conjugacy_classes"]),
    "finglq.classes_found": ("counter", "classes_found"),
    "finglq.bruhat_s": ("time", ["finglq.bruhat_decomposition"]),
    "repth.coset_transversal_s": ("time", ["repth._coset_data"]),
    "repth.intertwining_dimension_s":
        ("time", ["repth.intertwining_dimension"]),
    "repth.intertwining_dimension_calls":
        ("calls", ["repth.intertwining_dimension"]),
    "repth.e_tau_s": ("time", ["repth.e_tau"]),
    "repth.hecke_operator_s": ("time", ["repth.InducedRep.hecke_operator"]),
    "repth.hecke_operator_calls":
        ("calls", ["repth.InducedRep.hecke_operator"]),
    "repth.trace_formula_s": ("time", ["repth.trace_via_coset_sum"]),
    "repth.trace_formula_calls": ("calls", ["repth.trace_via_coset_sum"]),
    "repth.parabolic_induction_s":
        ("time", ["repth.parabolic_induction_character"]),
    "repth.parabolic_induction_calls":
        ("calls", ["repth.parabolic_induction_character"]),
    "repth.steinberg_s": ("time", ["repth.steinberg_char"]),
    "repth.sign_identity_s": ("time", ["repth.alvis_curtis_sign_check"]),
    "hecke.t_mul_s": ("time", ["hecke.t_mul"]),
    "hecke.t_mul_calls": ("calls", ["hecke.t_mul"]),
    "hecke.structure_constants_s": ("time", ["hecke.structure_constants"]),
    "hecke.central_reduction_s": ("time", ["hecke.central_reduction"]),
    "hecke.oracle_s": ("time", ["hecke.convolution_oracle"]),
    "qpoly.mul_calls": ("calls", ["qpoly.QPoly.__mul__"]),
    "weyl.mul_calls": ("calls", ["weyl.mul"]),
    "weyl.bfs_s": ("time", ["weyl.bfs_ball", "weyl.length_bfs",
                            "weyl.parahoric_weyl_group"]),
    "pseudocoef.average_s": ("time", ["pseudocoef.average_pseudocoef"]),
    "pseudocoef.systems": ("calls", ["pseudocoef.kottwitz_ep"]),
    "pseudocoef.laumon_s": ("time", ["pseudocoef.laumon_f0"]),
    "pseudocoef.lift_s": ("time", ["pseudocoef.assemble_F0"]),
    "pseudocoef.support_filter_s": ("time", ["pseudocoef.support_filter"]),
    "charformula.s": ("layer", "charformula"),
    "report.render_s": ("time", ["report.reports_to_json",
                                 "report.reports_to_csv"]),
}

# the 27 registered checks of `verify all`, by function name
VERIFY_CHECKS = (
    "length_oracle", "epsilon_sign_rule", "orbit_partition",
    "rotation_period", "volume_poincare", "perm_sign_multiplicative",
    "hecke_oracle", "hecke_associativity", "central_morphism",
    "pi_power_identities", "field_axioms", "gl_orders",
    "elliptic_equivalence", "e_tau", "trace_formula",
    "generalized_trivial_char", "alvis_curtis", "group_averaged_trace",
    "matrix_coefficient_sum", "frobenius_transport", "laumon_average",
    "projection", "support_filter", "constant_collapse",
    "unramified_consistency", "prefactor", "power_identity",
)
for _check in VERIFY_CHECKS:
    _METRICS[f"verify.{_check}_s"] = ("time", [f"verify.check_{_check}"])
for _layer in LAYERS + ("bench",):
    _METRICS[f"{_layer}.self_s"] = ("self", _layer)

# reported beside the layer metrics by the traced run
TRACE_METRICS = {
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}


def metric_units() -> dict:
    """Every per-layer metric name with its unit."""
    out = {}
    for name, (kind, _what) in _METRICS.items():
        out[name] = {"time": "s", "self": "s", "layer": "s",
                     "cache": "ratio"}.get(kind, "count")
    out.update(TRACE_METRICS)
    return out


class Tracer:
    def __init__(self):
        self.calls: dict = {}
        self.total: dict = {}
        self.depth: dict = {}
        self.layer_self = {layer: 0.0 for layer in LAYERS + ("bench",)}
        self.layer_total = {layer: 0.0 for layer in LAYERS}
        self.layer_depth = {layer: 0 for layer in LAYERS}
        self.counters = {"elements_enumerated": 0, "classes_found": 0,
                         "classed_groups": set()}
        # a frame is [child time, span id]; the bottom one is the benchmark
        self.stack = [[0.0, None]]
        self._spans: list = []
        self._next_span = 0
        self._caches: list = []
        self._started = None
        self.missing: list = []

    # -- installation ----------------------------------------------------
    def install(self):
        for module_name, path, hot in TARGETS:
            module = importlib.import_module(f"hecke_forge.{module_name}")
            owner, attr = _resolve(module, path)
            original = getattr(owner, "__dict__", {}).get(attr)
            if original is None:
                # renamed or removed since the benchmark was written: its
                # metrics read 0 and the trace file lists it
                self.missing.append(f"{module_name}.{path}")
                continue
            name = f"{module_name}.{path}"
            wrapper = self._wrap(original, name, module_name, hot)
            setattr(owner, attr, wrapper)
            if path == "QPoly.__mul__":
                owner.__rmul__ = wrapper
            if owner is module:
                _rebind(original, wrapper)
        from hecke_forge import finglq, verify
        for i, fn in enumerate(verify.ALL_CHECKS):
            wrapper = self._wrap(fn, f"verify.{fn.__name__}", "verify",
                                 False)
            verify.ALL_CHECKS[i] = wrapper
            _rebind(fn, wrapper)
        self._caches = [finglq.gl_group, finglq.subgroup]

    def start(self):
        self._started = perf_counter()

    def _wrap(self, fn, name, layer, hot):
        calls, total, depth = self.calls, self.total, self.depth
        layer_self, layer_total = self.layer_self, self.layer_total
        layer_depth, stack, spans = self.layer_depth, self.stack, self._spans
        calls[name] = 0
        total[name] = 0.0
        depth[name] = 0
        count = _COUNT.get(name)
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if hot:
                sid = parent[1]
            else:
                sid = self._next_span
                self._next_span += 1
            frame = [0.0, sid]
            outer = depth[name] == 0
            layer_outer = layer_depth[layer] == 0
            depth[name] += 1
            layer_depth[layer] += 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                depth[name] -= 1
                layer_depth[layer] -= 1
                d = t1 - t0
                calls[name] += 1
                if outer:
                    total[name] += d
                if layer_outer:
                    layer_total[layer] += d
                layer_self[layer] += d - frame[0]
                parent[0] += d
                if not hot:
                    spans.append((sid, name, parent[1], t0, t1))
            if count:
                count(args, result, counters)
            return result

        return wrapper

    # -- results -----------------------------------------------------------
    def metrics(self, wall_s: float) -> dict:
        self.layer_self["bench"] = wall_s - self.stack[0][0]
        out = {}
        for name, (kind, what) in _METRICS.items():
            if kind == "calls":
                out[name] = sum(self.calls.get(w, 0) for w in what)
            elif kind == "time":
                out[name] = sum(self.total.get(w, 0.0) for w in what)
            elif kind == "counter":
                out[name] = self.counters[what]
            elif kind == "self":
                out[name] = self.layer_self[what]
            elif kind == "layer":
                out[name] = self.layer_total[what]
            elif kind == "cache":
                infos = [c.cache_info() for c in self._caches]
                hits = sum(i.hits for i in infos)
                looked = hits + sum(i.misses for i in infos)
                out[name] = hits / looked if looked else 0.0
        out["trace.spans"] = len(self._spans)
        return out

    def spans(self) -> list:
        base = self._started or 0.0
        return [{"id": sid, "name": name, "parent": parent,
                 "start_s": t0 - base, "end_s": t1 - base}
                for sid, name, parent, t0, t1 in self._spans]


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    return owner, parts[-1]


def _rebind(original, wrapper):
    """Point every hecke_forge module global bound to `original` (names
    taken with `from .x import y`) at the wrapper."""
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("hecke_forge") or mod is None:
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


def _count_elements(args, result, counters):
    counters["elements_enumerated"] += len(result)


def _count_classes(args, result, counters):
    # groups are cached for the life of the process, so ids are stable
    group = id(args[0])
    if group not in counters["classed_groups"]:
        counters["classed_groups"].add(group)
        counters["classes_found"] += len(result)


_COUNT = {
    "finglq.enumerate_group": _count_elements,
    "finglq.MatrixGroup.conjugacy_classes": _count_classes,
}
