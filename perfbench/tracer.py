"""Per-layer tracing of feitlab from outside the package.

``install`` replaces the public functions of each layer (the package's
modules) with timing wrappers, at every module that imported them, and
patches the ``Cyclotomic`` operators on the class.  Each wrapped call is a
span: a request id, a span id, the id of the span that caused it, a name,
and its start and end.  A span's self time is its duration minus the
duration of the wrapped calls inside it, and it is summed per metric key.

Spans of the hot leaf layers (``cyclo`` operators and ``numth``, called up
to a million times per request) are counted and timed but not kept one by
one.  Permutation primitives of ``groups`` (``compose``, ``inverse``, ...)
are not wrapped: their cost is charged to the span that calls them, which is
where a faster algorithm would save it.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import time
import types
from collections import Counter, defaultdict
from typing import Callable, Dict, Optional

GROUP_BUILDERS = (
    "from_spec", "cyclic", "symmetric", "alternating", "dihedral", "quaternion",
    "elementary_abelian", "special_linear_2", "extraspecial_27", "direct_product",
)
# metric key of module functions, by layer, where it is not the layer default
FUNCTION_KEYS: Dict[str, Dict[str, str]] = {
    "groups": {name: "groups.build" for name in GROUP_BUILDERS},
    "chartab": {
        "compute_table": "chartab.compute_table",
        "inner_product": "chartab.inner_product",
        "integral_inner_product": "chartab.inner_product",
        "save_table": "chartab.serialize",
        "load_table": "chartab.serialize",
        # private, but run by compute_table, load_table and the runner
        "_validate": "chartab.validate",
    },
    "adams": {
        "invariant": "adams.invariant",
        "feit_indicator": "adams.feit",
        "eigenvalue_multiplicities": "adams.eigen",
    },
    "brauer": {
        "monomial_context": "brauer.context",
        "induction_by_chains": "brauer.induction",
        "induction_by_chains_values": "brauer.induction",
        "induction_by_orbit_chains": "brauer.induction",
        "induction_by_orbit_chains_values": "brauer.induction",
        "restrict_combination": "brauer.restrict",
        "induced_character": "brauer.induced",
        "check_max_sets": "brauer.checks",
        "check_equivalences": "brauer.checks",
        "adams_identity_check": "brauer.checks",
    },
}
# key of the other public functions of a layer (None: leave them alone)
DEFAULT_KEYS = {
    "cli": "cli", "runner": "runner", "numth": "numth", "cyclo": "cyclo",
    "groups": None, "chartab": "chartab.other", "adams": "adams.other",
    "brauer": "brauer.other",
}
HOT_LAYERS = ("numth", "cyclo")

CYCLO_METHODS = {
    "__add__": "cyclo.add", "__radd__": "cyclo.add",
    "__mul__": "cyclo.mul", "__rmul__": "cyclo.mul",
    "galois": "cyclo.galois",
    "__sub__": None, "__rsub__": None, "__neg__": None, "__truediv__": None,
    "__pow__": None, "__eq__": None, "rational": None, "from_terms": None,
    "at_level": None, "conjugate": None, "rational_trace": None,
    "is_rational": None, "as_rational": None, "as_integer": None,
    "as_root_of_unity": None, "to_json": None, "from_json": None,
}
ROOT_METHODS = ("power", "inverse", "__mul__", "to_cyclotomic")


class Tracer:
    """Spans and per-key totals of one traced pass."""

    def __init__(self):
        self.request: Optional[int] = None
        self.spans = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.kept = {}  # id -> object, so that ids of seen results stay unique
        self.tables = set()
        self.eigen_keys = set()
        self.context_hits = 0
        self.pairs = 0
        self.subgroups = 0
        self._stack = []
        self._ids = itertools.count()

    def wrap(self, fn: Callable, key: str, counter: Optional[str] = None,
             keep_spans: bool = True, after: Optional[Callable] = None) -> Callable:
        """A traced version of fn.  ``after(args, kwargs, result)`` runs outside
        every span, so bookkeeping is charged to no layer."""
        stack, spans, self_s, calls = self._stack, self.spans, self.self_s, self.calls
        ids, clock, tracer = self._ids, time.perf_counter, self
        counter = counter or key

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_id = parent[1] if parent is not None else None
            frame = [0.0, next(ids) if keep_spans else parent_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self_s[key] += end - start - frame[0]
                calls[counter] += 1
                if keep_spans:
                    spans.append((tracer.request, frame[1], parent_id, key, start, end))
                if parent is not None:
                    parent[0] += end - start
            if after is not None:
                mark = clock()
                after(args, kwargs, result)
                if parent is not None:
                    parent[0] += clock() - mark
            return result

        return traced

    def _seen(self, obj) -> bool:
        if id(obj) in self.kept:
            return True
        self.kept[id(obj)] = obj
        return False

    # -- hooks for the counts and ratios ---------------------------------

    def on_table(self, args, kwargs, table):
        self.tables.add((table.name, table.order, table.exponent))

    def on_context(self, args, kwargs, ctx):
        if self._seen(ctx):
            self.context_hits += 1
        else:
            self.pairs += len(ctx.pairs)

    def on_subgroups(self, args, kwargs, subs):
        if not self._seen(subs):
            self.subgroups += len(subs)

    def on_eigen(self, bind):
        def hook(args, kwargs, result):
            bound = bind(*args, **kwargs).arguments
            table, chi = bound["table"], bound["chi"]
            values = table.irreducibles[chi] if isinstance(chi, int) else chi.values
            self.eigen_keys.add((
                table.name, table.order,
                tuple((v.level, v.coeffs) for v in values),
                bound["c"],
            ))
        return hook

    # -- results ------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        s, n = self.self_s, self.calls

        def ratio(num, den):
            return num / den if den else 0.0

        out = {
            "cli.self_s": s["cli"],
            "runner.self_s": s["runner"],
            "numth.self_s": s["numth"],
            "cyclo.self_s": sum(s[k] for k in ("cyclo", "cyclo.add", "cyclo.mul", "cyclo.galois")),
            "cyclo.mul_calls": n["cyclo.mul"],
            "cyclo.add_calls": n["cyclo.add"],
            "cyclo.galois_calls": n["cyclo.galois"],
            "groups.subgroups_count": self.subgroups,
            "chartab.compute_table_calls": n["chartab.compute_table"],
            "chartab.table_distinct_ratio": ratio(len(self.tables), n["chartab.compute_table"]),
            "chartab.class_of_power_calls": n["chartab.class_of_power"],
            "adams.invariant_calls": n["adams.invariant"],
            "adams.eigen_calls": n["adams.eigen"],
            "adams.eigen_distinct_ratio": ratio(len(self.eigen_keys), n["adams.eigen"]),
            "brauer.context_hit_ratio": ratio(self.context_hits, n["brauer.context"]),
            "brauer.pairs_count": self.pairs,
        }
        for key in (
            "groups.build", "groups.classes", "groups.subgroups", "groups.linear_chars",
            "chartab.compute_table", "chartab.class_of_power", "chartab.inner_product",
            "chartab.serialize", "chartab.validate", "chartab.other",
            "adams.invariant", "adams.feit", "adams.eigen", "adams.other",
            "brauer.context", "brauer.induction",
            "brauer.restrict", "brauer.induced", "brauer.checks", "brauer.other",
        ):
            out[key + "_s"] = s[key]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _wrap_method(tracer: Tracer, cls, name: str, key: str, counter=None,
                 keep_spans=True, after=None) -> None:
    raw = vars(cls)[name]
    if isinstance(raw, staticmethod):
        setattr(cls, name, staticmethod(
            tracer.wrap(raw.__func__, key, counter, keep_spans, after)))
    else:
        setattr(cls, name, tracer.wrap(raw, key, counter, keep_spans, after))


def install(tracer: Tracer) -> None:
    """Wrap feitlab's layers for this process; call before the first request."""
    import feitlab
    from feitlab import adams, brauer, chartab, cli, cyclo, groups, numth, runner

    layers = {
        "cli": cli, "runner": runner, "numth": numth, "cyclo": cyclo,
        "groups": groups, "chartab": chartab, "adams": adams, "brauer": brauer,
    }
    hooks = {
        "compute_table": tracer.on_table,
        "monomial_context": tracer.on_context,
        "eigenvalue_multiplicities": tracer.on_eigen(
            inspect.signature(adams.eigenvalue_multiplicities).bind),
    }
    replaced = {}  # id of an original function -> its wrapper
    for layer, module in layers.items():
        for name, obj in list(vars(module).items()):
            if isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            key = FUNCTION_KEYS.get(layer, {}).get(name)
            if key is None and not name.startswith("_"):
                key = DEFAULT_KEYS[layer]
            if key is None:
                continue
            replaced[id(obj)] = tracer.wrap(
                obj, key, keep_spans=layer not in HOT_LAYERS, after=hooks.get(name))
    # rebind at every import site, e.g. runner's compute_table, adams' zeta
    for module in [feitlab, *layers.values()]:
        for name, obj in list(vars(module).items()):
            if isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper)) \
                    and id(obj) in replaced:
                setattr(module, name, replaced[id(obj)])

    for name in ("conjugacy_classes", "class_index", "exponent", "class_power_map"):
        _wrap_method(tracer, groups.PermGroup, name, "groups.classes")
    _wrap_method(tracer, groups.PermGroup, "all_subgroups", "groups.subgroups",
                 after=tracer.on_subgroups)
    _wrap_method(tracer, groups.Subgroup, "linear_characters", "groups.linear_chars")
    _wrap_method(tracer, chartab.CharacterTable, "class_of_power",
                 "chartab.class_of_power")
    for name, counter in CYCLO_METHODS.items():
        _wrap_method(tracer, cyclo.Cyclotomic, name, counter or "cyclo",
                     keep_spans=False)
    for name in ROOT_METHODS:
        _wrap_method(tracer, cyclo.RootOfUnity, name, "cyclo", keep_spans=False)
