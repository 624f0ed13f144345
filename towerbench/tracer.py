"""Spans around towerval's public functions, installed from outside the package.

``Tracer.install`` replaces each traced function at every ``towerval``
module attribute that binds it (``bridge``, ``invariants`` and ``cli``
import ``contact_codim_at_origin`` by name, so patching ``jets`` alone
would miss their calls) and each traced ``Polynomial`` method on the
class itself.  ``restore`` puts the originals back.

Every wrapped call records one span: name, start, end, parent span and
pass id, plus a few counters read at the call boundary.  Spans stay in
memory; ``layer_metrics`` folds them into the per-layer figures.  A call
nested directly inside a span of the same name (``__sub__`` calls
``__add__``) is one operation and records no second span.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import towerval

# (span name, module, attribute); a dotted attribute names a class method.
TRACED = (
    ("polyring.mul", "polyring", "Polynomial.__mul__"),
    ("polyring.addsub", "polyring", "Polynomial.__add__"),
    ("polyring.addsub", "polyring", "Polynomial.__sub__"),
    ("polyring.substitute", "polyring", "Polynomial.substitute"),
    ("polyring.evaluate", "polyring", "Polynomial.evaluate"),
    ("polyring.parse", "polyring", "parse_polynomial"),
    ("tower.blow_up", "tower", "blow_up"),
    ("tower.valuation", "tower", "valuation"),
    ("tower.weak_transform", "tower", "weak_transform"),
    ("tower.point_search", "tower", "point_on_divisor_avoiding"),
    ("jets.groebner", "jets", "groebner_basis"),
    ("jets.normal_form", "jets", "normal_form"),
    ("jets.jet_equations", "jets", "jet_equations"),
    ("jets.ideal_dimension", "jets", "ideal_dimension"),
    ("jets.contact_codim", "jets", "contact_codim_at_origin"),
    ("jets.monomial_fast", "jets", "monomial_contact_codim"),
    ("jets.lct_estimate", "jets", "lct_estimate_at_origin"),
    ("jets.mld_estimate", "jets", "mld_estimate"),
    ("invariants.certify_not_lc", "invariants", "certify_not_log_canonical"),
    ("invariants.toric_search", "invariants", "toric_weight_search"),
    ("invariants.realize_toric", "invariants", "realize_toric_weight"),
    ("invariants.log_discrepancy", "invariants", "log_discrepancy"),
    ("bridge.crosschar", "bridge", "cross_characteristic_suite"),
    ("bridge.construct", "bridge", "bridge_construct"),
    ("bridge.lift_tower", "bridge", "lift_tower"),
    ("bridge.shifted_check", "bridge", "shifted_log_discrepancy_check"),
    ("cli.parse_script", "cli", "parse_script"),
    ("cli.run", "cli", "run"),
)
MODULES = ("polyring", "tower", "jets", "invariants", "bridge", "cli")

# Per-layer metric names, in the order they are reported.
_TIMED = sorted({name for name, _, _ in TRACED} - {"jets.ideal_dimension", "cli.parse_script", "cli.run"})
LAYER_METRICS = tuple(
    [f"{name}.{part}" for name in _TIMED for part in ("calls", "self_s")]
    + [
        "jets.ideal_dimension.self_s",
        "cli.parse_script.self_s",
        "cli.run.self_s",
        "cli.output_bytes",
        "tower.charts_built",
        "tower.point_search.evals_per_call",
        "jets.groebner.steps",
        "jets.groebner.basis_max",
        "jets.groebner.nvars_max",
        "jets.normal_form.zero_frac",
        "jets.contact_codim.repeat_frac",
        "bridge.crosschar.budget_cells",
    ]
)


def package_modules() -> list:
    """Every imported ``towerval`` module, the package itself included."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "towerval" or name.startswith("towerval."))]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1, pass id]
        self.attrs = {}  # span index -> counters read at the call boundary
        self.pass_id = 0
        self._stack = []
        self._seen_cells = set()
        self._patches = []  # (owner, attribute, original)

    # -- installing ------------------------------------------------------------

    def install(self):
        import towerval.cli  # noqa: F401  (bind cli before scanning modules)

        hooks = {
            "jets.groebner": self._groebner,
            "jets.normal_form": self._normal_form,
            "jets.contact_codim": self._contact_codim,
            "tower.blow_up": self._blow_up,
            "bridge.crosschar": self._crosschar,
            "cli.run": self._cli_run,
        }
        modules = package_modules()
        for name, module, attr in TRACED:
            owner = sys.modules[f"towerval.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(name, original, hooks.get(name)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hooks.get(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, original, wrapper)
        return self

    def _patch(self, owner, key, original, wrapper):
        self._patches.append((owner, key, original))
        setattr(owner, key, wrapper)

    def restore(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- recording -------------------------------------------------------------

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            spans = tracer.spans
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, tracer.pass_id]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter_ns()
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(fn, idx, args, kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def _groebner(self, fn, idx, args, kwargs):
        # An int budget becomes the StepBudget that _as_budget would build,
        # so the steps used can be read back even when BudgetExceeded is raised.
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        gens = list(bound.arguments["gens"])
        budget = bound.arguments["budget"]
        if not isinstance(budget, towerval.jets.StepBudget):
            budget = towerval.jets.StepBudget(int(budget))
        bound.arguments["gens"] = gens
        bound.arguments["budget"] = budget
        before = budget.used
        attrs = self.attrs[idx] = {"nvars": gens[0].nvars if gens else 0, "basis": 0}
        try:
            result = fn(*bound.args, **bound.kwargs)
        finally:
            attrs["steps"] = budget.used - before
        attrs["basis"] = len(result)
        return result

    def _normal_form(self, fn, idx, args, kwargs):
        result = fn(*args, **kwargs)
        basis = args[1] if len(args) > 1 else kwargs["basis"]
        self.attrs[idx] = {"zero": result.is_zero(), "basis": len(basis)}
        return result

    def _contact_codim(self, fn, idx, args, kwargs):
        factors = args[0] if args else kwargs["factors"]
        key = (tuple((a, m) for a, m in factors), kwargs.get("force_groebner", False))
        self.attrs[idx] = {"repeat": key in self._seen_cells}
        self._seen_cells.add(key)
        return fn(*args, **kwargs)

    def _blow_up(self, fn, idx, args, kwargs):
        result = fn(*args, **kwargs)
        self.attrs[idx] = {"charts": len(result[0].charts) - len(args[0].charts)}
        return result

    def _crosschar(self, fn, idx, args, kwargs):
        result = fn(*args, **kwargs)
        self.attrs[idx] = {"budget_cells": sum(1 for c in result.cells if c.note == "budget")}
        return result

    def _cli_run(self, fn, idx, args, kwargs):
        result = fn(*args, **kwargs)
        self.attrs[idx] = {"out_bytes": len(result.encode("utf-8"))}
        return result

    # -- folding ---------------------------------------------------------------

    def self_times(self) -> list:
        """Per span, its duration minus the durations of its child spans."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_metrics(self) -> dict:
        own = self.self_times()
        calls = dict.fromkeys(_TIMED + ["jets.ideal_dimension", "cli.parse_script", "cli.run"], 0)
        self_ns = dict(calls)
        for (name, *_), ns in zip(self.spans, own):
            calls[name] += 1
            self_ns[name] += ns
        out = {}
        for name in _TIMED:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_ns[name] / 1e9
        for name in ("jets.ideal_dimension", "cli.parse_script", "cli.run"):
            out[f"{name}.self_s"] = self_ns[name] / 1e9

        def attr_values(span_name, key):
            return [self.attrs[i][key] for i, s in enumerate(self.spans)
                    if s[0] == span_name and key in self.attrs.get(i, ())]

        def frac(values):
            return sum(values) / len(values) if values else 0.0

        out["cli.output_bytes"] = sum(attr_values("cli.run", "out_bytes"))
        out["tower.charts_built"] = sum(attr_values("tower.blow_up", "charts"))
        searches = calls["tower.point_search"]
        evals = sum(1 for i, s in enumerate(self.spans)
                    if s[0] == "polyring.evaluate" and self._under(i, "tower.point_search"))
        out["tower.point_search.evals_per_call"] = evals / searches if searches else 0.0
        out["jets.groebner.steps"] = sum(attr_values("jets.groebner", "steps"))
        out["jets.groebner.basis_max"] = max(
            attr_values("jets.groebner", "basis") + attr_values("jets.normal_form", "basis"),
            default=0,
        )
        out["jets.groebner.nvars_max"] = max(attr_values("jets.groebner", "nvars"), default=0)
        out["jets.normal_form.zero_frac"] = frac(attr_values("jets.normal_form", "zero"))
        out["jets.contact_codim.repeat_frac"] = frac(attr_values("jets.contact_codim", "repeat"))
        out["bridge.crosschar.budget_cells"] = sum(attr_values("bridge.crosschar", "budget_cells"))
        return {key: out[key] for key in LAYER_METRICS}

    def _under(self, idx, ancestor) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == ancestor:
                return True
            parent = self.spans[parent][3]
        return False

    def module_self_s(self, pass_id) -> dict:
        """Self time per module over the spans of one pass."""
        out = dict.fromkeys(MODULES, 0.0)
        for (name, _, _, _, pid), ns in zip(self.spans, self.self_times()):
            if pid == pass_id:
                out[name.split(".")[0]] += ns / 1e9
        return out
