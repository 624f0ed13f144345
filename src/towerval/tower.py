"""Blow-up towers over A^N at coordinate-subspace centers.

A tower is a sequence of blow-ups, each centered at a locus of the form
{v_i = c_i : i in S} inside one chart of the model built so far, with
|S| >= 2 so that every step produces an exceptional divisor.  Each step
appends |S| affine charts, one per pivot index l in S, glued by

    v_l -> c_l + u_l,   v_j -> c_j + u_l * u_j (j in S, j != l),
    v_j -> u_j (j not in S),

and the new divisor is {u_l = 0} in each of them.

Per chart we know the composite map down to the base (the "frame": every
base coordinate as a polynomial in chart coordinates) and a local defining
equation for the proper transform of every divisor that meets the chart
(one that becomes a nonzero constant is dropped: it never vanishes on a
center or at a point, so a tower costs time linear in depth).  A blow-up
records only each new chart's pivot and center plan, which fix its
pullback.  Everything else a chart knows sits in one memo per chart, filled
by one rule: walk up to the nearest chart that holds the value, pull it down
one chart at a time by one exponent-rewriting kernel, and keep it in every
chart on the way.  The frame and the equations are filled so on first read,
and so are the total transforms that valuations read on a tie and the weak
transforms of ideals.  Towers are immutable and share their charts with
every tower extended from them, so each value is pulled through a chart at
most once, and the memo lives exactly as long as its chart.  A step's
divisor E has v_E(f) = ord_Z(f), the order of f's total transform along
the center Z in the center's chart (``polyring._order_on``).  So the
orders of that chart's frame coordinates give v_E term by term: a unique
lowest term order is the answer, and only a tie takes the order of the
total transform.  ``Chart.pull`` is the one pullback: nothing here calls
``Polynomial.substitute``, the reference ring map.  A center lies in an
earlier divisor exactly when the divisor's local equation has order >= 1
along it.  Containment drives the discrepancy recursion

    k_new = (|S| - 1) + sum of k over divisors containing the center.

A blow-up splits its center once into a plan (``polyring._center_plan``)
that its charts share.  The general-point search on a divisor restricts the
other divisors' equations and the loci to avoid to the divisor once, then
walks the free coordinates depth first in the fixed enumeration, setting
one coordinate at a time in the restricted maps.  It gives up a prefix
only when some equation, or every generator of some locus, has become the
zero map, so no extension of it could be accepted: the point it returns is
the first accepted point of the enumeration, as a walk over every point
would find it, and it evaluates nothing point by point.

An independent cross-check of k via the order of the Jacobian determinant
of the frame is provided for tests.
"""

from __future__ import annotations

from collections import namedtuple
from operator import mul

from .errors import (
    BadDimension,
    Codim1Center,
    GeneralPointNotFound,
    RingMismatch,
    UnknownChart,
    UnknownDivisor,
    ZeroIdeal,
)
from .polyring import (
    Domain,
    Ideal,
    Polynomial,
    _center_plan,
    _chart_pullback,
    _number_text,
    _order_on,
    _specialize,
    clip,
)


class CenterSpec(namedtuple("CenterSpec", "chart constraints")):
    """A blow-up center: chart id plus (variable index, constant) pairs."""

    __slots__ = ()

    @classmethod
    def make(cls, chart: int, assignment: dict, domain: Domain) -> "CenterSpec":
        items = tuple(sorted((i, domain.coerce(c)) for i, c in assignment.items()))
        return cls(chart, items)

    def as_dict(self) -> dict:
        return dict(self.constraints)


class Chart:
    """One affine chart, read-only.  ``pivot`` and ``plan`` (the center's
    ``polyring._center_plan``, shared by the charts of one step) fix the
    pullback from the parent chart (``pull``); ``frame``: base coordinates;
    ``divisor_eqs``: divisor id -> local equation, never a constant, of
    each divisor meeting the chart;
    ``pivot_orders``: v(x_i) for the divisor of the chart's step.  These,
    and the total transforms and weak-transform generators read through
    the chart, are derived on first read and kept in the chart's one memo,
    filled by ``_derive``.
    """

    # Not a namedtuple: it keeps a mutable memo, and a field-wise == would walk ``_up`` and the memo.
    __slots__ = ("cid", "pivot", "step", "plan", "_ring", "_up", "_memo")

    def __init__(self, cid, up, pivot, step, plan, ring, memo=None):
        _set_cid(self, cid)
        _set_up(self, up)
        _set_pivot(self, pivot)
        _set_step(self, step)
        _set_plan(self, plan)
        _set_ring(self, ring)
        _set_memo(self, {} if memo is None else memo)

    def __setattr__(self, *a):
        raise AttributeError("Chart is immutable")

    @property
    def parent(self) -> int | None:
        return None if self._up is None else self._up.cid

    @property
    def frame(self) -> tuple:
        return self._derive("frame", _pull_frame)

    @property
    def divisor_eqs(self) -> dict:
        return self._derive("eqs", _pull_divisor_eqs)

    @property
    def pivot_orders(self) -> tuple:
        """The order of each of the parent's frame coordinates along the
        center: v(x_i) for the divisor of the step that made this chart."""
        orders = self._memo.get("orders")
        if orders is None:
            orders = self._memo["orders"] = tuple(
                _order_on(g.terms, self.plan) for g in self._up.frame)
        return orders

    def _derive(self, key, pull, base=None):
        """The memo's value at ``key``: walk up to the nearest chart that
        holds it (or to the root, whose value is ``base`` if it holds none),
        then pull it down one chart at a time with ``pull(chart, value)``,
        keeping it in every chart on the way."""
        path, chart = [], self
        value = chart._memo.get(key)
        while value is None and chart._up is not None:
            path.append(chart)
            chart = chart._up
            value = chart._memo.get(key)
        if value is None:
            value = base
        for chart in reversed(path):
            value = chart._memo[key] = pull(chart, value)
        return value

    def pull(self, f: Polynomial) -> Polynomial:
        """f, in the parent chart's coordinates, pulled back to this chart."""
        return Polynomial(f.domain, f.nvars, _chart_pullback(f.terms, self.pivot, self.plan))


# The slot descriptors' setters, bound once: ``__setattr__`` raises, and
# these are the only writers of a Chart's fields.
_set_cid = Chart.cid.__set__
_set_up = Chart._up.__set__
_set_pivot = Chart.pivot.__set__
_set_step = Chart.step.__set__
_set_plan = Chart.plan.__set__
_set_ring = Chart._ring.__set__
_set_memo = Chart._memo.__set__


def _pull_frame(chart: Chart, frame: tuple) -> tuple:
    return tuple(map(chart.pull, frame))


def _pull_divisor_eqs(chart: Chart, eqs: dict) -> dict:
    """Pull the parent's equations back, strip the pivot power, keep the
    non-constant ones (divisors still meeting the chart), add the new one."""
    pivot = chart.pivot
    out = {}
    for did, eq in eqs.items():
        g = chart.pull(eq)
        g = g.divide_var_power(pivot, g.var_min_exponent(pivot))
        if not g.is_constant():
            out[did] = g
    out[chart.step] = Polynomial.variable(*chart._ring, pivot)
    return out


def _pull_weak(chart: Chart, gens: tuple) -> tuple:
    """Pull the parent's weak transform back and strip the new divisor:
    divide every generator by the least power of the pivot they carry."""
    pivot = chart.pivot
    gens = [chart.pull(g) for g in gens]
    drop = min(g.var_min_exponent(pivot) for g in gens)
    if drop:
        gens = [g.divide_var_power(pivot, drop) for g in gens]
    return tuple(gens)


class Step(namedtuple("Step", "did k home_chart contained_in center chart_ids")):
    """One blow-up and the divisor it creates: its id, discrepancy k, home
    chart and the earlier divisors containing the center, then the center
    and the ids of the charts the step added."""

    __slots__ = ()


def _shown(cid) -> str:
    """An id as a message echoes it: an int of any length in digits."""
    return clip(_number_text(cid)) if type(cid) is int else repr(cid)


class Tower(namedtuple("Tower", "domain n charts steps")):
    """Immutable; ``blow_up`` returns an extended copy that shares its charts."""

    __slots__ = ()

    def chart(self, cid: int) -> Chart:
        if isinstance(cid, bool) or not isinstance(cid, int) or not 0 <= cid < len(self.charts):
            raise UnknownChart(f"no chart {_shown(cid)} (tower has charts 0..{len(self.charts) - 1})")
        return self.charts[cid]

    def divisor(self, did: int) -> Step:
        if isinstance(did, bool) or not isinstance(did, int) or not 1 <= did <= len(self.steps):
            raise UnknownDivisor(f"no divisor {_shown(did)} (tower has divisors 1..{len(self.steps)})")
        return self.steps[did - 1]

    @property
    def divisors(self) -> tuple:
        return self.steps

    def last_divisor_id(self) -> int:
        if not self.steps:
            raise UnknownDivisor("empty tower has no divisors")
        return len(self.steps)

    def first_step_at_origin(self) -> bool:
        if not self.steps:
            return False
        c = self.steps[0].center
        return (
            c.chart == 0
            and len(c.constraints) == self.n
            and all(v == 0 for _, v in c.constraints)
        )

    def _check_base_ideal(self, a: Ideal):
        if a.domain != self.domain or a.nvars != self.n:
            raise RingMismatch("ideal does not live in the tower's base ring")
        a.require_nonzero()


def new_tower(n: int, domain: Domain) -> Tower:
    if not isinstance(n, int) or n < 2:
        raise BadDimension(f"towers need ambient dimension >= 2, got {n!r}")
    frame = tuple(Polynomial.variable(domain, n, i) for i in range(n))
    root = Chart(0, None, None, 0, None, (domain, n), memo={"frame": frame, "eqs": {}})
    return Tower(domain, n, (root,), ())


def blow_up(t: Tower, center: CenterSpec):
    """Blow up a coordinate-subspace center; returns (tower, divisor id)."""
    chart = t.chart(center.chart)
    dom, n = t.domain, t.n
    cmap = {}
    for i, c in center.constraints:
        if isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < n:
            raise ValueError(f"constrained variable index {i!r} out of range")
        if i in cmap:
            raise ValueError(f"variable {i} constrained twice")
        cmap[i] = dom.coerce(c)
    S = sorted(cmap)
    if len(S) < 2:
        raise Codim1Center(
            f"center has codimension {len(S)}; only centers of codimension >= 2 "
            "produce an exceptional divisor"
        )

    constraints = tuple(sorted(cmap.items()))
    plan = _center_plan(dom, constraints)
    step_no = len(t.steps) + 1
    base_cid = len(t.charts)
    new_charts = tuple(
        Chart(base_cid + i, chart, pivot, step_no, plan, (dom, n))
        for i, pivot in enumerate(S)
    )
    contained = tuple(did for did, eq in sorted(chart.divisor_eqs.items())
                      if _order_on(eq.terms, plan) >= 1)
    k = (len(S) - 1) + sum(t.divisor(d).k for d in contained)

    step = Step(step_no, k, base_cid, contained, CenterSpec(center.chart, constraints),
                tuple(c.cid for c in new_charts))
    return Tower(dom, n, t.charts + new_charts, t.steps + (step,)), step_no


# -- valuations ---------------------------------------------------------------


def valuation_of_poly(t: Tower, did: int, f: Polynomial) -> int:
    """v_E(f) = ord_Z(f): the order of f's total transform along the
    center Z of E's step, read in the center's chart.

    v_E is a valuation, so a term c*x^m has order <m, o>, where o_i =
    v_E(x_i) (``Chart.pivot_orders``, kept per chart).  A unique lowest
    term order is the answer; on a tie the lowest terms may cancel, so the
    order of f's total transform is taken (the zero polynomial raises).
    That transform comes from the center's chart's memo, keyed by f: a
    repeated tie pulls nothing, and a first one pulls f only through the
    charts below the nearest one that holds it, never through E's own.
    """
    rec = t.divisor(did)
    if f.domain != t.domain or f.nvars != t.n:
        raise RingMismatch("polynomial does not live in the tower's base ring")
    chart = t.chart(rec.home_chart)
    o = chart.pivot_orders
    orders = [sum(map(mul, m, o)) for m in f.terms]
    low = min(orders, default=None)
    if low is not None and orders.count(low) == 1:
        return low
    return _order_on(chart._up._derive(f, Chart.pull, f).terms, chart.plan)


def valuation(t: Tower, did: int, a: Ideal) -> int:
    """v_E(a) = min of v_E over the generators."""
    t._check_base_ideal(a)
    return min(valuation_of_poly(t, did, g) for g in a.gens)


def weak_transform(t: Tower, a: Ideal, chart_id: int) -> Ideal:
    """Transform a base ideal into a chart, stripping each step's divisor;
    returns the ideal in the chart's coordinates.

    Follows the chart's parent chain from the root.  At every step the
    generators are pulled back and then all divided by the step's pivot to
    the minimal power it carries, so the zero locus of the result contains
    no whole exceptional divisor of the chain.  Each chart keeps the
    generators in its memo, keyed by the base generator tuple, so a later
    call pulls only through the charts below the nearest one that holds
    them.
    """
    t._check_base_ideal(a)
    return Ideal(t.domain, t.n, t.chart(chart_id)._derive(a.gens, _pull_weak, a.gens))


# -- general points ------------------------------------------------------------


# The point search tries each free coordinate at 2 * _RADIUS + 1 values.
_RADIUS = 50


def _value_stream(domain: Domain):
    if domain.p:
        return range(min(domain.p, 2 * _RADIUS + 1))
    out = [0]
    for v in range(1, _RADIUS + 1):
        out += (v, -v)
    return out


def point_on_divisor_avoiding(t: Tower, did: int, avoid_loci=()) -> CenterSpec:
    """First point on the divisor off every other divisor and every locus.

    The point lives in the divisor's home chart with the pivot coordinate
    pinned to 0; the free coordinates run through a fixed enumeration of
    101 values (0, 1, 2, ... over F_p, at most p of them; 0, 1, -1, 2, -2,
    ..., 50, -50 over Q), first coordinate slowest.  A point is accepted
    when the local equation of every other divisor that meets the home
    chart (``Chart.divisor_eqs``) is nonzero there, and every ideal in
    ``avoid_loci`` (ideals of the tower's ring, read in the home chart's
    coordinates; another ring raises RingMismatch, a zero ideal ZeroIdeal)
    has some generator nonzero there.  Exhaustion raises
    GeneralPointNotFound, which over a small prime field is a real
    possibility the caller must handle.

    The enumeration is walked depth first and pruned.  Every equation and
    generator is restricted to the divisor once (its terms carrying the
    pivot dropped), and fixing a coordinate sets it in the maps left
    (``polyring._specialize``).  A prefix is given up as soon as some
    equation, or every generator of some locus, becomes the zero map: then
    no extension of it is accepted.  An equation or locus with a map that
    becomes a nonzero constant holds on every extension and is dropped, and
    once none is left the rest of the point is the first value of each
    coordinate.  Only prefixes with no accepted extension are skipped, so
    the point is the first accepted one of the enumeration.
    """
    chart = t.chart(t.divisor(did).home_chart)
    dom, n, pivot = t.domain, t.n, chart.pivot

    eqs = [eq for d, eq in chart.divisor_eqs.items() if d != did]
    if any(locus.domain != dom or locus.nvars != n for locus in avoid_loci):
        raise RingMismatch("avoid-locus does not live in the tower's ring")
    loci = [locus.gens for locus in avoid_loci]
    if not all(loci):
        raise ZeroIdeal("cannot avoid the zero locus of the zero ideal")

    free = [i for i in range(n) if i != pivot]
    stream = _value_stream(dom)
    # A predicate is a list of maps of which one must be nonzero: one
    # equation, or a locus's generators.
    root = _fix(dom, [[eq.terms] for eq in eqs] + [[g.terms for g in gens] for gens in loci],
                pivot, 0)
    stack = [] if root is None else [(root, iter(stream))]  # one level per fixed coordinate
    values = []  # the values fixed for free[0], free[1], ... above the deepest level
    while stack:
        predicates, level = stack[-1]
        if not predicates:  # all hold: the coordinates left take their first value, 0
            point = dict.fromkeys(range(n), 0)
            point.update(zip(free, values))
            return CenterSpec.make(chart.cid, point, dom)
        v = next(level, None)
        if v is None:
            stack.pop()
            if values:
                values.pop()
            continue
        child = _fix(dom, predicates, free[len(values)], v)
        if child is not None:
            values.append(v)
            stack.append((child, iter(stream)))
    raise GeneralPointNotFound(
        f"no point on divisor {did} in chart {chart.cid} passes the "
        f"{len(eqs) + len(loci)} avoidance predicates"
    )


def _fix(dom: Domain, predicates: list, j: int, v) -> list | None:
    """The search's predicates with x_j set to v in every map, or None once
    some predicate has only zero maps left: it fails at every extension.
    One with a nonzero constant holds at every extension and is dropped."""
    out = []
    for maps in predicates:
        kept = []
        for f in maps:
            g = _specialize(dom, f, j, v)
            if g:
                if len(g) == 1 and not any(next(iter(g))):  # a nonzero constant
                    break
                kept.append(g)
        else:
            if not kept:
                return None
            out.append(kept)
    return out


# -- suspension ------------------------------------------------------------------


def suspend(t: Tower, a: Ideal | None = None):
    """Replay the tower inside the hyperplane x_{N+1} = 0 of A^{N+1}.

    Every center gains the constraint x_{N+1} = 0 and the optional ideal is
    extended by reading its generators in N+1 variables (it must be a
    nonzero ideal of the tower's base ring).  Valuations along
    corresponding divisors are preserved; discrepancies shift.
    """
    if a is not None:
        t._check_base_ideal(a)
    dom, n = t.domain, t.n
    out = new_tower(n + 1, dom)
    chart_map = {0: 0}
    for step in t.steps:
        assignment = {i: c for i, c in step.center.constraints}
        assignment[n] = 0
        out, _ = blow_up(out, CenterSpec.make(chart_map[step.center.chart], assignment, dom))
        new_step = out.steps[-1]
        by_pivot = {out.chart(c).pivot: c for c in new_step.chart_ids}
        for cid in step.chart_ids:
            chart_map[cid] = by_pivot[t.chart(cid).pivot]
    if a is None:
        return out, None
    padded = [Polynomial(dom, n + 1, {m + (0,): c for m, c in g.terms.items()}) for g in a.gens]
    return out, Ideal(dom, n + 1, padded)


# -- cross-checks and views -------------------------------------------------------


def _det(matrix, dom, n):
    size = len(matrix)
    if size == 1:
        return matrix[0][0]
    total = Polynomial.zero(dom, n)
    for j in range(size):
        if matrix[0][j].is_zero():  # its cofactor term is zero
            continue
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        piece = matrix[0][j] * _det(minor, dom, n)
        total = total + (piece if j % 2 == 0 else -piece)
    return total


def discrepancy_via_jacobian(t: Tower, did: int) -> int:
    """Order of the frame's Jacobian determinant along the divisor.

    Independent of the containment recursion; the two must agree on every
    tower, which the test suite asserts.
    """
    rec = t.divisor(did)
    chart = t.chart(rec.home_chart)
    n = t.n
    frame = chart.frame
    matrix = [[frame[i].derivative(j) for j in range(n)] for i in range(n)]
    jac = _det(matrix, t.domain, n)
    return jac.var_min_exponent(chart.pivot)
