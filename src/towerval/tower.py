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
equation for the proper transform of every divisor born so far.  A blow-up
records only each new chart's pullback; the frame and the equations are
derived from the parent chart the first time they are read, and then kept.
Towers are immutable and share their charts with every tower extended from
them, so a chart's frame is computed at most once.  The pivot orders of
the frame's coordinates give a divisorial valuation term by term: a unique
lowest term order is the answer, and only on a tie is the total transform
expanded.  The local equations make containment of a center in an
earlier divisor an exact substitution test, which drives the discrepancy
recursion

    k_new = (|S| - 1) + sum of k over divisors containing the center.

An independent cross-check of k via the order of the Jacobian determinant
of the frame is provided for tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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
from .polyring import Domain, Ideal, Polynomial


@dataclass(frozen=True)
class CenterSpec:
    """A blow-up center: chart id plus (variable index, constant) pairs."""

    chart: int
    constraints: tuple

    @classmethod
    def make(cls, chart: int, assignment: dict, domain: Domain) -> "CenterSpec":
        items = tuple(sorted((i, domain.coerce(c)) for i, c in assignment.items()))
        return cls(chart, items)

    def as_dict(self) -> dict:
        return dict(self.constraints)


class Chart:
    """One affine chart, read-only.  ``pullback``: parent coordinates as
    polynomials here; ``frame``: base coordinates; ``divisor_eqs``: divisor
    id -> local equation of its proper transform (both derived on first read).
    """

    __slots__ = ("cid", "pivot", "step", "pullback", "_up", "_frame", "_eqs")

    def __init__(self, cid, up, pivot, step, pullback, frame=None, divisor_eqs=None):
        for key, value in (("cid", cid), ("_up", up), ("pivot", pivot), ("step", step),
                           ("pullback", pullback), ("_frame", frame), ("_eqs", divisor_eqs)):
            object.__setattr__(self, key, value)

    def __setattr__(self, *a):
        raise AttributeError("Chart is immutable")

    @property
    def parent(self) -> int | None:
        return None if self._up is None else self._up.cid

    @property
    def frame(self) -> tuple:
        return self._frame if self._frame is not None else self._derive("_frame", _pull_frame)

    @property
    def divisor_eqs(self) -> dict:
        return self._eqs if self._eqs is not None else self._derive("_eqs", _pull_divisor_eqs)

    def _derive(self, slot, pull):
        """Walk up to the nearest chart that has the slot, then fill it downward."""
        path, chart = [], self
        while getattr(chart, slot) is None:
            path.append(chart)
            chart = chart._up
        value = getattr(chart, slot)
        for chart in reversed(path):
            value = pull(chart, value)
            object.__setattr__(chart, slot, value)
        return value


def _pull_frame(chart: Chart, frame: tuple) -> tuple:
    return tuple(f.substitute(chart.pullback) for f in frame)


def _pull_divisor_eqs(chart: Chart, eqs: dict) -> dict:
    """Pull the parent's equations back, strip the pivot power, add the new divisor."""
    pivot = chart.pivot
    out = {}
    for did, eq in eqs.items():
        g = eq.substitute(chart.pullback)
        drop = g.var_min_exponent(pivot)
        out[did] = g.divide_var_power(pivot, drop) if drop else g
    u = chart.pullback[pivot]
    out[chart.step] = Polynomial.variable(u.domain, u.nvars, pivot)
    return out


@dataclass(frozen=True)
class DivisorRecord:
    did: int
    k: int
    home_chart: int
    contained_in: tuple


@dataclass(frozen=True)
class Step:
    center: CenterSpec
    chart_ids: tuple
    divisor: DivisorRecord


class Tower:
    """Immutable; ``blow_up`` returns an extended copy."""

    __slots__ = ("domain", "n", "charts", "steps")

    def __init__(self, domain: Domain, n: int, charts: tuple, steps: tuple):
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "charts", charts)
        object.__setattr__(self, "steps", steps)

    def __setattr__(self, *a):
        raise AttributeError("Tower is immutable")

    def chart(self, cid: int) -> Chart:
        if not isinstance(cid, int) or not 0 <= cid < len(self.charts):
            raise UnknownChart(f"no chart {cid!r} (tower has charts 0..{len(self.charts) - 1})")
        return self.charts[cid]

    def divisor(self, did: int) -> DivisorRecord:
        if not isinstance(did, int) or not 1 <= did <= len(self.steps):
            raise UnknownDivisor(f"no divisor {did!r} (tower has divisors 1..{len(self.steps)})")
        return self.steps[did - 1].divisor

    @property
    def divisors(self) -> list:
        return [s.divisor for s in self.steps]

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
    root = Chart(0, None, None, 0, None, frame=frame, divisor_eqs={})
    return Tower(domain, n, (root,), ())


def blow_up(t: Tower, center: CenterSpec):
    """Blow up a coordinate-subspace center; returns (tower, divisor id)."""
    chart = t.chart(center.chart)
    dom, n = t.domain, t.n
    cmap = {}
    for i, c in center.constraints:
        if not isinstance(i, int) or not 0 <= i < n:
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

    u = [Polynomial.variable(dom, n, j) for j in range(n)]
    # The center as a ring map: x_j -> c_j on the constrained coordinates.
    # It decides containment and gives the pullbacks their constant parts.
    center_img = [Polynomial.constant(dom, n, cmap[j]) if j in cmap else u[j] for j in range(n)]
    contained = tuple(
        did
        for did, eq in sorted(chart.divisor_eqs.items())
        if eq.substitute(center_img).is_zero()
    )
    step_no = len(t.steps) + 1
    k = (len(S) - 1) + sum(t.divisor(d).k for d in contained)

    new_charts = []
    base_cid = len(t.charts)
    for pivot in S:
        pullback = []
        for j in range(n):
            if j == pivot:
                pullback.append(center_img[j] + u[pivot])
            elif j in cmap:
                pullback.append(center_img[j] + u[pivot] * u[j])
            else:
                pullback.append(u[j])
        new_charts.append(Chart(base_cid + len(new_charts), chart, pivot, step_no, tuple(pullback)))

    record = DivisorRecord(step_no, k, new_charts[0].cid, contained)
    step = Step(CenterSpec(center.chart, tuple(sorted(cmap.items()))), tuple(c.cid for c in new_charts), record)
    return Tower(dom, n, t.charts + tuple(new_charts), t.steps + (step,)), step_no


# -- valuations ---------------------------------------------------------------


def valuation_of_poly(t: Tower, did: int, f: Polynomial) -> int:
    """Order of the total transform of f along the divisor, in its home chart.

    The pivot order is a valuation on the chart's ring (an integral domain),
    so a term c*x^m pulls back to order <m, o>, where o_i is the pivot order
    of the frame's i-th coordinate.  A unique lowest term order is the
    answer; on a tie the lowest terms may cancel, so the total transform is
    expanded and read instead (as it is for the zero polynomial, which raises).
    """
    rec = t.divisor(did)
    if f.domain != t.domain or f.nvars != t.n:
        raise RingMismatch("polynomial does not live in the tower's base ring")
    chart = t.chart(rec.home_chart)
    frame, pivot = chart.frame, chart.pivot
    o = [g.var_min_exponent(pivot) for g in frame]
    orders = [sum(map(mul, m, o)) for m in f.terms]
    low = min(orders, default=None)
    if low is not None and orders.count(low) == 1:
        return low
    return f.substitute(list(frame)).var_min_exponent(pivot)


def valuation(t: Tower, did: int, a: Ideal) -> int:
    """v_E(a) = min of v_E over the generators."""
    t._check_base_ideal(a)
    return min(valuation_of_poly(t, did, g) for g in a.gens)


def weak_transform(t: Tower, a: Ideal, chart_id: int):
    """Transform a base ideal into a chart, stripping each step's divisor.

    Walks the chart's parent chain from the root.  At every step the
    generators are pulled back and then all divided by the step's pivot to
    the minimal power it carries, so the zero locus of the result contains
    no whole exceptional divisor of the chain.

    Returns (Ideal in chart coordinates, [(divisor id, stripped power)]).
    """
    t._check_base_ideal(a)
    path = []
    chart = t.chart(chart_id)
    while chart.parent is not None:
        path.append(chart)
        chart = t.chart(chart.parent)
    path.reverse()

    gens = list(a.gens)
    removed = []
    for ch in path:
        gens = [g.substitute(list(ch.pullback)) for g in gens]
        drop = min(g.var_min_exponent(ch.pivot) for g in gens)
        if drop:
            gens = [g.divide_var_power(ch.pivot, drop) for g in gens]
        removed.append((ch.step, drop))
    return Ideal(t.domain, t.n, gens), removed


# -- general points ------------------------------------------------------------


def _value_stream(domain: Domain, radius: int):
    if domain.p:
        return range(min(domain.p, 2 * radius + 1))
    out = [0]
    for v in range(1, radius + 1):
        out += (v, -v)
    return out


def point_on_divisor_avoiding(
    t: Tower,
    did: int,
    avoid_divisors=(),
    avoid_loci=(),
    radius: int = 50,
) -> CenterSpec:
    """First point on the divisor passing all avoidance predicates.

    The point lives in the divisor's home chart with the pivot coordinate
    pinned to 0; the free coordinates run through a fixed enumeration of
    2*radius + 1 values (0, 1, 2, ... over F_p, at most p of them; 0, 1,
    -1, 2, -2, ... over Q), first coordinate slowest.  A point is accepted
    when every avoided divisor's local equation is nonzero there and every
    avoided locus has some generator nonzero there.  Exhaustion raises
    GeneralPointNotFound, which over a small prime field is a real
    possibility the caller must handle.
    """
    rec = t.divisor(did)
    chart = t.chart(rec.home_chart)
    dom, n = t.domain, t.n
    pivot = chart.pivot

    eqs = []
    for d in avoid_divisors:
        if d == did:
            continue
        if d not in chart.divisor_eqs:
            raise UnknownDivisor(f"divisor {d} has no trace in chart {chart.cid}")
        eqs.append(chart.divisor_eqs[d])
    loci = []
    for locus in avoid_loci:
        gens = locus.gens if isinstance(locus, Ideal) else tuple(locus)
        if not gens:
            raise ZeroIdeal("cannot avoid the zero locus of the zero ideal")
        loci.append(gens)

    stream = _value_stream(dom, radius)
    free = [i for i in range(n) if i != pivot]
    for combo in itertools.product(stream, repeat=len(free)):
        pt = [0] * n
        for i, v in zip(free, combo):
            pt[i] = v
        if any(eq.evaluate(pt) == 0 for eq in eqs):
            continue
        if any(all(g.evaluate(pt) == 0 for g in gens) for gens in loci):
            continue
        return CenterSpec.make(chart.cid, {i: pt[i] for i in range(n)}, dom)
    raise GeneralPointNotFound(
        f"no point on divisor {did} in chart {chart.cid} passes the "
        f"{len(eqs) + len(loci)} avoidance predicates"
    )


# -- suspension ------------------------------------------------------------------


def suspend(t: Tower, a: Ideal | None = None):
    """Replay the tower inside the hyperplane x_{N+1} = 0 of A^{N+1}.

    Every center gains the constraint x_{N+1} = 0 and the optional ideal is
    extended by reading its generators in N+1 variables.  Valuations along
    corresponding divisors are preserved; discrepancies shift.
    """
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
    padded = Ideal(
        dom,
        n + 1,
        [
            Polynomial.from_terms(dom, n + 1, ((m + (0,), c) for m, c in g.terms.items()))
            for g in a.gens
        ],
    )
    return out, padded


# -- cross-checks and views -------------------------------------------------------


def _det(matrix, dom, n):
    size = len(matrix)
    if size == 1:
        return matrix[0][0]
    total = Polynomial.zero(dom, n)
    for j in range(size):
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
    matrix = [[chart.frame[i].derivative(j) for j in range(n)] for i in range(n)]
    jac = _det(matrix, t.domain, n)
    return jac.var_min_exponent(chart.pivot)
