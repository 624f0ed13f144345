"""Charts derive their frames and divisor equations on first read; toric
searches build each blow-up prefix once.  Neither may change a result."""

from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from towerval import invariants
from towerval.invariants import LctWitness, realize_toric_weight, toric_weight_search
from towerval.polyring import GF, QQ, Ideal, Polynomial, parse_polynomial
from towerval.tower import CenterSpec, blow_up, new_tower, suspend, valuation, valuation_of_poly

DOMAINS = (GF(2), GF(3), GF(5), QQ)


@st.composite
def towers(draw):
    """Random towers: point and subspace centers with constants 0/1, in any
    chart built so far (so often not the first chart of a step)."""
    dom = draw(st.sampled_from(DOMAINS))
    n = draw(st.integers(2, 3))
    t = new_tower(n, dom)
    for _ in range(draw(st.integers(1, 4))):
        chart = draw(st.integers(0, len(t.charts) - 1))
        support = draw(st.sampled_from([s for k in range(2, n + 1)
                                        for s in itertools.combinations(range(n), k)]))
        consts = draw(st.lists(st.sampled_from((0, 1)), min_size=len(support), max_size=len(support)))
        t, _ = blow_up(t, CenterSpec.make(chart, dict(zip(support, consts)), dom))
    return t


def chart_origins(t):
    """cid -> (parent cid, pivot, step), read off the steps, not the charts."""
    out = {}
    for step_no, step in enumerate(t.steps, 1):
        pivots = sorted(step.center.as_dict())
        for cid, pivot in zip(step.chart_ids, pivots):
            out[cid] = (step.center.chart, pivot, step_no)
    return out


def composite_frame(t, cid, origins):
    """Compose the pullbacks from the chart up to the base, innermost first."""
    images = t.chart(cid).pullback
    parent = origins[cid][0]
    while parent != 0:
        images = tuple(g.substitute(images) for g in t.chart(parent).pullback)
        parent = origins[parent][0]
    return images


def eager_divisor_eqs(t, origins):
    """Every chart's divisor equations, built parent first as a blow-up once did."""
    dom, n = t.domain, t.n
    eqs = {0: {}}
    for cid in range(1, len(t.charts)):
        parent, pivot, step_no = origins[cid]
        pullback = t.chart(cid).pullback
        mine = {}
        for did, eq in eqs[parent].items():
            g = eq.substitute(pullback)
            drop = g.var_min_exponent(pivot)
            if drop:
                g = g.divide_var_power(pivot, drop)
            mine[did] = g
        mine[step_no] = Polynomial.variable(dom, n, pivot)
        eqs[cid] = mine
    return eqs


@given(st.data())
def test_lazy_frames_and_equations_match_eager_references(data):
    t = data.draw(towers())
    origins = chart_origins(t)
    eqs = eager_divisor_eqs(t, origins)
    reads = [(cid, part) for cid in range(1, len(t.charts)) for part in ("frame", "eqs")]
    for cid, part in data.draw(st.permutations(reads)):
        chart = t.chart(cid)
        assert (chart.parent, chart.pivot, chart.step) == origins[cid]
        if part == "frame":
            assert chart.frame == composite_frame(t, cid, origins)
        else:
            assert chart.divisor_eqs == eqs[cid]


def sparse_polys(dom, n):
    """Nonzero polynomials of a few terms, degree at most 3 in each variable."""
    term = st.tuples(st.tuples(*[st.integers(0, 3)] * n), st.integers(-3, 3))
    return (st.lists(term, min_size=1, max_size=4)
            .map(lambda items: Polynomial.from_terms(dom, n, items))
            .filter(lambda f: not f.is_zero()))


def expanded_valuation(t, did, f):
    """The order of the whole total transform along the divisor's pivot."""
    chart = t.chart(t.divisor(did).home_chart)
    return f.substitute(list(chart.frame)).var_min_exponent(chart.pivot)


@given(st.data())
def test_valuations_match_the_expanded_total_transform(data):
    t = data.draw(towers())
    f = data.draw(sparse_polys(t.domain, t.n))
    g = data.draw(sparse_polys(t.domain, t.n))
    s, lifted = suspend(t, Ideal(t.domain, t.n, [f, g]))
    f_s, g_s = lifted.gens
    for did in range(1, len(t.steps) + 1):
        v_f, v_g = valuation_of_poly(t, did, f), valuation_of_poly(t, did, g)
        assert v_f == expanded_valuation(t, did, f)
        assert v_g == expanded_valuation(t, did, g)
        assert valuation_of_poly(t, did, f * g) == v_f + v_g
        assert (valuation_of_poly(s, did, f_s), valuation_of_poly(s, did, g_s)) == (v_f, v_g)


def test_chart_attributes_are_read_only():
    t, _ = blow_up(new_tower(2, GF(5)), CenterSpec.make(0, {0: 0, 1: 0}, GF(5)))
    chart = t.chart(1)
    for name in ("cid", "parent", "pivot", "step", "pullback", "frame", "divisor_eqs"):
        with pytest.raises(AttributeError):
            setattr(chart, name, None)


def _frames_on_stack() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_deep_tower_frame_does_not_recurse_per_level():
    dom = GF(5)
    t, cid = new_tower(2, dom), 0
    for _ in range(200):
        t, _ = blow_up(t, CenterSpec.make(cid, {0: 0, 1: 0}, dom))
        cid = t.steps[-1].chart_ids[-1]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frames_on_stack() + 60)
    try:
        frame = t.chart(cid).frame
    finally:
        sys.setrecursionlimit(limit)
    assert [f.text() for f in frame] == ["x1*x2^200", "x2"]


# -- toric prefixes --------------------------------------------------------------


def monomial_ideal(dom, n, text):
    return Ideal(dom, n, [parse_polynomial(g, dom, n) for g in text.split(",")])


def test_toric_search_builds_each_prefix_once(monkeypatch):
    centers = []
    real = invariants.blow_up
    monkeypatch.setattr(invariants, "blow_up", lambda t, c: centers.append(c) or real(t, c))
    witness = toric_weight_search(monomial_ideal(GF(101), 3, "x1^2, x2^2, x3^3"), 5)
    assert (witness.z, witness.weights) == (Fraction(4, 3), (3, 3, 2))
    assert len(centers) == 115


def fresh_search(a, bound):
    """The toric search with a new tower for every weight."""
    best = None
    for w in itertools.product(range(1, bound + 1), repeat=a.nvars):
        if math.gcd(*w) != 1:
            continue
        t, did = realize_toric_weight(a.domain, w)
        v = valuation(t, did, a)
        z = Fraction(t.divisor(did).k + 1, v)
        if best is None or z < best.z:
            best = LctWitness(z=z, k=t.divisor(did).k, v=v, weights=w)
    return best


def test_shared_prefixes_give_the_fresh_witness():
    cases = [
        (QQ, 2, "x1^2, x2^3"),
        (GF(7), 2, "x1*x2^2, x1^5"),
        (GF(101), 3, "x1^2, x2^2, x3^3"),
        (QQ, 3, "x1*x2, x2^3, x1^2*x3^4"),
    ]
    for dom, n, text in cases:
        a = monomial_ideal(dom, n, text)
        for bound in range(1, 6):
            assert toric_weight_search(a, bound) == fresh_search(a, bound), (text, bound)
