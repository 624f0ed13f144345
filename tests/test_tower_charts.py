"""Charts derive their frames, divisor equations and the transforms read
through them on first read and keep them; toric searches score weights by
arithmetic and build only the winner's tower.  Neither may change a result.
The Jacobian check of k, which expands the frame's full determinant,
agrees with the containment recursion on every step."""

from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from towerval import errors, invariants, tower
from towerval.invariants import LctWitness, realize_toric_weight, toric_weight_search
from towerval.polyring import GF, QQ, Ideal, Polynomial, parse_polynomial
from towerval.tower import (
    CenterSpec,
    _det,
    blow_up,
    discrepancy_via_jacobian,
    new_tower,
    point_on_divisor_avoiding,
    suspend,
    valuation,
    valuation_of_poly,
    weak_transform,
)

from oracles import (
    center_images,
    chart_chain,
    chart_images,
    equivalent_center_specs,
    walked_point_on_divisor,
    walked_weak_transform,
)

DOMAINS = (GF(2), GF(3), GF(5), QQ)


def center_constants(dom):
    """0 and 1, plus constants whose powers differ from themselves, so the
    pullback expands binomially: 2 and p - 1 over F_p, -1 and 1/2 over Q."""
    return (0, 1, 2, dom.p - 1) if dom.p else (0, 1, -1, Fraction(1, 2))


def points_on_divisors(t, cid):
    """The points of chart cid with every coordinate a nonzero constant from
    ``center_constants`` at which some divisor equation vanishes.  Over F_p
    the equation's residues are positive, so it vanishes there only mod p."""
    dom, eqs = t.domain, t.chart(cid).divisor_eqs.values()
    consts = [c for c in center_constants(dom) if c]
    return [pt for pt in itertools.product(consts, repeat=t.n)
            if any(eq.evaluate(pt) == 0 for eq in eqs)]


@st.composite
def towers(draw, domains=DOMAINS):
    """Random towers over one of ``domains``: point and subspace centers
    with constants from ``center_constants``, in any chart built so far
    (so often not the first chart of a step).  Some centers are drawn from
    ``points_on_divisors``, and some towers end in a chain of a few dozen
    blow-ups at the origin of the newest chart."""
    dom = draw(st.sampled_from(domains))
    n = draw(st.integers(2, 3))
    t = new_tower(n, dom)
    for _ in range(draw(st.integers(1, 4))):
        newest = t.steps[-1].chart_ids if t.steps else (0,)
        chart = draw(st.one_of(st.integers(0, len(t.charts) - 1), st.sampled_from(newest)))
        on_divisors = points_on_divisors(t, chart)
        if on_divisors and draw(st.integers(0, 3)):  # three draws in four
            center = dict(enumerate(draw(st.sampled_from(on_divisors))))
        else:
            support = draw(st.sampled_from([s for k in range(2, n + 1)
                                            for s in itertools.combinations(range(n), k)]))
            consts = draw(st.lists(st.sampled_from(center_constants(dom)),
                                   min_size=len(support), max_size=len(support)))
            center = dict(zip(support, consts))
        t, _ = blow_up(t, CenterSpec.make(chart, center, dom))
    for _ in range(draw(st.sampled_from((0, 0, 0, 24, 36)))):
        t, _ = blow_up(t, CenterSpec.make(len(t.charts) - 1, dict.fromkeys(range(n), 0), dom))
    return t


def chart_origins(t):
    """cid -> (parent cid, pivot, step), read off the steps, not the charts."""
    out = {}
    for step_no, step in enumerate(t.steps, 1):
        pivots = sorted(step.center.as_dict())
        for cid, pivot in zip(step.chart_ids, pivots):
            out[cid] = (step.center.chart, pivot, step_no)
    return out


def pullback_images(t, cid):
    chart = t.chart(cid)
    return tuple(chart_images(t.domain, t.n, chart.pivot, t.divisor(chart.step).center.constraints))


def composite_frame(t, cid, origins):
    """Compose the pullbacks from the chart up to the base, innermost first."""
    images = pullback_images(t, cid)
    parent = origins[cid][0]
    while parent != 0:
        images = tuple(g.substitute(images) for g in pullback_images(t, parent))
        parent = origins[parent][0]
    return images


def eager_divisor_eqs(t, origins):
    """Every chart's divisor equations, built parent first as a blow-up once
    did, without the constant ones (divisors that have left the chart)."""
    dom, n = t.domain, t.n
    eqs = {0: {}}
    for cid in range(1, len(t.charts)):
        parent, pivot, step_no = origins[cid]
        pullback = pullback_images(t, cid)
        mine = {}
        for did, eq in eqs[parent].items():
            g = eq.substitute(pullback)
            drop = g.var_min_exponent(pivot)
            if drop:
                g = g.divide_var_power(pivot, drop)
            if not g.is_constant():
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


@given(towers())
def test_a_chart_stores_only_non_constant_divisor_equations(t):
    for chart in t.charts:
        assert not any(eq.is_constant() for eq in chart.divisor_eqs.values())


def test_an_origin_chain_pulls_each_equation_once(monkeypatch):
    # each chart keeps only its own divisor's equation, so a step pulls one
    calls = []
    real = tower._chart_pullback
    monkeypatch.setattr(tower, "_chart_pullback", lambda *a: calls.append(1) or real(*a))
    dom = GF(5)
    t = new_tower(2, dom)
    for _ in range(400):
        t, did = blow_up(t, CenterSpec.make(len(t.charts) - 1, {0: 0, 1: 0}, dom))
    assert (did, t.divisor(did).k) == (400, 400)
    assert len(calls) <= 400


@given(towers())
def test_containment_matches_the_center_substitution(t):
    """A divisor contains a center exactly when its local equation in the
    center's chart vanishes under x_j -> c_j on the constrained coordinates."""
    for step in t.steps:
        center_img = center_images(t.domain, t.n, step.center.constraints)
        eqs = t.chart(step.center.chart).divisor_eqs
        expected = tuple(did for did, eq in sorted(eqs.items())
                         if eq.substitute(center_img).is_zero())
        assert step.contained_in == expected


@given(towers())
def test_jacobian_order_equals_the_recursive_discrepancy(t):
    for step in t.steps:
        assert discrepancy_via_jacobian(t, step.did) == step.k


def leibniz_det(matrix, dom, n):
    """The determinant as a sum over permutations, each with its sign."""
    size = len(matrix)
    total = Polynomial.zero(dom, n)
    for perm in itertools.permutations(range(size)):
        inversions = sum(perm[i] > perm[j] for i in range(size) for j in range(i + 1, size))
        term = Polynomial.constant(dom, n, -1 if inversions % 2 else 1)
        for row, col in enumerate(perm):
            term = term * matrix[row][col]
        total = total + term
    return total


@given(st.data())
def test_cofactor_determinant_matches_the_permutation_sum(data):
    dom = data.draw(st.sampled_from(DOMAINS))
    n = data.draw(st.integers(2, 3))
    size = data.draw(st.integers(1, 4))
    entry = st.one_of(st.just(Polynomial.zero(dom, n)), sparse_polys(dom, n))
    matrix = [[data.draw(entry) for _ in range(size)] for _ in range(size)]
    assert _det(matrix, dom, n) == leibniz_det(matrix, dom, n)


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


def walked_valuation(t, did, f):
    """The order along the divisor of f pulled from the root to its home
    chart, every time: no memo and no pivot orders."""
    chart = t.chart(t.divisor(did).home_chart)
    for ch in chart_chain(t, chart.cid):
        f = ch.pull(f)
    return f.var_min_exponent(chart.pivot)


def replayed(t):
    """The same tower, blown up afresh: charts with empty memos."""
    out = new_tower(t.n, t.domain)
    for step in t.steps:
        out, _ = blow_up(out, step.center)
    return out


@given(st.data())
def test_memoized_transforms_equal_a_walk_from_the_root(data):
    """Valuations and weak transforms, each asked twice in a drawn order on
    one tower, so that memo hits come both before and after misses, equal
    the walk from the root and the answers of a fresh tower."""
    t = data.draw(towers())
    dom, n = t.domain, t.n
    polys = data.draw(st.lists(sparse_polys(dom, n), min_size=1, max_size=3))
    dids = data.draw(st.lists(st.integers(1, len(t.steps)), min_size=1, max_size=3))
    cids = data.draw(st.lists(st.integers(0, len(t.charts) - 1), min_size=1, max_size=3))
    ideals = [Ideal(dom, n, polys[:k]) for k in sorted({1, len(polys)})]
    asks = ([("v", did, a) for did in dids for a in ideals]
            + [("w", cid, a) for cid in cids for a in ideals])
    asks = data.draw(st.permutations(asks * 2))
    answers = []
    for kind, where, a in asks:
        if kind == "v":
            got = valuation(t, where, a)
            assert got == min(walked_valuation(t, where, g) for g in a.gens)
        else:
            got = weak_transform(t, a, where)
            assert got == walked_weak_transform(t, a, where)[0]
        answers.append(got)
    fresh = replayed(t)
    assert answers == [valuation(fresh, where, a) if kind == "v" else weak_transform(fresh, a, where)
                       for kind, where, a in asks]


@given(st.data())
def test_a_point_blows_up_alike_in_every_chart_that_sees_it(data):
    """A full point center in a non-root chart, and the same point named in
    a sibling chart: both blow-ups give the same k, the same containing
    divisors and the same valuations.  Each ideal is a random polynomial
    less its value at the point's image in the root chart, so it vanishes
    there and its valuation is positive."""
    t = data.draw(towers())
    dom, n = t.domain, t.n
    cid = data.draw(st.integers(1, len(t.charts) - 1))
    point = data.draw(st.tuples(*[st.sampled_from(center_constants(dom))] * n))
    spec = CenterSpec.make(cid, dict(enumerate(point)), dom)
    views = equivalent_center_specs(t, spec)
    assume(views)  # the point has a nonzero coordinate at some sibling's pivot
    image = [g.evaluate(point) for g in t.chart(cid).frame]
    ideals = []
    for f in data.draw(st.lists(sparse_polys(dom, n), min_size=2, max_size=2)):
        f = f - Polynomial.constant(dom, n, f.evaluate(image))
        assume(not f.is_zero())
        ideals.append(Ideal(dom, n, [f]))
    t_main, did_main = blow_up(t, spec)
    main = t_main.steps[-1]
    for alt in views:
        t_alt, did_alt = blow_up(t, alt)
        assert (t_alt.steps[-1].k, t_alt.steps[-1].contained_in) == (main.k, main.contained_in)
        for a in ideals:
            assert valuation(t_alt, did_alt, a) == valuation(t_main, did_main, a) > 0


@settings(deadline=None)
@given(st.data())
def test_the_pruned_point_search_finds_the_walks_point(data):
    """The search against the plain walk of ``oracles``: the same point, or
    GeneralPointNotFound with the same message.  Random loci in the home
    chart's coordinates over F_2, F_3 and F_5, and a radius of 1 or 2 as
    well as 50 over Q and F_101, make exhaustion real."""
    t = data.draw(towers(DOMAINS + (GF(101),)))
    dom, n = t.domain, t.n
    did = data.draw(st.integers(1, len(t.steps)))
    gens = st.lists(sparse_polys(dom, n), min_size=1, max_size=2)
    loci = [Ideal(dom, n, g) for g in data.draw(st.lists(gens, max_size=3))]
    radius = data.draw(st.sampled_from((1, 2, tower._RADIUS)))
    saved, tower._RADIUS = tower._RADIUS, radius
    try:
        outcomes = []
        for search in (point_on_divisor_avoiding, walked_point_on_divisor):
            try:
                outcomes.append(search(t, did, loci))
            except errors.GeneralPointNotFound as exc:
                outcomes.append(str(exc))
    finally:
        tower._RADIUS = saved
    assert outcomes[0] == outcomes[1]


def test_chart_attributes_are_read_only():
    t, _ = blow_up(new_tower(2, GF(5)), CenterSpec.make(0, {0: 0, 1: 0}, GF(5)))
    chart = t.chart(1)
    for name in ("cid", "parent", "pivot", "step", "plan", "frame", "divisor_eqs"):
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


# -- toric search ----------------------------------------------------------------


def monomial_ideal(dom, n, text):
    return Ideal(dom, n, [parse_polynomial(g, dom, n) for g in text.split(",")])


def test_toric_search_realizes_only_the_winner(monkeypatch):
    centers = []
    real = invariants.blow_up
    monkeypatch.setattr(invariants, "blow_up", lambda t, c: centers.append(c) or real(t, c))
    witness = toric_weight_search(monomial_ideal(GF(101), 3, "x1^2, x2^2, x3^3"), 5)
    assert (witness.z, witness.weights) == (Fraction(4, 3), (3, 3, 2))
    assert len(centers) == 3


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


def test_the_arithmetic_search_gives_the_fresh_witness():
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


@st.composite
def monomial_ideals(draw):
    dom = draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
    n = draw(st.integers(2, 3))
    exponents = st.tuples(*[st.integers(0, 4)] * n).filter(any)
    gens = draw(st.lists(exponents, min_size=1, max_size=3, unique=True))
    return Ideal(dom, n, [Polynomial(dom, n, {m: 1}) for m in gens])


@settings(max_examples=60, deadline=None)
@given(a=monomial_ideals(), bound=st.integers(1, 4))
def test_the_toric_search_equals_the_fresh_search(a, bound):
    assert toric_weight_search(a, bound) == fresh_search(a, bound)


def test_a_tower_valuation_off_the_arithmetic_fails_the_search(monkeypatch):
    real = invariants.valuation
    monkeypatch.setattr(invariants, "valuation", lambda t, did, a: real(t, did, a) + 1)
    with pytest.raises(errors.MathCheckFailed, match="grid valuation 6 != tower valuation 7"):
        toric_weight_search(monomial_ideal(QQ, 2, "x1^2, x2^3"), 4)
