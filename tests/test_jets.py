from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from towerval import errors, jets
from towerval.cli import parse_script, run
from towerval.jets import (
    StepBudget,
    _min_hitting_set_size,
    _minimal_supports,
    compare_heights,
    contact_codim_at_origin,
    grevlex_key,
    groebner_basis,
    groebner_contact_codim,
    height_of_ideal,
    ideal_dimension,
    jet_equations,
    lct_estimate_at_origin,
    mld_estimate,
    monomial_contact_codim,
    normal_form,
)
from towerval.polyring import (
    GF,
    QQ,
    Ideal,
    MultiIdeal,
    Polynomial,
    coordinate_ideal,
    parse_polynomial,
)

from oracles import (
    box_strata,
    box_strata_codim,
    dimension_by_groebner,
    face_forms,
    face_misses_torus,
    fraction_normal_form,
    reduced_basis,
    sympy_groebner,
    to_sympy,
    verify_groebner,
)


def P(text, domain, nvars=2):
    return parse_polynomial(text, domain, nvars)


def I(domain, nvars, *texts):
    return Ideal(domain, nvars, [parse_polynomial(t, domain, nvars) for t in texts])


# -- jet equations ----------------------------------------------------------------


def test_jet_equations_product_rule():
    js = jet_equations(I(QQ, 2, "x1*x2"), 1)
    (coeffs,) = js.coefficients
    names = js.var_names()
    assert coeffs[0].text(names) == "x1_0*x2_0"
    assert coeffs[1].text(names) == "x1_0*x2_1 + x1_1*x2_0"


def test_jet_equations_linear_generator():
    js = jet_equations(I(QQ, 2, "x1"), 2)
    (coeffs,) = js.coefficients
    names = js.var_names()
    assert [c.text(names) for c in coeffs] == ["x1_0", "x1_1", "x1_2"]


def test_jet_equations_cusp_level_two():
    js = jet_equations(I(QQ, 2, "x1^2 + x2^3"), 2)
    (coeffs,) = js.coefficients
    names = js.var_names()
    assert coeffs[0].text(names) == "x2_0^3 + x1_0^2"
    assert coeffs[1].text(names) == "3*x2_0^2*x2_1 + 2*x1_0*x1_1"
    assert coeffs[2].text(names) == "3*x2_0^2*x2_2 + 3*x2_0*x2_1^2 + 2*x1_0*x1_2 + x1_1^2"


def test_jet_coefficients_only_use_early_variables():
    js = jet_equations(I(GF(5), 2, "x1^2*x2 + 4*x2^2", "x1^3"), 3)
    for coeffs in js.coefficients:
        for j, c in enumerate(coeffs):
            for mono in c.terms:
                for l in range(js.n):
                    for q in range(js.level + 1):
                        if mono[js.var_index(l, q)]:
                            assert q <= j


def test_jet_equations_match_sympy_series():
    rng = random.Random(421)
    t = sympy.Symbol("t")
    for _ in range(15):
        items = [
            (
                (rng.randint(0, 3), rng.randint(0, 3)),
                rng.randint(-4, 4),
            )
            for _ in range(rng.randint(1, 4))
        ]
        f = Polynomial.from_terms(QQ, 2, items)
        if f.is_zero():
            continue
        level = rng.randint(1, 3)
        js = jet_equations(Ideal(QQ, 2, [f]), level)
        width = level + 1
        jet_syms = sympy.symbols(" ".join(js.var_names()))
        x_series = sum(jet_syms[0 * width + q] * t**q for q in range(width))
        y_series = sum(jet_syms[1 * width + q] * t**q for q in range(width))
        expanded = sympy.expand(to_sympy(f, sympy.symbols("x y")).subs(
            {sympy.Symbol("x"): x_series, sympy.Symbol("y"): y_series}
        ))
        for j, coeff in enumerate(js.coefficients[0]):
            expected = expanded.coeff(t, j)
            assert sympy.expand(to_sympy(coeff, jet_syms) - expected) == 0


def test_jet_equations_of_a_large_exponent():
    # x1(t)^e is built by repeated squaring, and through the origin a
    # monomial of degree above the level is skipped
    a = I(GF(5), 2, "x1^3000 + x2^2")
    js = jet_equations(a, 1)
    assert [c.text(js.var_names()) for c in js.coefficients[0]] == [
        "x1_0^3000 + x2_0^2", "2*x2_0*x2_1"]
    at0 = jet_equations(a, 1, at_origin=True)
    assert [c.text(at0.var_names()) for c in at0.coefficients[0]] == ["0", "0"]
    at0 = jet_equations(a, 2, at_origin=True)
    assert [c.text(at0.var_names()) for c in at0.coefficients[0]] == ["0", "0", "x2_1^2"]
    js = jet_equations(I(QQ, 2, "x1^3000 + x2^2"), 2)
    assert js.coefficients[0][2].text(js.var_names()) == (
        "3000*x1_0^2999*x1_2 + 4498500*x1_0^2998*x1_1^2 + 2*x2_0*x2_2 + x2_1^2")
    js = jet_equations(I(GF(5), 2, "x1^100000000000000000000 + x2^2"), 1)
    assert js.coefficients[0][1].text(js.var_names()) == "2*x2_0*x2_1"


def test_expansion_through_the_origin_is_the_plain_one_with_zero_constants():
    rng = random.Random(424)
    for trial in range(40):
        dom = (QQ, GF(5))[trial % 2]
        items = [((rng.randint(0, 7), rng.randint(0, 7)), rng.randint(1, 4))
                 for _ in range(rng.randint(1, 4))]
        f = Polynomial.from_terms(dom, 2, items)
        level = rng.randint(1, 4)
        plain = jet_equations(Ideal(dom, 2, [f]), level)
        at0 = jet_equations(Ideal(dom, 2, [f]), level, at_origin=True)
        images = [Polynomial.zero(dom, at0.nvars) if q == 0
                  else Polynomial.variable(dom, at0.nvars, at0.var_index(l, q))
                  for l in range(2) for q in range(level + 1)]
        assert [c.substitute(images) for c in plain.coefficients[0]] == list(at0.coefficients[0])


# -- Groebner engine ---------------------------------------------------------------


def test_monomial_generators_are_their_own_basis():
    gens = list(coordinate_ideal(QQ, 2).gens)
    assert groebner_basis(gens) == gens  # the loop keeps them in the order given
    assert [g.text() for g in reduced_basis(gens)] == ["x2", "x1"]


def test_basis_contains_hidden_element():
    gb = groebner_basis([P("x1^2", QQ), P("x1*x2 + x2^2", QQ)])
    assert P("x2^3", QQ) in gb
    assert verify_groebner(gb, [P("x1^2", QQ), P("x1*x2 + x2^2", QQ)])


def test_reduction_produces_reduced_basis():
    gb = reduced_basis(groebner_basis([P("x1 - x2", QQ), P("x2", QQ)]))
    assert [g.text() for g in gb] == ["x2", "x1"]


def test_normal_form_is_zero_exactly_on_members():
    basis = groebner_basis([P("x1^2 - x2", QQ)])
    lms = [max(g.terms, key=grevlex_key) for g in basis]
    budget = StepBudget(1000)
    member = P("x1^4 - 2*x1^2*x2 + x2^2", QQ)  # (x1^2 - x2)^2
    assert normal_form(member, basis, budget, lms).is_zero()
    assert not normal_form(P("x1^2", QQ), basis, budget, lms).is_zero()


def test_budget_exceeded_is_raised():
    with pytest.raises(errors.BudgetExceeded):
        groebner_basis([P("x1^2 + x2", QQ), P("x1*x2 + x1", QQ)], budget=1)


def test_negative_step_budget_is_refused():
    with pytest.raises(ValueError, match="-1"):
        StepBudget(-1)


def test_groebner_matches_sympy_over_q_and_gf():
    # 3-4 generators in 3 variables with exponents up to 3: large enough
    # that the pair criteria drop pairs, both by B_k and among new pairs
    rng = random.Random(422)
    for trial in range(48):
        domain = (QQ, GF(2), GF(3), GF(5))[trial % 4]
        gens = []
        for _ in range(rng.randint(3, 4)):
            items = [
                (
                    tuple(rng.randint(0, 3) for _ in range(3)),
                    rng.randint(-4, 4) if domain == QQ else rng.randint(0, domain.p - 1),
                )
                for _ in range(rng.randint(1, 3))
            ]
            g = Polynomial.from_terms(domain, 3, items)
            if not g.is_zero():
                gens.append(g)
        if not gens:
            continue
        mine = reduced_basis(groebner_basis(gens, budget=200_000), 200_000)
        assert set(mine) == set(sympy_groebner(gens, "grevlex").values())


def test_coprime_leading_monomials_cost_no_step():
    budget = StepBudget(10)
    gb = groebner_basis([P("x1^2", QQ), P("x2^3", QQ)], budget=budget)
    assert [g.text() for g in gb] == ["x1^2", "x2^3"]
    assert budget.used == 0


@st.composite
def generator_lists(draw, domain, nvars=3):
    """Two or three nonzero generators of 1-3 terms, exponents up to 3;
    coefficients in 1..p-1 over F_p, small rationals over Q."""
    if domain.p:
        coeffs = st.integers(1, domain.p - 1)
    else:
        coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    gens = []
    for _ in range(draw(st.integers(2, 3))):
        items = draw(st.dictionaries(exps, coeffs, min_size=1, max_size=3))
        gens.append(Polynomial.from_terms(domain, nvars, items.items()))
    return gens


nonzero_rationals = st.fractions(min_value=-7, max_value=7, max_denominator=5).filter(bool)


def _basis_and_steps(gens):
    # A few of the drawn systems take thousands of steps; a small cap keeps
    # them cheap, and running out at the same step is still a match.
    budget = StepBudget(300)
    try:
        return groebner_basis(gens, budget), budget.used
    except errors.BudgetExceeded:
        return None, budget.used


@settings(max_examples=60)
@given(generator_lists(QQ), st.lists(nonzero_rationals, min_size=3, max_size=3))
def test_scaling_the_generators_changes_neither_basis_nor_steps(gens, scalars):
    scaled = [g.scale(c) for g, c in zip(gens, scalars)]
    assert _basis_and_steps(scaled) == _basis_and_steps(gens)


def _same_up_to_a_scalar(f, g):
    if f.is_zero() or g.is_zero():
        return f.is_zero() and g.is_zero()
    m = next(iter(g.terms))
    return f.terms.keys() == g.terms.keys() and f.scale(Fraction(g.terms[m]) / f.terms[m]) == g


@settings(max_examples=60)
@given(generator_lists(QQ), generator_lists(QQ))
def test_normal_form_matches_plain_fraction_division(gens, targets):
    # against the engine's own integer basis and against the reduced monic one
    loop_basis = groebner_basis(gens)
    for basis in (loop_basis, reduced_basis(loop_basis)):
        lms = [max(g.terms, key=grevlex_key) for g in basis]
        for f in targets:
            budget = StepBudget(10**6)
            remainder = normal_form(f, basis, budget, lms)
            expected, steps = fraction_normal_form(f, basis, lms)
            assert _same_up_to_a_scalar(remainder, expected)
            assert budget.used == steps


@settings(max_examples=60)
@given(st.sampled_from([QQ, GF(7)]).flatmap(generator_lists))
def test_dimension_path_agrees_with_the_reduced_basis(gens):
    basis = reduced_basis(groebner_basis(gens))
    if any(g.is_constant() for g in basis):
        with pytest.raises(errors.UnitIdeal):
            ideal_dimension(gens)
        return
    supports = _minimal_supports([max(g.terms, key=grevlex_key) for g in basis])
    assert ideal_dimension(gens) == 3 - _min_hitting_set_size(supports)


@pytest.mark.parametrize("order", [grevlex_key])
def test_descending_keys_sort_against_their_order(order):
    rng = random.Random(423)
    for _ in range(50):
        nvars = rng.randint(1, 4)
        monos = list({tuple(rng.randint(0, 3) for _ in range(nvars)) for _ in range(12)})
        assert sorted(monos, key=jets._descending_key) == sorted(monos, key=order, reverse=True)


# -- dimension ----------------------------------------------------------------------


def brute_force_monomial_dimension(monos, nvars):
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in monos]
    for size in range(nvars, -1, -1):
        for U in itertools.combinations(range(nvars), size):
            u = set(U)
            if not any(s <= u for s in supports):
                return size
    raise AssertionError("unit ideal slipped into the oracle")


def test_dimension_examples():
    assert ideal_dimension([P("x1", QQ)]) == 1
    assert ideal_dimension(list(coordinate_ideal(QQ, 2).gens)) == 0
    gens3 = [
        parse_polynomial("x1*x2", QQ, 3),
        parse_polynomial("x1*x3", QQ, 3),
    ]
    assert ideal_dimension(gens3) == 2
    assert ideal_dimension([Polynomial.zero(QQ, 2)]) == 2


def test_unit_ideal_is_reported_distinctly():
    with pytest.raises(errors.UnitIdeal):
        ideal_dimension([P("x1 + 1", QQ), P("x1", QQ)])


# -- the cut: coordinates a generator is a power of ----------------------------------


def test_a_cut_that_leaves_a_constant_is_the_unit_ideal():
    with pytest.raises(errors.UnitIdeal, match="^the generators span the whole ring$"):
        ideal_dimension([P("x1^2", QQ), P("x1*x2 + 1", QQ)])
    # Found before any pair is reduced: in the pair loop the constant would
    # not drop the pair of x2^3 + x3^2 and x2^2 + x3, whose lcm is x2^3.
    gens = [P(t, QQ, 3) for t in ("x2^3 + x3^2", "x2^2 + x3", "x1^2", "x1*x2 + 1")]
    with pytest.raises(errors.UnitIdeal, match="^the generators span the whole ring$"):
        ideal_dimension(gens, budget=0)


def test_a_cut_can_expose_a_new_power():
    # x3 is cut first; x1 + x2^2*x3 then becomes x1, which is cut in turn
    gens = [P("x1 + x2^2*x3", QQ, 4), P("x3^4", QQ, 4)]
    budget = StepBudget(10**6)
    assert ideal_dimension(gens, budget) == 4 - 2
    assert budget.used == 0


def test_a_cut_that_leaves_nothing_runs_no_groebner_basis(monkeypatch):
    calls = counting_groebner(monkeypatch)
    assert ideal_dimension([P("3*x1^2", GF(5), 3), P("x2 + x1*x3", GF(5), 3)]) == 1
    assert calls == []


@st.composite
def cut_inputs(draw):
    """Generators over Q or F_p with work for the cut: powers c * x_v^k,
    pairs where cutting a power exposes a new one, and sparse polynomials
    of up to three terms that may hold a constant."""
    domain = draw(st.sampled_from([QQ, GF(2), GF(3), GF(5), GF(101)]))
    nvars = draw(st.integers(2, 4))
    coeffs = st.integers(1, domain.p - 1) if domain.p else st.integers(-4, 4).filter(bool)
    var, k = st.integers(0, nvars - 1), st.integers(1, 3)
    exps = st.tuples(*[st.integers(0, 2)] * nvars)

    def mono(v, e):
        return tuple(e if i == v else 0 for i in range(nvars))

    def poly(terms):
        return Polynomial.from_terms(domain, nvars, terms)

    gens = []
    for _ in range(draw(st.integers(0, 2))):
        gens.append(poly([(mono(draw(var), draw(k)), draw(coeffs))]))
    for _ in range(draw(st.integers(0, 2))):
        # c1 * x_v^k + c2 * x_w * x^e: x_v^k once x_w is cut
        v, w, e = draw(var), draw(var), draw(exps)
        tail = tuple(a + (i == w) for i, a in enumerate(e))
        gens.append(poly([(mono(v, draw(k)), draw(coeffs)), (tail, draw(coeffs))]))
        gens.append(poly([(mono(w, draw(k)), draw(coeffs))]))
    for _ in range(draw(st.integers(0, 2))):
        gens.append(poly(draw(st.dictionaries(exps, coeffs, min_size=1, max_size=3)).items()))
    return draw(st.permutations(gens)) or [Polynomial.zero(domain, nvars)]


@settings(max_examples=300)
@given(cut_inputs())
def test_the_cut_keeps_the_dimension(gens):
    # The uncut route sometimes needs thousands of steps; a draw where it
    # runs out of a small budget is not compared.
    try:
        expected = dimension_by_groebner(gens, 2000)
    except errors.UnitIdeal as e:
        with pytest.raises(errors.UnitIdeal, match=f"^{e}$"):
            ideal_dimension(gens)
        return
    except errors.BudgetExceeded:
        return
    assert ideal_dimension(gens) == expected


def test_dimension_matches_brute_force_on_random_monomial_ideals():
    rng = random.Random(423)
    for _ in range(100):
        nv = rng.randint(2, 8)
        monos = []
        for _ in range(rng.randint(1, 6)):
            m = tuple(rng.randint(0, 2) for _ in range(nv))
            if sum(m):
                monos.append(m)
        if not monos:
            continue
        gens = [Polynomial.from_terms(QQ, nv, [(m, 1)]) for m in monos]
        assert ideal_dimension(gens) == brute_force_monomial_dimension(monos, nv)


# -- contact codimension ----------------------------------------------------------------


def test_contact_codim_maximal_ideal_level_two():
    a = coordinate_ideal(QQ, 2)
    assert contact_codim_at_origin([(a, 2)]) == 4


def test_contact_codim_monomial_example():
    a = I(QQ, 2, "x1^2", "x2^3")
    assert contact_codim_at_origin([(a, 6)]) == 5


def test_contact_codim_two_factors():
    m = coordinate_ideal(QQ, 2)
    x = I(QQ, 2, "x1")
    assert contact_codim_at_origin([(m, 1), (x, 2)]) == 3


def test_fast_path_agrees_with_groebner_path():
    for domain in (QQ, GF(5)):
        samples = [
            [(coordinate_ideal(domain, 2), 2)],
            [(I(domain, 2, "x1^2", "x2^3"), 3)],
            [(I(domain, 2, "x1^2", "x2^3"), 4)],
            [(I(domain, 2, "x1*x2"), 2)],
            [(I(domain, 2, "x1*x2"), 4)],  # the Groebner route spends 2 steps here
            [(coordinate_ideal(domain, 2), 1), (I(domain, 2, "x1"), 2)],
            [(I(domain, 3, "x1^2", "x2*x3"), 2)],
        ]
        for factors in samples:
            fast = monomial_contact_codim(factors)
            slow = groebner_contact_codim(factors)
            assert fast == slow, (domain, factors)
            # an all-monomial cell takes the strata route and spends nothing
            budget = StepBudget(0)
            assert contact_codim_at_origin(factors, budget) == slow and budget.used == 0, (domain, factors)


# -- the strata route -------------------------------------------------------------------


@st.composite
def strata_cells(draw):
    """Sparse polynomials through the origin in N <= 3 variables at levels
    L <= 5: an ideal of one or two generators, and sometimes a second
    principal factor and a monomial factor beside it.  Where N > 1, two or
    more terms of each polynomial share the least weight d under one a in
    {1, 2}^N, and the first level is mostly above d, so that most draws meet
    a face that is not a monomial, and many test two forms at once."""
    dom = draw(st.sampled_from([QQ, GF(2), GF(3), GF(5), GF(7)]))
    n = draw(st.integers(1, 3))
    a = draw(st.tuples(*[st.integers(1, 2)] * n))
    monos = [w for w in itertools.product(range(6), repeat=n) if any(w)]
    weight = {w: sum(map(int.__mul__, a, w)) for w in monos}
    d = draw(st.sampled_from(sorted({e for e in weight.values() if 2 <= e <= 4})))
    face = [w for w in monos if weight[w] == d]
    above = [w for w in monos if weight[w] > d]
    coeffs = st.integers(-3, 3).filter(bool)

    def polynomial():
        terms = draw(st.dictionaries(st.sampled_from(face), coeffs, min_size=min(2, len(face)), max_size=3))
        terms.update(draw(st.dictionaries(st.sampled_from(above), coeffs, max_size=2)))
        f = Polynomial.from_terms(dom, n, terms.items())
        return Polynomial.variable(dom, n, 0) if f.is_zero() else f

    gens = [polynomial() for _ in range(draw(st.integers(1, 2)))]
    cell = [(Ideal(dom, n, gens), draw(st.one_of(st.integers(d + 1, 5), st.integers(1, 5))))]
    if draw(st.booleans()):
        cell.append((Ideal(dom, n, [polynomial()]), draw(st.integers(1, 5))))
    if draw(st.booleans()):
        gens = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=2))
        cell.append((Ideal(dom, n, [Polynomial.from_terms(dom, n, [(w, 1)]) for w in gens]),
                     draw(st.integers(1, 5))))
    return cell


@settings(max_examples=300)
@given(strata_cells())
def test_the_strata_route_agrees_with_groebner(cell):
    # The Groebner route sometimes needs thousands of steps; a draw where it
    # runs out of a small budget is not compared.
    try:
        expected = groebner_contact_codim(cell, budget=2000)
    except errors.BudgetExceeded:
        return
    codim = jets._strata_codim(cell, StepBudget(10**6))
    assert codim is None or codim == expected
    assert contact_codim_at_origin(cell) == expected


@settings(max_examples=300)
@given(strata_cells())
def test_the_walk_answers_what_the_box_answers(cell):
    # The walk tests only the faces it meets before it stops, so where the
    # box answers, the walk answers the same and spends no more.  Where the
    # box meets a degenerate face past the stop, the walk may still answer,
    # and then it answers what the Groebner route does.
    walk, box = StepBudget(10**6), StepBudget(10**6)
    codim = jets._strata_codim(cell, walk)
    expected = box_strata_codim(cell, box)
    if expected is not None:
        assert codim == expected and walk.used <= box.used
    elif codim is not None:
        try:
            groebner = groebner_contact_codim(cell, budget=2000)
        except errors.BudgetExceeded:
            return
        assert codim == groebner


@settings(max_examples=300)
@given(strata_cells())
def test_a_stratum_whose_forms_miss_the_torus_scores_no_less_than_the_codim(cell):
    # The face test passes forms with no common zero in the torus, and their
    # empty stratum scores sum(a) plus the needs as if it were smooth.  By
    # Krull's height theorem that score is at least the cell's codim, so
    # the least score stays the codim.
    try:
        codim = groebner_contact_codim(cell, budget=2000)
    except errors.BudgetExceeded:
        return
    dom, misses = cell[0][0].domain, {}
    for score, met in box_strata(cell):
        if met:
            if met not in misses:
                misses[met] = face_misses_torus(dom, face_forms(met), StepBudget(10**6))
            assert score >= codim or not misses[met]


# (field, cell text, N, level, monomial factor and its level or None, the
# walk's codim and steps, the box's answer and steps).  In the first two
# the box meets a degenerate face past the walk's stop, (x1 - x2)^2 at
# orders (1, 1, 2) and (x1 + x3)^2 over F_2 at (1, 3, 1), and falls back
# to Groebner; in the third it tests faces the walk never meets.
WALK_AGAINST_BOX = (
    (QQ, "x3^2 + (x1 - x2)^2", 3, 3, None, 4, 0, None, 3),
    (GF(2), "x1^2 + x3^2 + x2", 3, 3, None, 5, 0, None, 3),
    (QQ, "x1^3*x2 + x1^2*x2^2 + 3*x1*x2*x3", 3, 5, ("x1^4*x2^3*x3^2", 3), 5, 9, 5, 23),
)


@pytest.mark.parametrize("dom, text, n, level, monomial, codim, steps, box, box_steps", WALK_AGAINST_BOX)
def test_the_walk_stops_before_faces_that_cannot_win(dom, text, n, level, monomial, codim, steps, box, box_steps):
    cell = [(I(dom, n, text), level)] + ([(I(dom, n, monomial[0]), monomial[1])] if monomial else [])
    walk, whole = StepBudget(10**6), StepBudget(10**6)
    assert (jets._strata_codim(cell, walk), walk.used) == (codim, steps)
    assert (box_strata_codim(cell, whole), whole.used) == (box, box_steps)
    assert groebner_contact_codim(cell) == codim


def test_the_six_variable_quadric_answers_within_a_zero_budget():
    # At level 10 the best score is 14, and the walk visits the 1 716 order
    # vectors of {1..10}^6 with sum below it, of the 10^6 in the box.  No
    # face needs a Groebner step.
    quadric = I(QQ, 6, "x1^2 + x2^2 + x3^2 + x4^2 + x5^2 + x6^2")
    assert lct_estimate_at_origin(quadric, 10, budget=0) == (Fraction(7, 5), 10)


# Nondegeneracy is decided in the field at hand.  The cubic has a singular
# point in the torus over F_2 and F_7 (a brute-force search finds 18 over
# F_7), and over F_3 x1^3 + x2^3 is (x1 + x2)^3.  Rows are (polynomial, N,
# level, codim, fields where a face is degenerate, fields where none is).
CUBIC = "x1*x2*x3 + x1^3 + x2^3 + x3^3"
FIELD_FACES = (
    (CUBIC, 3, 4, 4, (GF(2), GF(7)), (QQ, GF(5), GF(13))),
    ("x1^3 + x2^3", 2, 4, 3, (GF(3),), (QQ, GF(2), GF(5), GF(7))),
    ("x1^2 + x2^2 + x3^2", 3, 3, 4, (GF(2),), (QQ, GF(3), GF(5))),
)


@pytest.mark.parametrize("text, n, level, codim, degenerate, nondegenerate", FIELD_FACES)
def test_a_degenerate_face_sends_the_cell_to_groebner(
    monkeypatch, text, n, level, codim, degenerate, nondegenerate
):
    expansions = []
    real = jets.jet_equations
    monkeypatch.setattr(jets, "jet_equations", lambda *a, **k: expansions.append(1) or real(*a, **k))
    for dom in degenerate + nondegenerate:
        cell = [(I(dom, n, text), level)]
        expansions.clear()
        assert (jets._strata_codim(cell, StepBudget(10**6)) is None) == (dom in degenerate)
        assert contact_codim_at_origin(cell) == codim
        assert bool(expansions) == (dom in degenerate), dom
        assert groebner_contact_codim(cell) == codim


PAIR = ("x1^2 + x2*x3", "x2^2 + x1*x3")


# (field, level, codim, steps) of the pair.  At orders (1, 1, 1) both of its
# forms are the whole generators.  Over Q and F_5 they meet the torus
# in three lines, x1 = z*x2 with z^3 = 1, along which the Jacobian has full
# rank: a smooth complete intersection.  The face's one test spends 17
# steps, and the walk needs no other face up to L8; the Groebner route runs
# out of the default budget at L6.
PAIR_CELLS = (
    (QQ, 6, 9, 17),
    (QQ, 7, 11, 17),
    (QQ, 8, 12, 17),
    (GF(5), 2, 3, 0),
    (GF(5), 3, 5, 17),
    (GF(5), 4, 6, 17),
    (GF(5), 5, 8, 17),
)


@pytest.mark.parametrize("dom, level, codim, steps", PAIR_CELLS)
def test_faces_that_cut_a_smooth_complete_intersection_take_the_strata_route(monkeypatch, dom, level, codim, steps):
    expansions = []
    real = jets.jet_equations
    monkeypatch.setattr(jets, "jet_equations", lambda *a, **k: expansions.append(1) or real(*a, **k))
    cell = [(I(dom, 3, *PAIR), level)]
    budget = StepBudget(10**6)
    assert contact_codim_at_origin(cell, budget=budget) == codim
    assert budget.used == steps and not expansions
    if level <= 5:
        assert groebner_contact_codim(cell) == codim


# (field, generators, levels, codims).  Over F_3 the pair's three lines are
# one, x1 = x2, where x1^3 = x2^3 has a triple root.  The second
# pair has two different generators with the same initial form x1^2 - x2^2,
# which stay apart, so its Jacobian has rank one; so does the third's, whose
# second generator is twice the first's form with another tail.  The walk
# meets these faces from L3 (the first) and L4 on, and each cell falls back.
FALLBACK_CELLS = (
    (GF(3), PAIR, (3, 4, 5), (5, 6, 7)),
    (QQ, ("x1^2 - x2^2 + x3^3", "x1^2 - x2^2 + x3^5"), (4, 5, 6), (6, 7, 8)),
    (QQ, ("x1^2 - x2^2 + x3^3", "2*x1^2 - 2*x2^2 + x3^4"), (4, 5, 6), (6, 7, 8)),
)


@pytest.mark.parametrize("dom, gens, levels, codims", FALLBACK_CELLS)
def test_faces_that_cut_no_smooth_complete_intersection_fall_back(dom, gens, levels, codims):
    a = I(dom, 3, *gens)
    for level, codim in zip(levels, codims):
        assert jets._strata_codim([(a, level)], StepBudget(10**6)) is None
        assert contact_codim_at_origin([(a, level)]) == codim == groebner_contact_codim([(a, level)])


# (field, initial forms, verdict).  Each face pays for one unit-ideal test,
# whatever its size: the pair over Q and F_3, two forms and three forms
# with no common zero in the torus, which pass, and three forms whose
# Jacobian has rank two.
ONE_TEST_FACES = (
    (QQ, [{(2, 0, 0): 1, (0, 1, 1): 1}], True),
    (QQ, [{(2, 0, 0): 1, (0, 1, 1): 1}, {(0, 2, 0): 1, (1, 0, 1): 1}], True),
    (GF(3), [{(2, 0, 0): 1, (0, 1, 1): 1}, {(0, 2, 0): 1, (1, 0, 1): 1}], None),
    (QQ, [{(2, 0): 1, (0, 2): 1}, {(2, 0): 1, (0, 2): 2}], True),
    (QQ, [{(2, 0, 0): 1, (0, 1, 1): 1}, {(0, 2, 0): 1, (1, 0, 1): 1}, {(0, 0, 2): 1, (1, 1, 0): 1}], True),
    (QQ, [{(1, 0, 0): 1, (0, 1, 0): 1}, {(0, 1, 0): 1, (0, 0, 1): 1}, {(1, 0, 0): 1, (0, 0, 1): -1}], None),
)


@pytest.mark.parametrize("dom, forms, verdict", ONE_TEST_FACES)
def test_a_face_test_makes_one_unit_ideal_call(monkeypatch, dom, forms, verdict):
    calls = []
    real = jets.ideal_dimension
    monkeypatch.setattr(jets, "ideal_dimension", lambda *a, **k: calls.append(1) or real(*a, **k))
    assert jets._face_test(dom, forms, StepBudget(10**6)) is verdict
    assert len(calls) == 1


@pytest.mark.parametrize("dom", [QQ, GF(5)])
def test_a_generator_shared_by_two_factors_counts_once_at_its_larger_level(dom):
    # Counted twice, its two forms would make the Jacobian rank-deficient
    # and send the cell to Groebner; counted at its smaller level, the
    # score would come out too low.
    for cell in ([(I(dom, 3, *PAIR), 3), (I(dom, 3, PAIR[0]), 5)],
                 [(I(dom, 2, "x1^2 + x2^3"), 2), (I(dom, 2, "x1^2 + x2^3"), 6)]):
        codim = jets._strata_codim(cell, StepBudget(10**6))
        assert codim is not None and codim == groebner_contact_codim(cell)


@pytest.mark.parametrize("dom", [QQ, GF(7)])
def test_a_unit_multiple_of_a_generator_counts_once(monkeypatch, dom):
    # Counted apart, the two generators would make the Jacobian of their
    # forms rank-deficient from L7 on and send the cell to Groebner.  The
    # first generator's coefficients are kept, so the principal cell meets
    # the same face memo entries.
    fallbacks = []
    real = jets.groebner_contact_codim
    monkeypatch.setattr(jets, "groebner_contact_codim", lambda *a, **k: fallbacks.append(1) or real(*a, **k))
    for level, codim in zip((6, 7, 8), (5, 6, 7)):
        budget = StepBudget(10**6)
        cell = [(I(dom, 2, "x1^2 + x2^3", "2*x1^2 + 2*x2^3"), level)]
        assert contact_codim_at_origin(cell, budget=budget) == codim and budget.used == 0
        faces = len(jets._face_memo)
        assert contact_codim_at_origin([(I(dom, 2, "x1^2 + x2^3"), level)]) == codim
        assert len(jets._face_memo) == faces
    assert not fallbacks


def test_the_pair_has_lct_three_halves():
    # Its L6 cell ran out of the default budget while it took the Groebner route.
    assert lct_estimate_at_origin(I(QQ, 3, *PAIR), 8) == (Fraction(3, 2), 2)


TWO_BRANCH = "(x1^2 - x2^3)*(x1 - x2^2)"


# (polynomial, N, level, codim, steps): cells the Groebner route spends
# thousands of steps on (the two-branch curve at L9 took 45 191) and the
# strata route answers in a handful.  At L10 the face
# x1^3 - x1*x2^3 is tested by a Groebner basis; every other face is cut.
STRATA_CELLS = (
    (TWO_BRANCH, 2, 8, 5, 0),
    (TWO_BRANCH, 2, 9, 5, 0),
    (TWO_BRANCH, 2, 10, 6, 7),
    ("x1^2 + x2^2 + x3^2", 3, 7, 8, 0),
)


@pytest.mark.parametrize("text, n, level, codim, steps", STRATA_CELLS)
@pytest.mark.parametrize("dom", [QQ, GF(7)])
def test_deep_cells_take_the_strata_route(dom, text, n, level, codim, steps):
    budget = StepBudget(10**6)
    assert contact_codim_at_origin([(I(dom, n, text), level)], budget=budget) == codim
    assert budget.used == steps


def test_the_two_branch_curve_has_lct_five_ninths():
    assert lct_estimate_at_origin(I(QQ, 2, TWO_BRANCH), 10) == (Fraction(5, 9), 9)


def test_contact_codim_monotone_in_level():
    a = I(QQ, 2, "x1^2 + x2^3")
    values = [contact_codim_at_origin([(a, m)]) for m in range(1, 5)]
    assert values == sorted(values)


# -- estimators ----------------------------------------------------------------------------


def test_mld_trivial_product_is_ambient_dimension():
    value, mvec = mld_estimate(MultiIdeal([]), 3, nvars=2)
    assert value == 2 and mvec == ()


def test_mld_maximal_ideal_unit_exponent():
    ma = MultiIdeal([(coordinate_ideal(QQ, 2), 1)])
    value, mvec = mld_estimate(ma, 3)
    assert value == 1 and mvec == (1,)


def test_mld_goes_negative_for_large_exponent():
    # codim of the level-m contact locus is 2m, so the objective 2m - 3m
    # keeps dropping and the bound bottoms out at the cap.
    ma = MultiIdeal([(coordinate_ideal(QQ, 2), 3)])
    value, mvec = mld_estimate(ma, 3)
    assert value == -3 and mvec == (3,)


def test_mld_monotone_in_cap():
    ma = MultiIdeal([(I(QQ, 2, "x1^2", "x2^3"), Fraction(5, 6))])
    values = [mld_estimate(ma, cap)[0] for cap in range(1, 7)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_lct_maximal_ideal():
    value, level = lct_estimate_at_origin(coordinate_ideal(QQ, 2), 3)
    assert value == 2 and level == 1


def test_lct_cusp_monomial_pair():
    value, level = lct_estimate_at_origin(I(QQ, 2, "x1^2", "x2^3"), 6)
    assert value == Fraction(5, 6) and level == 6


def test_lct_requires_origin():
    with pytest.raises(errors.IdealNotAtOrigin):
        lct_estimate_at_origin(I(QQ, 2, "x1 + 1"), 3)


def test_lct_monotone_in_cap():
    a = I(QQ, 2, "x1^2 + x2^3")
    values = [lct_estimate_at_origin(a, cap)[0] for cap in range(1, 7)]
    assert all(x >= y for x, y in zip(values, values[1:]))


# -- heights ---------------------------------------------------------------------------------


def test_height_examples():
    assert height_of_ideal(coordinate_ideal(GF(5), 2)) == 2
    assert height_of_ideal(I(QQ, 2, "x1 + x2")) == 1


def test_compare_heights_on_canonical_lifts():
    assert compare_heights(I(GF(5), 2, "x2", "x1")) == (2, 2)
    assert compare_heights(I(GF(5), 2, "x1 + x2")) == (1, 1)
    assert compare_heights(I(GF(7), 2, "2*x1 + x2", "x1^2")) == (2, 2)


# -- per-process memos -------------------------------------------------------------------


def counting_groebner(monkeypatch):
    calls = []
    real = jets.groebner_basis

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(jets, "groebner_basis", counted)
    return calls


# Over F_3 the pair's face is degenerate, so the cell spends 5 steps on its
# face test and 40 more in Groebner; a principal nondegenerate cell such as
# the cusp's spends none.
SPENDING_CELL = [(I(GF(3), 3, *PAIR), 4)]


def test_a_memoised_cell_spends_the_steps_it_cost(monkeypatch):
    calls = counting_groebner(monkeypatch)
    factors = SPENDING_CELL
    cold, warm = StepBudget(10**6), StepBudget(10**6)
    codim = contact_codim_at_origin(factors, budget=cold)
    cold_calls = len(calls)
    assert contact_codim_at_origin(factors, budget=warm) == codim
    assert warm.used == cold.used == 45
    assert len(calls) == cold_calls  # the warm call was served by the memo


def test_a_memoised_cell_still_runs_out_of_a_smaller_budget():
    factors = SPENDING_CELL
    cold = StepBudget(10**6)
    contact_codim_at_origin(factors, budget=cold)
    small = StepBudget(cold.used - 1)
    with pytest.raises(errors.BudgetExceeded, match=f"budget of {cold.used - 1} exhausted"):
        contact_codim_at_origin(factors, budget=small)
    assert small.used == cold.used


def test_a_cell_that_runs_out_is_not_stored():
    factors = SPENDING_CELL
    with pytest.raises(errors.BudgetExceeded, match="budget of 10 exhausted"):
        contact_codim_at_origin(factors, budget=10)
    assert not jets._cell_memo
    budget = StepBudget(10**6)
    contact_codim_at_origin(factors, budget=budget)
    assert budget.used > 10


def test_a_memoised_strata_cell_runs_no_groebner_and_the_oracle_agrees(monkeypatch):
    calls = counting_groebner(monkeypatch)
    factors = [(I(GF(5), 2, "x1*x2"), 3)]  # its jets hold no power of a coordinate
    fast = contact_codim_at_origin(factors)
    assert contact_codim_at_origin(factors) == fast
    assert list(jets._cell_memo) == [tuple(factors)]
    assert calls == []
    assert groebner_contact_codim(factors) == fast
    assert len(calls) == 1


def test_a_face_verdict_is_kept_across_cells_and_spends_its_steps(monkeypatch):
    calls = counting_groebner(monkeypatch)
    a = I(QQ, 3, *PAIR)
    cold, warm = StepBudget(10**6), StepBudget(10**6)
    assert contact_codim_at_origin([(a, 3)], budget=cold) == 5
    cold_calls = len(calls)
    assert contact_codim_at_origin([(a, 4)], budget=warm) == 6
    assert cold.used == warm.used == 17
    assert len(jets._face_memo) == 1 and len(calls) == cold_calls


def test_a_face_test_that_runs_out_is_not_stored():
    a = I(QQ, 3, *PAIR)
    with pytest.raises(errors.BudgetExceeded, match="budget of 10 exhausted"):
        contact_codim_at_origin([(a, 3)], budget=10)
    assert not jets._face_memo and not jets._cell_memo
    budget = StepBudget(10**6)
    assert contact_codim_at_origin([(a, 3)], budget=budget) == 5
    assert budget.used == 17


def test_the_face_memo_drops_its_oldest_entry_when_full(monkeypatch):
    monkeypatch.setattr(jets, "_MEMO_SIZE", 2)
    for c in (1, 2, 3):
        contact_codim_at_origin([(I(QQ, 2, f"x1^2 + {c}*x2^2"), 3)])
    assert [forms for _, forms in jets._face_memo] == [
        (frozenset({((2, 0), 1), ((0, 2), c)}),) for c in (2, 3)
    ]


def test_a_memo_drops_its_oldest_entry_when_full(monkeypatch):
    monkeypatch.setattr(jets, "_MEMO_SIZE", 2)
    a = I(QQ, 2, "x1^2 + x2^3")
    for m in range(1, 4):
        contact_codim_at_origin([(a, m)])
    assert list(jets._cell_memo) == [((a, 2),), ((a, 3),)]


# Over F_3, x1^3 + x2^3 is (x1 + x2)^3, so its cells from depth 4 on expand
# their jets and run Groebner.
MEMO_SESSION = """\
ring N=2 p=3
ideal d: x1^3 + x2^3
ideal m: x1, x2
lct d
mld d:2/3
notlc d:1
crosschar d:1
mld d:1/2 m:1/2
"""


def test_memoised_results_equal_fresh_ones_after_a_session():
    run(parse_script(MEMO_SESSION), cap=4)
    cells = dict(jets._cell_memo)
    assert cells
    jets._cell_memo.clear()
    for factors, (codim, steps) in cells.items():
        budget = StepBudget(10**6)
        assert contact_codim_at_origin(factors, budget=budget) == codim
        assert budget.used == steps
