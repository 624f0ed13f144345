from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
import sympy

from towerval import errors, jets
from towerval.cli import parse_script, run
from towerval.jets import (
    GRLEX,
    StepBudget,
    compare_heights,
    contact_codim_at_origin,
    groebner_basis,
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

from oracles import verify_groebner


def P(text, domain, nvars=2):
    return parse_polynomial(text, domain, nvars)


def I(domain, nvars, *texts):
    return Ideal(domain, nvars, [parse_polynomial(t, domain, nvars) for t in texts])


# -- sympy bridge (test oracle only) -------------------------------------------


def to_sympy(f, syms):
    expr = sympy.Integer(0)
    for m, c in f.terms.items():
        if isinstance(c, Fraction):
            term = sympy.Rational(c.numerator, c.denominator)
        else:
            term = sympy.Integer(c)
        for s, e in zip(syms, m):
            term *= s**e
        expr += term
    return expr


def from_sympy(expr, syms, domain):
    poly = sympy.Poly(expr, *syms)
    items = []
    for exps, c in poly.terms():
        c = int(c) if domain.p else Fraction(sympy.Rational(c))
        items.append((tuple(int(e) for e in exps), c))
    return Polynomial.from_terms(domain, len(syms), items)


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


# -- Groebner engine ---------------------------------------------------------------


def test_monomial_generators_are_their_own_basis():
    gb = groebner_basis(list(coordinate_ideal(QQ, 2).gens))
    assert [g.text() for g in gb] == ["x2", "x1"]


def test_basis_contains_hidden_element():
    gb = groebner_basis([P("x1^2", QQ), P("x1*x2 + x2^2", QQ)])
    assert P("x2^3", QQ) in gb
    assert verify_groebner(gb, [P("x1^2", QQ), P("x1*x2 + x2^2", QQ)])


def test_reduction_produces_reduced_basis():
    gb = groebner_basis([P("x1 - x2", QQ), P("x2", QQ)])
    assert [g.text() for g in gb] == ["x2", "x1"]


def test_normal_form_is_zero_exactly_on_members():
    basis = groebner_basis([P("x1^2 - x2", QQ)])
    budget = StepBudget(1000)
    member = P("x1^4 - 2*x1^2*x2 + x2^2", QQ)  # (x1^2 - x2)^2
    assert normal_form(member, basis, budget).is_zero()
    assert not normal_form(P("x1^2", QQ), basis, budget).is_zero()


def test_budget_exceeded_is_raised():
    with pytest.raises(errors.BudgetExceeded):
        groebner_basis([P("x1^2 + x2", QQ), P("x1*x2 + x1", QQ)], budget=1)


def test_negative_step_budget_is_refused():
    with pytest.raises(ValueError, match="-1"):
        StepBudget(-1)


def test_groebner_matches_sympy_over_q_and_gf():
    rng = random.Random(422)
    syms = sympy.symbols("x y z")
    for trial in range(40):
        domain = QQ if trial % 2 == 0 else GF(5)
        nv = rng.choice([2, 3])
        gens = []
        for _ in range(rng.randint(2, 3)):
            items = [
                (
                    tuple(rng.randint(0, 2) for _ in range(nv)),
                    rng.randint(-4, 4) if domain == QQ else rng.randint(0, 4),
                )
                for _ in range(rng.randint(1, 3))
            ]
            g = Polynomial.from_terms(domain, nv, items)
            if not g.is_zero():
                gens.append(g)
        if not gens:
            continue
        mine = groebner_basis(gens, budget=200_000)
        kwargs = {"order": "grlex"}
        if domain.p:
            kwargs["modulus"] = domain.p
        theirs = sympy.groebner([to_sympy(g, syms[:nv]) for g in gens], *syms[:nv], **kwargs)
        theirs_polys = {from_sympy(e, syms[:nv], domain).monic() for e in theirs.exprs}
        if theirs_polys == {Polynomial.constant(domain, nv, 1)}:
            assert [g.text() for g in mine] == ["1"]
        else:
            assert set(mine) == theirs_polys


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
            [(coordinate_ideal(domain, 2), 1), (I(domain, 2, "x1"), 2)],
            [(I(domain, 3, "x1^2", "x2*x3"), 2)],
        ]
        for factors in samples:
            fast = monomial_contact_codim(factors)
            slow = contact_codim_at_origin(factors, force_groebner=True)
            assert fast == slow, (domain, factors)


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
    assert height_of_ideal([P("x1 + x2", QQ)]) == 1


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


def test_a_memoised_cell_spends_the_steps_it_cost(monkeypatch):
    calls = counting_groebner(monkeypatch)
    factors = [(I(QQ, 2, "x1^2 + x2^3"), 5)]
    cold, warm = StepBudget(10**6), StepBudget(10**6)
    codim = contact_codim_at_origin(factors, budget=cold)
    assert contact_codim_at_origin(factors, budget=warm) == codim
    assert warm.used == cold.used > 0
    assert len(calls) == 1  # the warm call was served by the memo


def test_a_memoised_cell_still_runs_out_of_a_smaller_budget():
    factors = [(I(QQ, 2, "x1^2 + x2^3"), 5)]
    cold = StepBudget(10**6)
    contact_codim_at_origin(factors, budget=cold)
    small = StepBudget(cold.used - 1)
    with pytest.raises(errors.BudgetExceeded, match=f"budget of {cold.used - 1} exhausted"):
        contact_codim_at_origin(factors, budget=small)
    assert small.used == cold.used


def test_a_cell_that_runs_out_is_not_stored():
    factors = [(I(QQ, 2, "x1^2 + x2^3"), 5)]
    with pytest.raises(errors.BudgetExceeded, match="budget of 10 exhausted"):
        contact_codim_at_origin(factors, budget=10)
    assert not jets._cell_memo
    budget = StepBudget(10**6)
    contact_codim_at_origin(factors, budget=budget)
    assert budget.used > 10


def test_the_route_is_part_of_a_cells_key(monkeypatch):
    calls = counting_groebner(monkeypatch)
    factors = [(I(GF(5), 2, "x1^2", "x2^3"), 3)]
    fast = contact_codim_at_origin(factors)
    assert calls == []
    assert contact_codim_at_origin(factors, force_groebner=True) == fast
    assert len(calls) == 1


def test_a_memo_drops_its_oldest_entry_when_full(monkeypatch):
    monkeypatch.setattr(jets, "_MEMO_SIZE", 2)
    a = I(QQ, 2, "x1^2 + x2^3")
    for m in range(3):
        jet_equations(a, m)
    assert list(jets._jet_memo) == [(a, 1, False), (a, 2, False)]


MEMO_SESSION = """\
ring N=2 p=7
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
    assert jets._jet_memo and jets._cell_memo
    # no caller mutated a polynomial of a shared jet system
    for (a, m, at_origin), system in jets._jet_memo.items():
        assert system == jets._expand(a, m, at_origin)
    cells = dict(jets._cell_memo)
    jets._jet_memo.clear()
    jets._cell_memo.clear()
    for (factors, forced), (codim, steps) in cells.items():
        budget = StepBudget(10**6)
        assert contact_codim_at_origin(factors, budget=budget, force_groebner=forced) == codim
        assert budget.used == steps
