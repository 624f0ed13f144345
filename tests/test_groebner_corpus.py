"""Differential corpus for the Groebner engine.

The reduced grevlex bases below were recorded from the engine's basis,
interreduced by ``oracles.reduced_basis`` on the same step budget, and are
checked against sympy's: the reduced basis is unique for the ideal and the
order, so every engine must reproduce them exactly.  ``Polynomial.text``
prints terms in grlex order, so the term an element is monic at is not
always printed first.  The contact codims were recorded from earlier
engines.

Step counts depend on the engine: a step is one pair taken from the queue
and reduced, or one reduction step, and pairs that the Gebauer-Moeller
criteria drop cost nothing.
"""

from __future__ import annotations

import pytest

from towerval import errors
from towerval.jets import (
    DEFAULT_GB_BUDGET,
    StepBudget,
    _contact_generators,
    _min_hitting_set_size,
    _minimal_supports,
    contact_codim_at_origin,
    groebner_basis,
    groebner_contact_codim,
    ideal_dimension,
)
from towerval.polyring import GF, QQ, Ideal, parse_polynomial

from oracles import dimension_by_groebner, reduced_basis, sympy_groebner

# (p, nvars, generators, reduced grevlex basis, StepBudget.used); p = 0 is Q.
# The last four are contact systems of jet ideals at the origin:
# x1^2 + x2^3 at L5 over Q, x1^3 + x2^2 at L5 over F_3, x1*x2 + x3^2 at L4
# over F_5, and (x1^2 + x2*x3, x2^2 + x1*x3) at L3 over Q.
CORPUS = (
    (0, 2, ("x1^2", "x1*x2 + x2^2"), ("x1*x2 + x2^2", "x1^2", "x2^3"), 4),
    (0, 2, ("x1^2 + x2", "x1*x2 + x1"), ("x2^2 + x2", "x1*x2 + x1", "x1^2 + x2"), 3),
    (0, 2, ("x1^3 - 2*x1*x2", "x1^2*x2 - 2*x2^2 + x1"), ("x2^2 - 1/2*x1", "x1*x2", "x1^2"), 6),
    (
        0, 3, ("x1 + x2 + x3", "x1*x2 + x2*x3 + x1*x3", "x1*x2*x3"),
        ("x1 + x2 + x3", "x2^2 + x2*x3 + x3^2", "x3^3"), 4,
    ),
    (0, 3, ("x1^2 + x2*x3", "x2^2 + x1*x3"), ("x1*x3 + x2^2", "x1^2 + x2*x3"), 0),
    (0, 2, ("x1 + 1", "x1"), ("1",), 1),
    (
        5, 2, ("x1^2 + x2^3", "x1*x2 + 2*x2^2"),
        ("x1*x2 + 2*x2^2", "x2^3 + x1^2", "x1^3 + 2*x1^2"), 12,
    ),
    (
        7, 3, ("x1*x2 - x3^2", "x2*x3 - x1^2", "x1*x3 - x2^2"),
        ("6*x1*x3 + x2^2", "x1*x2 + 6*x3^2", "x1^2 + 6*x2*x3"), 4,
    ),
    (
        2, 3, ("x1^2 + x2^2 + x3^2", "x1*x2 + x3"),
        ("x1*x2 + x3", "x1^2 + x2^2 + x3^2", "x2^3 + x2*x3^2 + x1*x3"), 4,
    ),
    (
        5, 3, ("x1*x2 + x3^2", "x1^2 - x2^2 + 3*x3"),
        ("x1*x2 + x3^2", "x1^2 + 4*x2^2 + 3*x3", "x1*x3^2 + x2^3 + 2*x2*x3"), 4,
    ),
    (
        0, 10, ("x1", "x6", "x2^2", "x7^3 + 2*x2*x3", "3*x7^2*x8 + 2*x2*x4 + x3^2"),
        (
            "x6", "x1", "x2^2", "x7^2*x8 + 2/3*x2*x4 + 1/3*x3^2", "x7^3 + 2*x2*x3",
            "-6*x2*x3*x8 + 2*x2*x4*x7 + x3^2*x7",
            "x2*x3*x7*x8^2 + 2/9*x2*x3^2*x4 + 1/18*x3^4", "4*x2*x3^3*x4 + x3^5", "x2*x3^4",
        ),
        27,
    ),
    (
        3, 10, ("x1", "x6", "x7^2", "x2^3 + 2*x7*x8", "2*x7*x9 + x8^2"),
        ("x6", "x1", "2*x7*x9 + x8^2", "x7^2", "x2^3 + 2*x7*x8"), 0,
    ),
    (
        5, 12, ("x1", "x5", "x9", "x2*x6 + x10^2", "x2*x7 + x3*x6 + 2*x10*x11"),
        (
            "x9", "x5", "x1", "x2*x7 + x3*x6 + 2*x10*x11", "x2*x6 + x10^2",
            "x2^2*x7 + 2*x2*x10*x11 + 4*x3*x10^2",
        ),
        4,
    ),
    (
        0, 9, ("x1", "x4", "x7", "x2^2 + x5*x8", "x2*x8 + x5^2"),
        ("x7", "x4", "x1", "x2*x8 + x5^2", "x2^2 + x5*x8"), 0,
    ),
)

# (generators over Q, ambient N, level, codim at the origin): every
# contact-ladder cell of the benchmark plus two harder ones, recorded from
# the earlier engine, then two cells too slow for it to run in a test, then
# one that the engine before the pair criteria could not finish within
# DEFAULT_GB_BUDGET.
CELLS = (
    (("x1^2 + x2^3",), 2, 4, 4),
    (("x1^2 + x2^3",), 2, 5, 5),
    (("x1^2 + x2^3",), 2, 6, 5),
    (("x1*x2 + x3^2",), 3, 4, 5),
    (("x1*x2 + x3^2",), 3, 5, 6),
    (("x1*x2 + x3^2",), 3, 6, 7),
    (("x1^2 + x2^5",), 2, 5, 4),
    (("x1^2 + x2^5",), 2, 6, 5),
    (("x1^3 + x2^3",), 2, 5, 4),
    (("x1^3 + x2^3",), 2, 6, 4),
    (("x1^2 + x2^2 + x3^2",), 3, 3, 4),
    (("x1^2 + x2^2 + x3^2",), 3, 4, 5),
    (("x1^2 + x2*x3", "x2^2 + x1*x3"), 3, 3, 5),
    (("x1^2 + x2*x3", "x2^2 + x1*x3"), 3, 4, 6),
    (("x1^2 + x2^3",), 2, 7, 6),
    (("x1^2 + x2^2 + x3^2",), 3, 5, 6),
    (("x1^2 + x2^3 + x3^4",), 3, 6, 7),
)


def _gens(p, n, texts):
    dom = GF(p) if p else QQ
    return [parse_polynomial(t, dom, n) for t in texts]


def _ideal(texts, n):
    return Ideal(QQ, n, _gens(0, n, texts))


@pytest.mark.parametrize("p, n, gens, basis, steps", CORPUS)
def test_grevlex_basis_and_steps_are_pinned(p, n, gens, basis, steps):
    budget = StepBudget(10**6)
    gb = reduced_basis(groebner_basis(_gens(p, n, gens), budget=budget), budget)
    assert tuple(g.text() for g in gb) == basis
    assert budget.used == steps
    assert set(_gens(p, n, basis)) == set(sympy_groebner(_gens(p, n, gens), "grevlex").values())


@pytest.mark.parametrize("p, n, gens", [c[:3] for c in CORPUS])
def test_dimension_does_not_depend_on_the_order(p, n, gens):
    # The leading monomials of sympy's grlex basis, counted the way
    # ideal_dimension counts those of the engine's grevlex basis.
    lms = list(sympy_groebner(_gens(p, n, gens), "grlex"))
    if lms == [(0,) * n]:
        with pytest.raises(errors.UnitIdeal):
            ideal_dimension(_gens(p, n, gens))
    else:
        expected = n - _min_hitting_set_size(_minimal_supports(lms))
        assert ideal_dimension(_gens(p, n, gens)) == expected


@pytest.mark.parametrize("gens, n, level, codim", CELLS)
def test_contact_codims_match_the_recorded_engine(gens, n, level, codim):
    assert contact_codim_at_origin([(_ideal(gens, n), level)]) == codim


# The dimension path's step counts pin the grevlex engine's work: losing the
# gain (grlex in the dimension path, a dropped pair criterion, a coordinate
# left uncut) moves them, and so does any change to the Groebner input of a
# contact cell.  Rows are (generators, N, level, steps before the pair
# criteria and before the x_l^(0) left the contact ideal, steps while the
# dimension path still interreduced its basis, steps of the pair loop on
# the uncut cell, steps now that the dimension path cuts every coordinate
# a generator is a power of, steps of the default route); the first two
# were pinned first, the rest cover every other cell of CELLS.  The Groebner
# counts are taken with ``groebner_contact_codim``.  The last column is the strata
# route's: the cut answers the face test of every principal cell at no
# step, and the pair's one face, the whole pair at orders (1, 1, 1), spends
# 17 on its one unit-ideal test at L3 and L4 alike, where the L4 cell spent
# 70 in Groebner and the L3 cell 0.  The middle two counts differ by the
# interreduction steps alone (test_only_interreduction_left_the_dimension_path).
DIMENSION_STEPS = (
    (("x1^3 + x2^3",), 2, 6, 113, 32, 32, 32, 0),
    (("x1^2 + x2*x3", "x2^2 + x1*x3"), 3, 4, 178, 71, 70, 70, 17),
    (("x1^2 + x2^3",), 2, 4, 6, 0, 0, 0, 0),
    (("x1^2 + x2^3",), 2, 5, 60, 27, 27, 0, 0),
    (("x1^2 + x2^3",), 2, 6, 724, 220, 218, 0, 0),
    (("x1*x2 + x3^2",), 3, 4, 17, 4, 4, 4, 0),
    (("x1*x2 + x3^2",), 3, 5, 84, 34, 34, 34, 0),
    (("x1*x2 + x3^2",), 3, 6, 603, 189, 189, 189, 0),
    (("x1^2 + x2^5",), 2, 5, 11, 3, 3, 0, 0),
    (("x1^2 + x2^5",), 2, 6, 16, 3, 3, 0, 0),
    (("x1^3 + x2^3",), 2, 5, 11, 3, 3, 3, 0),
    (("x1^2 + x2^2 + x3^2",), 3, 3, 6, 0, 0, 0, 0),
    (("x1^2 + x2^2 + x3^2",), 3, 4, 18, 5, 5, 5, 0),
    (("x1^2 + x2*x3", "x2^2 + x1*x3"), 3, 3, 10, 0, 0, 0, 17),
    (("x1^2 + x2^3",), 2, 7, 5663, 1235, 1231, 0, 0),
    (("x1^2 + x2^2 + x3^2",), 3, 5, 44, 21, 21, 21, 0),
    (("x1^2 + x2^3 + x3^4",), 3, 6, 273357, 10922, 10920, 12, 0),
)


def test_every_contact_cell_has_a_step_pin():
    pinned = sorted(pin[:3] for pin in DIMENSION_STEPS)
    assert pinned == sorted(cell[:3] for cell in CELLS)


@pytest.mark.parametrize("gens, n, level, before", [pin[:4] for pin in DIMENSION_STEPS])
def test_dimension_path_step_counts_are_pinned(gens, n, level, before):
    budget = StepBudget(10**6)
    groebner_contact_codim([(_ideal(gens, n), level)], budget=budget)
    assert budget.used == {pin[:4]: pin[6] for pin in DIMENSION_STEPS}[gens, n, level, before]
    assert budget.used < before


@pytest.mark.parametrize("gens, n, level, strata", [pin[:3] + pin[7:] for pin in DIMENSION_STEPS])
def test_strata_route_step_counts_are_pinned(gens, n, level, strata):
    budget = StepBudget(10**6)
    codim = contact_codim_at_origin([(_ideal(gens, n), level)], budget=budget)
    assert codim == {cell[:3]: cell[3] for cell in CELLS}[gens, n, level]
    assert budget.used == strata


@pytest.mark.parametrize("gens, n, level, before", [pin[:4] for pin in DIMENSION_STEPS])
def test_only_interreduction_left_the_dimension_path(gens, n, level, before):
    # The dimension path stopped interreducing its basis and nothing else:
    # each row's drop is exactly the steps reduced_basis spends on the cell.
    _, _, _, _, interreduced, now, *_ = {pin[:4]: pin for pin in DIMENSION_STEPS}[gens, n, level, before]
    cell = _contact_generators([(_ideal(gens, n), level)])
    full, loop_only = StepBudget(10**6), StepBudget(10**6)
    reduced_basis(groebner_basis(cell, full), full)
    groebner_basis(cell, loop_only)
    assert interreduced - now == full.used - loop_only.used
    assert now == loop_only.used


# The mixed cells of the session's `mld d:1/2 m:1/2` over F_7, for
# d = x1^3 + x2^3 and the maximal ideal m: rows are (m1, m2, codim, steps
# of the pair loop on the uncut cell, steps of the Groebner route alone,
# steps of the default route).  Every jet of m is a bare coordinate, so the
# cut leaves only (5, 1) any Groebner work.  d is nondegenerate over F_7 and
# m is monomial, so the strata route serves every cell at no step.
MIXED_STEPS = (
    (4, 2, 4, 2, 0, 0),
    (4, 3, 6, 2, 0, 0),
    (4, 4, 8, 2, 0, 0),
    (4, 5, 10, 2, 0, 0),
    (5, 1, 4, 3, 3, 0),
    (5, 2, 4, 4, 0, 0),
    (5, 3, 6, 4, 0, 0),
    (5, 4, 8, 4, 0, 0),
    (5, 5, 10, 4, 0, 0),
)


@pytest.mark.parametrize("m1, m2, codim, uncut, now", [row[:5] for row in MIXED_STEPS])
def test_mixed_session_cells_are_pinned(m1, m2, codim, uncut, now):
    strata = {row[:5]: row[5] for row in MIXED_STEPS}[m1, m2, codim, uncut, now]
    dom = GF(7)
    factors = [
        (Ideal(dom, 2, _gens(7, 2, ("x1^3 + x2^3",))), m1),
        (Ideal(dom, 2, _gens(7, 2, ("x1", "x2"))), m2),
    ]
    budget, groebner, loop_only = StepBudget(10**6), StepBudget(10**6), StepBudget(10**6)
    assert groebner_contact_codim(factors, budget=groebner) == codim
    assert groebner.used == now
    assert contact_codim_at_origin(factors, budget=budget) == codim
    assert budget.used == strata
    dim = dimension_by_groebner(_contact_generators(factors), loop_only)
    assert 2 * max(m1, m2) - dim == codim and loop_only.used == uncut


# Cells the uncut path could not finish in a test, or at all, within
# DEFAULT_GB_BUDGET: x1^2 + x2^3 at L8 took 40 202 steps and L9 ran out, and
# x1^2 + x2^3 + x3^4 at L7 ran out.  Rows are (generators, N, level, codim,
# steps of the Groebner route alone, steps of the default route); both
# codims past L7 match the Newton-polygon closed form, which the strata
# route computes at no step.
DEEP_CELLS = (
    (("x1^2 + x2^3",), 2, 8, 7, 9, 0),
    (("x1^2 + x2^3",), 2, 9, 8, 180, 0),
    (("x1^2 + x2^3 + x3^4",), 3, 6, 7, 12, 0),
    (("x1^2 + x2^3 + x3^4",), 3, 7, 8, 125, 0),
)


@pytest.mark.parametrize("gens, n, level, codim, steps", [cell[:5] for cell in DEEP_CELLS])
def test_deep_cells_finish_within_the_default_budget(gens, n, level, codim, steps):
    strata = {cell[:5]: cell[5] for cell in DEEP_CELLS}[gens, n, level, codim, steps]
    for route, spent in ((groebner_contact_codim, steps), (contact_codim_at_origin, strata)):
        budget = StepBudget(DEFAULT_GB_BUDGET)
        cell = [(_ideal(gens, n), level)]
        assert route(cell, budget=budget) == codim
        assert budget.used == spent
