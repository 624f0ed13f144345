"""Differential corpus and a skip-rule property for the depth-grid estimators.

The expected strings below were recorded from the estimators as they were
before ``lct``, ``mld``, ``notlc`` and ``crosschar`` became folds over one
cell generator (``jets.contact_cells``).  Every estimate is determined by
its inputs, so the folds must reproduce each value, each minimizing depth
vector (ties included), each budget note and each refusal.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from towerval import errors
from towerval.bridge import cross_characteristic_suite
from towerval.invariants import certify_not_log_canonical
from towerval.jets import contact_codim_at_origin, groebner_contact_codim, lct_estimate_at_origin, mld_estimate
from towerval.polyring import GF, QQ, Ideal, MultiIdeal, Polynomial, parse_polynomial

DOMAINS = {"Q": QQ, "F2": GF(2), "F3": GF(3), "F5": GF(5), "F7": GF(7)}
PRIMES = ("F2", "F3", "F5", "F7")

CUSP = ("x1^2 + x2^3",)
NODE = ("x1*x2",)
MAX = ("x1", "x2")
SQUARE = ("x1^2 + x2^2",)
MONO = ("x1^2", "x2^3")
# Over F_3 this is (x1 + x2)^3, which is degenerate: from depth 4 on each
# cell spends 3 steps on its face test and then falls back to Groebner, where
# the cusp's cells spend none.  The budget rows run out on it.
FERMAT = ("x1^3 + x2^3",)
# The cusp after a linear change: its face (x1 + x2)^2 is degenerate in
# every characteristic, so from depth 3 on both sides fall back to
# Groebner.  Over F_3 the cells at depths 5 and 6 spend 3 and 23 steps, and
# their lifts 278 and more than 3 000.
SHIFTED_CUSP = ("(x1 + x2)^2 + x2^3",)
OFF = ("x1 + 1",)  # misses the origin


def _ideal(dom, n, texts):
    return Ideal(dom, n, [parse_polynomial(t, dom, n) for t in texts])


def _multi(dom, n, factors):
    return MultiIdeal([(_ideal(dom, n, texts), e) for texts, e in factors])


def _fmt_cells(rep):
    cells = ";".join(f"{c.mvec}:{c.codim_p}:{c.codim_q}:{c.note}" for c in rep.cells)
    return f"{cells}|mld={rep.mld_p},{rep.mld_q}|lct={rep.lct_p},{rep.lct_q}"


def evaluate(kind, dom_label, n, factors, cap, budget):
    """One estimator run, rendered as a string; a refusal renders as its class."""
    dom = DOMAINS[dom_label]
    try:
        if kind == "lct":
            value, m = lct_estimate_at_origin(_ideal(dom, n, factors[0][0]), cap, budget=budget)
            return f"{value} {m}"
        if kind == "mld":
            value, mvec = mld_estimate(_multi(dom, n, factors), cap, budget=budget, nvars=n)
            return f"{value} {mvec}"
        if kind == "notlc":
            cert = certify_not_log_canonical(_multi(dom, n, factors), cap, budget=budget)
            return "none" if cert is None else f"{cert.mvec} {cert.codim} {cert.value}"
        if kind == "crosschar":
            rep = cross_characteristic_suite(_multi(dom, n, factors), cap, budget=budget)
            return _fmt_cells(rep)
    except (errors.TowervalError, ValueError) as e:
        return type(e).__name__
    raise AssertionError(kind)


B = 100_000
CASES = {
    # lct: single factor; node and maximal ideal tie from depth 2 on
    **{f"lct-cusp-{d}": ("lct", d, 2, [(CUSP, 1)], 4, B) for d in DOMAINS},
    **{f"lct-node-{d}": ("lct", d, 2, [(NODE, 1)], 3, B) for d in DOMAINS},
    **{f"lct-square-{d}": ("lct", d, 2, [(SQUARE, 1)], 4, B) for d in DOMAINS},
    "lct-max-Q": ("lct", "Q", 2, [(MAX, 1)], 3, B),
    "lct-mono-F3": ("lct", "F3", 2, [(MONO, 1)], 3, B),
    "lct-off-F5": ("lct", "F5", 2, [(OFF, 1)], 3, B),
    "lct-cap0-Q": ("lct", "Q", 2, [(CUSP, 1)], 0, B),
    "lct-budget-F3": ("lct", "F3", 2, [(FERMAT, 1)], 5, 2),
    "lct-budget-cusp-Q": ("lct", "Q", 2, [(CUSP, 1)], 5, 3),
    "lct-three-vars-F2": ("lct", "F2", 3, [(("x1^2 + x2^2 + x3^2",), 1)], 3, B),
    # mld: one and two factors, ties, cap 0, factors off the origin
    **{f"mld-cusp-{d}": ("mld", d, 2, [(CUSP, 1)], 3, B) for d in DOMAINS},
    **{f"mld-pair-{d}": ("mld", d, 2, [(CUSP, "1/2"), (NODE, "1/3")], 2, B) for d in DOMAINS},
    "mld-max-tie-Q": ("mld", "Q", 2, [(MAX, 2)], 3, B),
    "mld-twin-tie-F3": ("mld", "F3", 2, [(NODE, 1), (NODE, 1)], 2, B),
    "mld-twin-tie-Q": ("mld", "Q", 2, [(MAX, 1), (MAX, 1)], 2, B),
    "mld-cap0-Q": ("mld", "Q", 2, [(CUSP, 1)], 0, B),
    "mld-cap0-pair-F7": ("mld", "F7", 2, [(CUSP, 1), (NODE, 2)], 0, B),
    "mld-empty-F5": ("mld", "F5", 2, [], 2, B),
    "mld-off-F5": ("mld", "F5", 2, [(OFF, 1), (CUSP, 1)], 2, B),
    "mld-off-alone-Q": ("mld", "Q", 2, [(OFF, 1)], 3, B),
    "mld-square-F2": ("mld", "F2", 2, [(SQUARE, 1)], 4, B),
    "mld-mono-F7": ("mld", "F7", 2, [(MONO, "3/2")], 3, B),
    "mld-budget-F3": ("mld", "F3", 2, [(FERMAT, 1)], 5, 1),
    "mld-budget-cusp-Q": ("mld", "Q", 2, [(CUSP, 1)], 5, 1),
    "mld-budget-roomy-F3": ("mld", "F3", 2, [(FERMAT, 1)], 5, 3),
    # notlc: first violating cell by total depth, then lexicographically
    **{f"notlc-cusp-{d}": ("notlc", d, 2, [(CUSP, 3)], 3, B) for d in DOMAINS},
    **{f"notlc-node-{d}": ("notlc", d, 2, [(NODE, 1)], 3, B) for d in DOMAINS},
    "notlc-twin-tie-F5": ("notlc", "F5", 2, [(NODE, 2), (NODE, 2)], 2, B),
    "notlc-pair-Q": ("notlc", "Q", 2, [(CUSP, "1/2"), (MAX, "3/2")], 2, B),
    "notlc-off-F3": ("notlc", "F3", 2, [(OFF, 5), (MAX, "3/2")], 2, B),
    "notlc-off-alone-F7": ("notlc", "F7", 2, [(OFF, 9)], 3, B),
    "notlc-empty-Q": ("notlc", "Q", 2, [], 3, B),
    "notlc-cap0-Q": ("notlc", "Q", 2, [(CUSP, 3)], 0, B),
    "notlc-budget-F3": ("notlc", "F3", 2, [(FERMAT, "1/2")], 5, 1),
    "notlc-budget-cusp-Q": ("notlc", "Q", 2, [(CUSP, 1)], 5, 1),
    "notlc-budget-found-F5": ("notlc", "F5", 2, [(CUSP, "3/2")], 3, 1),
    # crosschar: single and two factors, budget notes, a refused caps sequence
    **{f"crosschar-cusp-{d}": ("crosschar", d, 2, [(CUSP, 1)], 4, B) for d in PRIMES},
    **{f"crosschar-square-{d}": ("crosschar", d, 2, [(SQUARE, 1)], 4, B) for d in ("F2", "F3")},
    **{f"crosschar-pair-{d}": ("crosschar", d, 2, [(CUSP, 1), (NODE, "1/2")], 2, B)
       for d in PRIMES},
    "crosschar-twin-F5": ("crosschar", "F5", 2, [(MAX, 1), (MAX, 1)], 2, B),
    "crosschar-off-F3": ("crosschar", "F3", 2, [(OFF, 1), (CUSP, 1)], 3, B),
    "crosschar-off-alone-F7": ("crosschar", "F7", 2, [(OFF, 1)], 2, B),
    "crosschar-budget-F3": ("crosschar", "F3", 2, [(FERMAT, 1)], 6, 1),
    "crosschar-budget-cusp-F5": ("crosschar", "F5", 2, [(CUSP, 1)], 6, 1),
    # from depth 5 on the F_3 side finishes within the budget and its lift
    # does not
    "crosschar-budget-lift-F3": ("crosschar", "F3", 2, [(SHIFTED_CUSP, 1)], 6, 30),
    "crosschar-budget-lift-N1-F2": ("crosschar", "F2", 1, [(("x1^2 + x1^4",), 1)], 5, 0),
    "crosschar-budget-pair-F3": ("crosschar", "F3", 2, [(CUSP, 1), (NODE, 1)], 2, 1),
    "crosschar-caps-mismatch-F5": ("crosschar", "F5", 2, [(CUSP, 1)], (1, 2), B),
    "crosschar-rational-Q": ("crosschar", "Q", 2, [(CUSP, 1)], 2, B),
    "crosschar-cap0-F5": ("crosschar", "F5", 2, [(CUSP, 1)], 0, B),
}

EXPECTED = {
    'crosschar-budget-F3': '(1,):2:2:None;(2,):2:2:None;(3,):2:2:None;(4,):None:None:budget;(5,):None:None:budget;(6,):None:None:budget|mld=-1,-1|lct=2/3,2/3',
    'crosschar-budget-cusp-F5': '(1,):2:2:None;(2,):2:2:None;(3,):3:3:None;(4,):4:4:None;(5,):5:5:None;(6,):5:5:None|mld=-1,-1|lct=5/6,5/6',
    'crosschar-budget-lift-F3': '(1,):2:2:None;(2,):2:2:None;(3,):3:3:None;(4,):4:4:None;(5,):5:None:budget;(6,):5:None:budget|mld=0,0|lct=1,1',
    'crosschar-budget-lift-N1-F2': '(1,):1:1:None;(2,):1:1:None;(3,):2:2:None;(4,):2:2:None;(5,):3:3:None|mld=-2,-2|lct=1/2,1/2',
    'crosschar-budget-pair-F3': '(0, 1):2:2:None;(1, 0):2:2:None;(0, 2):2:2:None;(1, 1):2:2:None;(2, 0):2:2:None;(1, 2):2:2:None;(2, 1):2:2:None;(2, 2):2:2:None|mld=-2,-2|lct=None,None',
    'crosschar-cap0-F5': '|mld=2,2|lct=None,None',
    'crosschar-caps-mismatch-F5': 'ValueError',
    'crosschar-cusp-F2': '(1,):2:2:None;(2,):2:2:None;(3,):3:3:None;(4,):4:4:None|mld=0,0|lct=1,1',
    'crosschar-cusp-F3': '(1,):2:2:None;(2,):2:2:None;(3,):3:3:None;(4,):4:4:None|mld=0,0|lct=1,1',
    'crosschar-cusp-F5': '(1,):2:2:None;(2,):2:2:None;(3,):3:3:None;(4,):4:4:None|mld=0,0|lct=1,1',
    'crosschar-cusp-F7': '(1,):2:2:None;(2,):2:2:None;(3,):3:3:None;(4,):4:4:None|mld=0,0|lct=1,1',
    'crosschar-off-F3': '(0, 1):2:2:None;(0, 2):2:2:None;(0, 3):3:3:None|mld=0,0|lct=None,None',
    'crosschar-off-alone-F7': '|mld=2,2|lct=None,None',
    'crosschar-pair-F2': '(0, 1):2:2:None;(1, 0):2:2:None;(0, 2):2:2:None;(1, 1):2:2:None;(2, 0):2:2:None;(1, 2):2:2:None;(2, 1):2:2:None;(2, 2):2:2:None|mld=-1,-1|lct=None,None',
    'crosschar-pair-F3': '(0, 1):2:2:None;(1, 0):2:2:None;(0, 2):2:2:None;(1, 1):2:2:None;(2, 0):2:2:None;(1, 2):2:2:None;(2, 1):2:2:None;(2, 2):2:2:None|mld=-1,-1|lct=None,None',
    'crosschar-pair-F5': '(0, 1):2:2:None;(1, 0):2:2:None;(0, 2):2:2:None;(1, 1):2:2:None;(2, 0):2:2:None;(1, 2):2:2:None;(2, 1):2:2:None;(2, 2):2:2:None|mld=-1,-1|lct=None,None',
    'crosschar-pair-F7': '(0, 1):2:2:None;(1, 0):2:2:None;(0, 2):2:2:None;(1, 1):2:2:None;(2, 0):2:2:None;(1, 2):2:2:None;(2, 1):2:2:None;(2, 2):2:2:None|mld=-1,-1|lct=None,None',
    'crosschar-rational-Q': 'RingMismatch',
    'crosschar-square-F2': '(1,):2:2:None;(2,):2:2:None;(3,):3:3:None;(4,):3:4:None|mld=-1,0|lct=3/4,1',
    'crosschar-square-F3': '(1,):2:2:None;(2,):2:2:None;(3,):3:3:None;(4,):4:4:None|mld=0,0|lct=1,1',
    'crosschar-twin-F5': '(0, 1):2:2:None;(1, 0):2:2:None;(0, 2):4:4:None;(1, 1):2:2:None;(2, 0):4:4:None;(1, 2):4:4:None;(2, 1):4:4:None;(2, 2):4:4:None|mld=0,0|lct=None,None',
    'lct-budget-F3': 'BudgetExceeded',
    'lct-budget-cusp-Q': '1 2',
    'lct-cap0-Q': 'ValueError',
    'lct-cusp-F2': '1 2',
    'lct-cusp-F3': '1 2',
    'lct-cusp-F5': '1 2',
    'lct-cusp-F7': '1 2',
    'lct-cusp-Q': '1 2',
    'lct-max-Q': '2 1',
    'lct-mono-F3': '1 2',
    'lct-node-F2': '1 2',
    'lct-node-F3': '1 2',
    'lct-node-F5': '1 2',
    'lct-node-F7': '1 2',
    'lct-node-Q': '1 2',
    'lct-off-F5': 'IdealNotAtOrigin',
    'lct-square-F2': '3/4 4',
    'lct-square-F3': '1 2',
    'lct-square-F5': '1 2',
    'lct-square-F7': '1 2',
    'lct-square-Q': '1 2',
    'lct-three-vars-F2': '4/3 3',
    'mld-budget-F3': 'BudgetExceeded',
    'mld-budget-cusp-Q': '0 (2,)',
    'mld-budget-roomy-F3': '-2 (5,)',
    'mld-cap0-Q': '2 (0,)',
    'mld-cap0-pair-F7': '2 (0, 0)',
    'mld-cusp-F2': '0 (2,)',
    'mld-cusp-F3': '0 (2,)',
    'mld-cusp-F5': '0 (2,)',
    'mld-cusp-F7': '0 (2,)',
    'mld-cusp-Q': '0 (2,)',
    'mld-empty-F5': '2 ()',
    'mld-max-tie-Q': '0 (1,)',
    'mld-mono-F7': '-3/2 (3,)',
    'mld-off-F5': '0 (0, 2)',
    'mld-off-alone-Q': '2 (0,)',
    'mld-pair-F2': '1/3 (2, 2)',
    'mld-pair-F3': '1/3 (2, 2)',
    'mld-pair-F5': '1/3 (2, 2)',
    'mld-pair-F7': '1/3 (2, 2)',
    'mld-pair-Q': '1/3 (2, 2)',
    'mld-square-F2': '-1 (4,)',
    'mld-twin-tie-F3': '-2 (2, 2)',
    'mld-twin-tie-Q': '0 (1, 1)',
    'notlc-budget-F3': 'BudgetExceeded',
    'notlc-budget-cusp-Q': 'none',
    'notlc-budget-found-F5': '(2,) 2 -1',
    'notlc-cap0-Q': 'ValueError',
    'notlc-cusp-F2': '(1,) 2 -1',
    'notlc-cusp-F3': '(1,) 2 -1',
    'notlc-cusp-F5': '(1,) 2 -1',
    'notlc-cusp-F7': '(1,) 2 -1',
    'notlc-cusp-Q': '(1,) 2 -1',
    'notlc-empty-Q': 'none',
    'notlc-node-F2': 'none',
    'notlc-node-F3': 'none',
    'notlc-node-F5': 'none',
    'notlc-node-F7': 'none',
    'notlc-node-Q': 'none',
    'notlc-off-F3': 'none',
    'notlc-off-alone-F7': 'none',
    'notlc-pair-Q': '(2, 1) 2 -1/2',
    'notlc-twin-tie-F5': '(0, 2) 2 -2',
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_estimator_matches_recorded_value(name):
    assert evaluate(*CASES[name]) == EXPECTED[name]



@pytest.mark.parametrize("cap", [-1, -2, 1.5, "3", (2, 2), (1,), (1, 1, 1)])
def test_a_cap_that_is_not_a_nonnegative_int_is_refused(cap):
    dom = GF(5)
    ma = _multi(dom, 2, [(CUSP, 1)])
    with pytest.raises(ValueError):
        lct_estimate_at_origin(_ideal(dom, 2, CUSP), cap)
    with pytest.raises(ValueError):
        mld_estimate(ma, cap)
    with pytest.raises(ValueError):
        certify_not_log_canonical(ma, cap)
    with pytest.raises(ValueError):
        cross_characteristic_suite(ma, cap)
    with pytest.raises(ValueError):
        cross_characteristic_suite(_multi(dom, 2, [(CUSP, 1), (NODE, 1)]), cap)


@pytest.mark.parametrize("position", [0, 1])
def test_every_estimator_refuses_a_zero_factor_in_any_position(position):
    # without the zero factor, depth 1 on the maximal ideal already
    # certifies: codim 2 < weight 3
    dom = GF(5)
    factors = [(MAX, 3)]
    factors.insert(position, ((), 1))
    ma = _multi(dom, 2, factors)
    for estimate in (certify_not_log_canonical, mld_estimate, cross_characteristic_suite):
        with pytest.raises(errors.ZeroIdeal, match="^operation rejects the zero ideal$"):
            estimate(ma, 3)


# -- the skip rule ---------------------------------------------------------------------


@st.composite
def contact_factors(draw):
    """One or two (ideal, level) factors over a small field or Q, in two variables."""
    dom = draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
    factors = []
    for _ in range(draw(st.integers(1, 2))):
        gens = []
        for _ in range(draw(st.integers(1, 2))):
            terms = draw(st.lists(
                st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-3, 3)),
                min_size=1, max_size=3,
            ))
            gens.append(Polynomial.from_terms(dom, 2, terms))
        ideal = Ideal(dom, 2, gens)
        if ideal.is_zero():
            ideal = Ideal(dom, 2, [Polynomial.variable(dom, 2, 0)])
        factors.append((ideal, draw(st.integers(1, 3))))
    return factors


@pytest.mark.parametrize("route", [contact_codim_at_origin, groebner_contact_codim])
@given(factors=contact_factors())
def test_unit_ideal_exactly_when_a_factor_misses_the_origin(route, factors):
    # F^(0) of a generator is its constant term once x^(0) = 0, and an ideal
    # whose generators have no constant term is never the unit ideal
    misses = any(not a.vanishes_at_origin() for a, _ in factors)
    try:
        codim = route(factors)
    except errors.UnitIdeal:
        assert misses
    else:
        assert not misses and 2 <= codim <= 2 * max(m for _, m in factors)
