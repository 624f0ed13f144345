"""Independent checks the tests run against the package's results.

No command uses these: each one recomputes, by a route of its own,
something the tests compare with what the package reports.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import mul

import sympy

from towerval.errors import GeneralPointNotFound, UnitIdeal, ZeroPolynomial
from towerval.jets import (
    DEFAULT_GB_BUDGET,
    _as_budget,
    _face_test,
    _min_hitting_set_size,
    _minimal_supports,
    _monic,
    _spoly,
    grevlex_key,
    groebner_basis,
    ideal_dimension,
    normal_form,
)
from towerval.polyring import Ideal, Polynomial, default_names, mono_deg, mono_divides
from towerval.tower import CenterSpec, Tower, _value_stream


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


def sympy_groebner(gens, order: str) -> dict:
    """sympy's reduced Groebner basis of the generators in ``order``
    ("grevlex" or "grlex"), as a map from the leading monomial sympy names
    in that order to the basis element made monic there."""
    domain, n = gens[0].domain, gens[0].nvars
    syms = sympy.symbols(f"x1:{n + 1}")
    kwargs = {"order": order}
    if domain.p:
        kwargs["modulus"] = domain.p
    out = {}
    for expr in sympy.groebner([to_sympy(g, syms) for g in gens], *syms, **kwargs).exprs:
        f = from_sympy(expr, syms, domain)
        lm = tuple(sympy.Poly(expr, *syms).LM(order=order).exponents)
        out[lm] = f.scale(domain.inv(f.terms[lm]))
    return out


def reduced_basis(basis, budget=DEFAULT_GB_BUDGET) -> list:
    """The reduced grevlex basis of a Groebner basis such as
    ``groebner_basis`` returns: monic and sorted by leading monomial, hence
    unique for the ideal.  Interreducing spends ``normal_form`` steps on
    ``budget``."""
    budget = _as_budget(budget)
    # minimal: drop anything whose leading monomial another one divides
    ranked = sorted(((g, max(g.terms, key=grevlex_key)) for g in basis),
                    key=lambda gl: grevlex_key(gl[1]))
    minimal, mlms = [], []
    for g, lm in ranked:
        if not any(mono_divides(h, lm) for h in mlms):
            minimal.append(g)
            mlms.append(lm)
    # Reduce each tail against the others.  Whether a term is reducible
    # depends only on the leading monomials, which never change, so one
    # pass leaves every tail reduced; each is made monic only at the end.
    if len(minimal) > 1:
        for i, g in enumerate(minimal):
            others, olms = minimal[:i] + minimal[i + 1 :], mlms[:i] + mlms[i + 1 :]
            minimal[i] = normal_form(g, others, budget, olms)
    return [_monic(g, lm) for g, lm in zip(minimal, mlms)]


def verify_groebner(basis, gens=None, budget=DEFAULT_GB_BUDGET) -> bool:
    """Check the defining property of a monic grevlex basis: all
    S-polynomials reduce to zero, and optionally the original generators
    do too."""
    budget = _as_budget(budget)
    lms = [max(g.terms, key=grevlex_key) for g in basis]
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            s = _spoly(basis[i], basis[j], lms[i], lms[j])
            if not normal_form(s, basis, budget, lms).is_zero():
                return False
    for g in gens or ():
        if not normal_form(g, basis, budget, lms).is_zero():
            return False
    return True


def dimension_by_groebner(gens, budget=DEFAULT_GB_BUDGET) -> int:
    """The Krull dimension by the uncut route: every generator goes into the
    pair loop, and the dimension is read off the leading monomials of the
    basis it leaves.  Raises UnitIdeal, with the package's message, where
    a leading monomial is 1."""
    gens = list(gens)
    nvars = gens[0].nvars
    nonzero = [g for g in gens if not g.is_zero()]
    if not nonzero:
        return nvars
    lms = [max(g.terms, key=grevlex_key) for g in groebner_basis(nonzero, budget)]
    if (0,) * nvars in lms:
        raise UnitIdeal("the generators span the whole ring")
    return nvars - _min_hitting_set_size(_minimal_supports(lms))


def box_strata(factors):
    """The strata of the whole box {1..L}^N in lexicographic order, with no
    stop, as (score, met): sum(a) plus the needs, and the (generator, face)
    pairs of the initial forms below their levels.  Monomial factors are
    constraints; every generator of another factor counts once, at its
    largest level, and so does a unit multiple of an earlier one.  A
    stratum that a constraint or a single-term initial form empties is
    left out."""
    constraints = [(w, m) for a, m in factors if a.is_monomial() for g in a.gens for w in g.terms]
    dom, n = factors[0][0].domain, factors[0][0].nvars
    first: dict = {}  # generator made monic at its largest monomial -> the first generator it came as
    levels: dict = {}
    for a, m in factors:
        if not a.is_monomial():
            for g in a.gens:
                g = first.setdefault(g.scale(dom.inv(g.terms[max(g.terms)])), g)
                levels[g] = max(m, levels.get(g, 0))
    L = max(m for _, m in factors)
    for vec in itertools.product(range(1, L + 1), repeat=n):
        if any(sum(map(mul, vec, w)) < m for w, m in constraints):
            continue
        met, need = [], 0
        for g, m in levels.items():
            weight = {w: sum(map(mul, vec, w)) for w in g.terms}
            o = min(weight.values())
            if o < m:
                met.append((g, frozenset(w for w in g.terms if weight[w] == o)))
                need += m - o
        if not any(len(face) == 1 for _, face in met):
            yield sum(vec) + need, tuple(met)


def face_forms(met) -> list:
    """The initial forms of a stratum's (generator, face) pairs, as term maps."""
    return [{w: g.terms[w] for w in face} for g, face in met]


def box_strata_codim(factors, budget):
    """The strata route scored over the whole box (``box_strata``): what
    ``jets._strata_codim`` returns when no stratum is left unvisited.
    Every set of initial forms in the box goes to the face test once, and
    the first that fails it returns None."""
    dom = factors[0][0].domain
    verdicts: dict = {}  # ((generator, face), ...) -> the face test's verdict
    best = None
    for score, met in box_strata(factors):
        if met:
            if met not in verdicts:
                verdicts[met] = _face_test(dom, face_forms(met), budget)
            if verdicts[met] is None:
                return None
        if best is None or score < best:
            best = score
    if best is None:
        raise UnitIdeal("contact conditions are unsatisfiable")
    return best


def face_misses_torus(dom, forms, budget) -> bool:
    """Whether the forms have no common zero in the torus: whether they and
    1 - y * prod x_l, in the N variables and one more, y, span the unit
    ideal.  The product runs over the variables the forms hold.  The face
    test passes such forms without asking this."""
    held = tuple(int(any(e)) for e in zip(*(w for f in forms for w in f)))
    n = len(held)
    gs = [Polynomial(dom, n + 1, {w + (0,): c for w, c in f.items()}) for f in forms]
    torus = Polynomial(dom, n + 1, {(0,) * (n + 1): 1, held + (1,): -1})
    try:
        ideal_dimension(gs + [torus], budget)
    except UnitIdeal:
        return True
    return False


def order_at_origin(f) -> int:
    """Min total degree among the terms of f (its vanishing order at 0)."""
    if not f.terms:
        raise ZeroPolynomial("order of the zero polynomial")
    return min(mono_deg(m) for m in f.terms)


def fraction_normal_form(f, basis, lms):
    """The textbook division algorithm over Q, in plain ``Fraction``s:
    take the largest grevlex term left, cancel it with (lc / lc(g)) x^q g
    for the first basis element g whose leading monomial divides it, or
    move it to the remainder.  Returns (remainder, reduction steps)."""
    work = {m: Fraction(c) for m, c in f.terms.items()}
    rem, steps = {}, 0
    while work:
        lm = max(work, key=grevlex_key)
        for g, glm in zip(basis, lms):
            if all(a <= b for a, b in zip(glm, lm)):
                break
        else:
            rem[lm] = work.pop(lm)
            continue
        steps += 1
        r = work[lm] / g.terms[glm]
        for m, v in g.terms.items():
            m = tuple(e + d - s for e, d, s in zip(m, lm, glm))
            c = work.get(m, 0) - r * v
            if c:
                work[m] = c
            else:
                del work[m]
    return Polynomial.from_terms(f.domain, f.nvars, rem.items()), steps


def chart_images(dom, n, pivot, constraints) -> list:
    """The images of a blow-up chart's pullback, as polynomials for
    ``Polynomial.substitute``: x_pivot -> c_pivot + u_pivot, x_j -> c_j +
    u_pivot*u_j for the other (j, c_j) in ``constraints``, x_j -> u_j off
    the center."""
    u = [Polynomial.variable(dom, n, i) for i in range(n)]
    images = list(u)
    for j, c in constraints:
        c = Polynomial.constant(dom, n, c)
        images[j] = c + u[pivot] if j == pivot else c + u[pivot] * u[j]
    return images


def center_images(dom, n, constraints) -> list:
    """The center as a ring map: x_j -> c_j for the (j, c_j) in
    ``constraints``, x_j -> x_j otherwise.  A polynomial vanishes on the
    center exactly when its image is zero."""
    cmap = dict(constraints)
    return [Polynomial.constant(dom, n, cmap[j]) if j in cmap else Polynomial.variable(dom, n, j)
            for j in range(n)]


def order_along(f, constraints) -> int:
    """The order of f along the center {x_j = c_j} by the plain route:
    substitute x_j -> c_j + x_j for the (j, c_j) in ``constraints`` and
    take the least degree of a term of the result in those x_j."""
    dom, n = f.domain, f.nvars
    images = [Polynomial.variable(dom, n, j) for j in range(n)]
    for j, c in constraints:
        images[j] = images[j] + Polynomial.constant(dom, n, c)
    return min(sum(m[j] for j, _ in constraints) for m in f.substitute(images).terms)


def chart_chain(t: Tower, cid: int) -> list:
    """The reference walk: the charts from the root (excluded) down to
    chart cid, in the order a polynomial is pulled through them."""
    path, chart = [], t.chart(cid)
    while chart.parent is not None:
        path.append(chart)
        chart = t.chart(chart.parent)
    path.reverse()
    return path


def walked_weak_transform(t: Tower, a, cid: int):
    """The weak transform pulled from the root to chart cid, every time, and
    the power of each step's divisor stripped on the way: (Ideal in chart
    coordinates, [(divisor id, stripped power)])."""
    gens, removed = list(a.gens), []
    for ch in chart_chain(t, cid):
        gens = [ch.pull(g) for g in gens]
        drop = min(g.var_min_exponent(ch.pivot) for g in gens)
        gens = [g.divide_var_power(ch.pivot, drop) for g in gens]
        removed.append((ch.step, drop))
    return Ideal(t.domain, t.n, gens), removed


def equivalent_center_specs(t: Tower, center: CenterSpec) -> list:
    """Other-chart views of a point center, for chart-independence checks.

    A point in a chart created with pivot l is visible in the sibling chart
    with pivot j exactly when its j-th coordinate is nonzero; the returned
    specs name the same geometric point there.
    """
    chart = t.chart(center.chart)
    if chart.parent is None:
        return []
    cmap = dict(center.constraints)
    if len(cmap) != t.n:
        return []
    dom = t.domain
    parent_step = t.steps[chart.step - 1]
    prev_S = set(parent_step.center.as_dict())
    piv = chart.pivot
    out = []
    for sibling_cid in parent_step.chart_ids:
        sib = t.chart(sibling_cid)
        j = sib.pivot
        if j == piv or cmap[j] == 0:
            continue
        inv = dom.inv(cmap[j])
        coords = {}
        for i in range(t.n):
            if i == j:
                coords[i] = cmap[piv] * cmap[j]
            elif i == piv:
                coords[i] = inv
            elif i in prev_S:
                coords[i] = cmap[i] * inv
            else:
                coords[i] = cmap[i]
        out.append(CenterSpec.make(sibling_cid, coords, dom))
    return out


def walked_point_on_divisor(t: Tower, did: int, avoid_loci=()) -> CenterSpec:
    """The general-point search by the plain walk: every point of the
    enumeration in turn, first coordinate slowest, with every predicate
    evaluated there.  The first point at which every other divisor's
    equation and some generator of every locus are nonzero, or
    GeneralPointNotFound with the search's message."""
    chart = t.chart(t.divisor(did).home_chart)
    dom, n = t.domain, t.n
    eqs = [eq for d, eq in chart.divisor_eqs.items() if d != did]
    loci = [locus.gens for locus in avoid_loci]
    free = [i for i in range(n) if i != chart.pivot]
    for combo in itertools.product(_value_stream(dom), repeat=len(free)):
        pt = [0] * n
        for i, v in zip(free, combo):
            pt[i] = v
        if any(eq.evaluate(pt) == 0 for eq in eqs):
            continue
        if any(all(g.evaluate(pt) == 0 for g in gens) for gens in loci):
            continue
        return CenterSpec.make(chart.cid, dict(enumerate(pt)), dom)
    raise GeneralPointNotFound(
        f"no point on divisor {did} in chart {chart.cid} passes the "
        f"{len(eqs) + len(loci)} avoidance predicates"
    )


def describe(t: Tower) -> dict:
    """Deterministic plain-data view of a tower, for comparing towers."""
    names = default_names(t.n)
    return {
        "N": t.n,
        "domain": repr(t.domain),
        "steps": [
            {
                "chart": s.center.chart,
                "set": [[names[i], str(c)] for i, c in s.center.constraints],
            }
            for s in t.steps
        ],
        "divisors": [
            {
                "id": d.did,
                "k": d.k,
                "home_chart": d.home_chart,
                "contained_in": list(d.contained_in),
            }
            for d in t.divisors
        ],
        "charts": len(t.charts),
    }
