"""Independent checks the tests run against the package's results.

No command uses these: each one recomputes, by a route of its own,
something the tests compare with what the package reports.
"""

from __future__ import annotations

from towerval.jets import DEFAULT_GB_BUDGET, GRLEX, _as_budget, _spoly, normal_form
from towerval.polyring import default_names
from towerval.tower import CenterSpec, Tower


def verify_groebner(basis, gens=None, budget=DEFAULT_GB_BUDGET) -> bool:
    """Check the defining property of a monic grlex basis: all
    S-polynomials reduce to zero, and optionally the original generators
    do too."""
    budget = _as_budget(budget)
    lms = [g.leading_monomial() for g in basis]
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            s = _spoly(basis[i], basis[j], lms[i], lms[j])
            if not normal_form(s, basis, budget, GRLEX, lms).is_zero():
                return False
    for g in gens or ():
        if not normal_form(g, basis, budget, GRLEX, lms).is_zero():
            return False
    return True


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
