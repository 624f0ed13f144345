"""Jet equations, a Groebner engine, and truncated contact-locus estimators.

The geometric quantity everything here feeds is the codimension, at a
finite truncation level, of a contact locus intersected with the fiber of
arcs through the origin.  That codimension turns into a Krull dimension
computation for an explicit polynomial ideal in the jet variables
x_l^(q), which a small Buchberger implementation handles; purely monomial
inputs take a combinatorial fast path that never touches a Groebner basis,
giving the test suite two independent routes to the same numbers.

Estimates produced here are upper bounds by construction: enlarging the
truncation cap can only lower them.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import neg

from .errors import (
    BudgetExceeded,
    IdealNotAtOrigin,
    MathCheckFailed,
    RingMismatch,
    UnitIdeal,
    ZeroIdeal,
)
from .polyring import (
    Domain,
    Ideal,
    Polynomial,
    _add_multiple,
    _mul_terms,
    grlex_key,
    lift_to_q,
    mono_div,
    mono_divides,
    mono_lcm,
)

DEFAULT_GB_BUDGET = 100_000


def grevlex_key(a):
    """Sort key of graded reverse lex: total degree first, ties broken in
    favour of the smaller exponent in the last variable where they differ."""
    return (sum(a), tuple(map(neg, reversed(a))))


# Monomial orders are sort keys: the larger key is the larger monomial.
GRLEX = grlex_key
GREVLEX = grevlex_key


class StepBudget:
    """Counts Groebner steps; raises once the cap is crossed.

    A step is one pair taken from the pair queue of ``groebner_basis`` or
    one reduction step of ``normal_form`` (subtracting a multiple of a
    basis element to cancel a leading term).
    """

    __slots__ = ("cap", "used")

    def __init__(self, cap: int):
        if cap < 0:
            raise ValueError(f"step budget must be >= 0, got {cap}")
        self.cap = cap
        self.used = 0

    def spend(self, amount: int = 1):
        self.used += amount
        if self.used > self.cap:
            raise BudgetExceeded(f"step budget of {self.cap} exhausted")


def _as_budget(budget) -> StepBudget:
    return budget if isinstance(budget, StepBudget) else StepBudget(int(budget))


def _monic(f: Polynomial, lm) -> Polynomial:
    return f.scale(f.domain.inv(f.terms[lm]))


def normal_form(f: Polynomial, basis, budget: StepBudget, order=GRLEX, lms=None) -> Polynomial:
    """Fully reduce f against a list of polynomials monic in ``order``.

    ``lms`` are the basis elements' leading monomials in ``order``; a
    caller that keeps them passes them in.  The remainder is built in one
    mutable term map: each step pops the leading term lc * x^lm and
    subtracts lc * x^q * g from the rest, where x^q * lm(g) = x^lm.
    """
    if lms is None:
        lms = [max(g.terms, key=order) for g in basis]
    dom = f.domain
    work = dict(f.terms)
    tail: dict = {}
    while work:
        lm = max(work, key=order)
        lc = work.pop(lm)
        for g, glm in zip(basis, lms):
            if mono_divides(glm, lm):
                break
        else:
            tail[lm] = lc
            continue
        budget.spend()
        _add_multiple(dom, work, -lc, mono_div(lm, glm), g.terms, glm)
    return Polynomial(dom, f.nvars, tail)


def _spoly(f: Polynomial, g: Polynomial, lf, lg) -> Polynomial:
    """S-polynomial of f and g, monic with leading monomials lf and lg in
    the order at hand; their leading terms cancel and are skipped."""
    dom = f.domain
    lcm = mono_lcm(lf, lg)
    acc: dict = {}
    _add_multiple(dom, acc, 1, mono_div(lcm, lf), f.terms, lf)
    _add_multiple(dom, acc, -1, mono_div(lcm, lg), g.terms, lg)
    return Polynomial(dom, f.nvars, acc)


def groebner_basis(gens, order=GRLEX, budget=DEFAULT_GB_BUDGET):
    """Buchberger with normal pair selection and a hard step budget.

    ``order`` is a monomial sort key, GRLEX or GREVLEX.  Deterministic:
    pairs leave a heap by (lcm order, indices), and the returned basis is
    reduced, monic and sorted, hence unique for the ideal and the order.
    """
    budget = _as_budget(budget)
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    dom = gens[0].domain
    for g in gens:
        if g.domain != dom or g.nvars != gens[0].nvars:
            raise RingMismatch("generators live in different rings")

    basis, lms = [], []  # lms[k] is the leading monomial of basis[k]
    for g in gens:
        lm = max(g.terms, key=order)
        m = _monic(g, lm)
        if m not in basis:
            basis.append(m)
            lms.append(lm)
    pairs: list = []

    def add_pairs(new):
        for k in range(new):
            heapq.heappush(pairs, (order(mono_lcm(lms[k], lms[new])), k, new))

    for new in range(1, len(basis)):
        add_pairs(new)
    while pairs:
        _, i, j = heapq.heappop(pairs)
        budget.spend()
        li, lj = lms[i], lms[j]
        if not any(map(min, li, lj)):
            continue  # coprime leading monomials: S-polynomial reduces to zero
        nf = normal_form(_spoly(basis[i], basis[j], li, lj), basis, budget, order, lms)
        if not nf.is_zero():
            lm = max(nf.terms, key=order)
            basis.append(_monic(nf, lm))
            lms.append(lm)
            add_pairs(len(basis) - 1)
    return _reduce_basis(basis, lms, order, budget)


def _reduce_basis(basis, lms, order, budget: StepBudget):
    # minimal: drop anything whose leading monomial another one divides
    ranked = sorted(zip(basis, lms), key=lambda gl: order(gl[1]))
    minimal, mlms = [], []
    for g, lm in ranked:
        if not any(mono_divides(h, lm) for h in mlms):
            minimal.append(g)
            mlms.append(lm)
    # Reduce each tail against the others.  Whether a term is reducible
    # depends only on the leading monomials, which never change, so one
    # pass leaves every tail reduced.
    if len(minimal) > 1:
        for i, g in enumerate(minimal):
            others, olms = minimal[:i] + minimal[i + 1 :], mlms[:i] + mlms[i + 1 :]
            minimal[i] = normal_form(g, others, budget, order, olms)
    return minimal


# -- dimension ------------------------------------------------------------------


def _minimal_supports(lms):
    supports = sorted({frozenset(i for i, e in enumerate(m) if e) for m in lms}, key=sorted)
    out = []
    for s in sorted(supports, key=len):
        if not any(t <= s for t in out):
            out.append(s)
    return out


def _min_hitting_set_size(supports) -> int:
    best = [sum(len(s) for s in supports) + 1]

    def search(remaining, chosen):
        if chosen >= best[0]:
            return
        if not remaining:
            best[0] = chosen
            return
        pivot = min(remaining, key=len)
        for v in sorted(pivot):
            rest = [s for s in remaining if v not in s]
            search(rest, chosen + 1)

    search(supports, 0)
    return best[0]


def ideal_dimension(gens, order=GREVLEX, budget=DEFAULT_GB_BUDGET) -> int:
    """Krull dimension of the quotient by the ideal the generators span.

    Computed from the leading-term ideal of a Groebner basis as the largest
    number of variables no leading monomial lives entirely inside (via the
    complement, a minimum hitting set).  The zero ideal has the dimension
    of the whole space; the unit ideal is rejected distinctly.  The answer
    does not depend on the monomial order; grevlex is the default because
    its bases of jet ideals are far smaller than grlex ones.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("cannot infer the ring from an empty generator list")
    nvars = gens[0].nvars
    nonzero = [g for g in gens if not g.is_zero()]
    if not nonzero:
        return nvars
    gb = groebner_basis(nonzero, order=order, budget=budget)
    if any(g.is_constant() for g in gb):
        raise UnitIdeal("the generators span the whole ring")
    supports = _minimal_supports([max(g.terms, key=order) for g in gb])
    return nvars - _min_hitting_set_size(supports)


def height_of_ideal(gens, budget=DEFAULT_GB_BUDGET) -> int:
    """Codimension: number of variables minus the dimension."""
    if isinstance(gens, Ideal):
        gens.require_nonzero()
        gens = list(gens.gens)
    gens = list(gens)
    if not gens or all(g.is_zero() for g in gens):
        raise ZeroIdeal("height of the zero ideal is undefined here")
    return gens[0].nvars - ideal_dimension(gens, budget=budget)


def compare_heights(a: Ideal, budget=DEFAULT_GB_BUDGET):
    """Height of a GF(p) ideal against its canonical lift over Q.

    Returns (ht_p, ht_q) and insists on ht_p <= ht_q: lifting can only
    grow the height, so a drop means a bug somewhere and raises.
    """
    a.require_nonzero()
    lifted = lift_to_q(a)
    ht_p = height_of_ideal(a, budget=budget)
    ht_q = height_of_ideal(lifted, budget=budget)
    if ht_p > ht_q:
        raise MathCheckFailed(f"height dropped under lifting: {ht_p} > {ht_q}")
    return ht_p, ht_q


# -- jet equations -----------------------------------------------------------------


@dataclass(frozen=True)
class JetSystem:
    """Truncated jet data of an ideal: level m, variables x_l^(q) for
    0 <= q <= m, and per generator the coefficients F^(0), ..., F^(m) of
    its expansion along x_l -> sum_q x_l^(q) t^q (over q >= 1 only for
    arcs through the origin, see ``jet_equations``)."""

    n: int
    level: int
    domain: Domain
    coefficients: tuple  # one tuple of m+1 polynomials per input generator

    @property
    def nvars(self) -> int:
        return self.n * (self.level + 1)

    def var_index(self, l: int, q: int) -> int:
        return l * (self.level + 1) + q

    def var_names(self) -> list:
        return [f"x{l + 1}_{q}" for l in range(self.n) for q in range(self.level + 1)]


# A CLI session folds lct, mld, notlc and crosschar over the same ideals, so
# jet expansions and contact cells, both pure functions of their inputs, are
# kept once per process.  Each memo holds at most _MEMO_SIZE entries and drops
# its oldest one when full, so a long-lived process does not grow without limit.
_MEMO_SIZE = 256
_jet_memo: dict = {}  # (ideal, level, at_origin) -> JetSystem
_cell_memo: dict = {}  # (factors, force_groebner) -> (codim, steps)


def _remember(memo: dict, key, value):
    if len(memo) >= _MEMO_SIZE:
        del memo[next(iter(memo))]
    memo[key] = value
    return value


def jet_equations(a: Ideal, m: int, *, at_origin: bool = False) -> JetSystem:
    """Expand each generator along truncated jets and split off t-powers.

    With ``at_origin`` the expansion runs along arcs through the origin,
    x_l(t) = sum_{q>=1} x_l^(q) t^q: the q = 0 slot is zero, so no
    x_l^(0) occurs in any coefficient, though the ring still has them.

    Expansions are memoised per process: a repeat returns the system
    built the first time, equal to a fresh expansion (so callers must not
    mutate its polynomials), and an input that raises is not stored.
    """
    key = (a, m, at_origin)
    hit = _jet_memo.get(key)
    return hit if hit is not None else _remember(_jet_memo, key, _expand(a, m, at_origin))


def _expand(a: Ideal, m: int, at_origin: bool) -> JetSystem:
    a.require_nonzero()
    if m < 0:
        raise ValueError("jet level must be >= 0")
    n, dom = a.nvars, a.domain
    width = m + 1
    jet_nvars = n * width
    unit = (0,) * jet_nvars

    # A series is a list of ``width`` term maps, the coefficients of t^0..t^m.
    def series(c=None):
        return [{} if c is None else {unit: c}] + [{} for _ in range(m)]

    def series_mul(A, B, out):
        """out += A * B truncated after t^m, in place; returns out."""
        for i, ai in enumerate(A):
            if ai:
                for j, bj in enumerate(B[: width - i]):
                    if bj:
                        _mul_terms(dom, ai, bj, out[i + j])
        return out

    var_series = [
        [Polynomial.variable(dom, jet_nvars, l * width + q).terms for q in range(width)]
        for l in range(n)
    ]
    if at_origin:
        for xl in var_series:
            xl[0] = {}
    power_cache: dict = {}

    def series_power(l, e):
        if e == 1:
            return var_series[l]
        key = (l, e)
        if key not in power_cache:
            power_cache[key] = series_mul(series_power(l, e - 1), var_series[l], series())
        return power_cache[key]

    one = series(1)
    out = []
    for g in a.gens:
        acc = series()
        for mono, c in g.terms.items():
            factors = [series_power(l, e) for l, e in enumerate(mono) if e] or [one]
            piece = series(c)
            for f in factors[:-1]:
                piece = series_mul(piece, f, series())
            series_mul(piece, factors[-1], acc)
        out.append(tuple(Polynomial(dom, jet_nvars, terms) for terms in acc))
    return JetSystem(n=n, level=m, domain=dom, coefficients=tuple(out))


# -- contact loci ---------------------------------------------------------------------


def _check_factors(factors):
    if not factors:
        raise ValueError("need at least one (ideal, level) factor")
    ring = None
    for a, m in factors:
        a.require_nonzero()
        if not isinstance(m, int) or m < 1:
            raise ValueError(f"contact level must be a positive integer, got {m!r}")
        if ring is None:
            ring = (a.domain, a.nvars)
        elif (a.domain, a.nvars) != ring:
            raise RingMismatch("contact factors live in different rings")
    return ring


def monomial_contact_codim(factors) -> int:
    """Fast path for monomial factors, independent of any Groebner basis.

    An arc lies in every contact condition iff its vector of coordinate
    orders a (componentwise >= 1 on the fiber over the origin) satisfies
    sum_l a_l * w_l >= m for each generator x^w; each such stratum has
    codimension sum(a).  Minimize over the finitely many a that matter.
    """
    dom_n = _check_factors(factors)
    n = dom_n[1]
    L = max(m for _, m in factors)
    constraints = []
    for a, m in factors:
        if not a.is_monomial():
            raise ValueError("fast path needs monomial ideals")
        for g in a.gens:
            (w,) = g.terms
            if sum(w) == 0:
                raise UnitIdeal("a unit generator empties the contact locus")
            constraints.append((w, m))
    best = None
    for vec in itertools.product(range(1, L + 1), repeat=n):
        if any(sum(a * w_l for a, w_l in zip(vec, w)) < m for w, m in constraints):
            continue
        total = sum(vec)
        if best is None or total < best:
            best = total
    if best is None:
        raise UnitIdeal("contact conditions are unsatisfiable")
    return best


def contact_codim_at_origin(factors, budget=DEFAULT_GB_BUDGET, force_groebner=False) -> int:
    """Codimension of the intersection of the contact loci with the arcs
    through the origin, evaluated at truncation level max(m_i).

    The defining ideal lives in the N*L jet variables with q < L: all
    x_l^(0), plus for factor i the coefficients F^(j), j < m_i, of each
    generator expanded along arcs through the origin (``at_origin``), so
    no x_l^(0) occurs in them.  The x_l^(0) stay in the ring as linear
    generators: dropping them would change the Groebner input, and with
    it the step counts and the point where a budget runs out.  Monomial
    inputs use the combinatorial fast path unless ``force_groebner`` asks
    for the slow route (the tests compare the two).

    Cells are memoised per process, keyed by the factors and the route.
    A repeat returns the stored codim and spends the steps the cell cost
    on ``budget``, so the result, ``budget.used`` and the point where a
    budget runs out are as if the cell were recomputed.  A cell that
    raises is not stored.
    """
    budget = _as_budget(budget)
    factors = tuple((a, m) for a, m in factors)
    ring = _check_factors(factors)
    key = (factors, bool(force_groebner))
    hit = _cell_memo.get(key)
    if hit is None:
        # Run on the steps left and charge them to the caller's budget, so a
        # cell that runs out raises there, naming the caller's cap.
        cell_budget = StepBudget(max(0, budget.cap - budget.used))
        try:
            codim = _contact_codim(factors, ring, cell_budget, force_groebner)
        except Exception:
            budget.spend(cell_budget.used)
            raise
        hit = _remember(_cell_memo, key, (codim, cell_budget.used))
    budget.spend(hit[1])
    return hit[0]


def _contact_codim(factors, ring, budget: StepBudget, force_groebner) -> int:
    dom, n = ring
    if not force_groebner and all(a.is_monomial() for a, _ in factors):
        return monomial_contact_codim(factors)

    L = max(m for _, m in factors)  # jet variables x_l^(q), 0 <= q <= L-1
    jet_nvars = n * L
    gens = [Polynomial.variable(dom, jet_nvars, l * L) for l in range(n)]
    for a, m in factors:
        for coeffs in jet_equations(a, L - 1, at_origin=True).coefficients:
            for g in coeffs[:m]:
                if g.is_constant():
                    if g.is_zero():
                        continue
                    raise UnitIdeal("a contact condition is a nonzero constant")
                gens.append(g)
    dim = ideal_dimension(gens, budget=budget)
    return jet_nvars - dim


# -- estimators ------------------------------------------------------------------------


def contact_cells(factors, caps):
    """The depth grid every contact-locus estimator folds over.

    ``factors`` are (ideal, exponent) pairs and ``caps`` is one depth cap
    for all of them or a sequence with one cap per factor.  Yields
    (mvec, active, weight) for every nonzero depth vector m within the
    caps, by total depth and then lexicographically: ``active`` holds the
    (ideal, m_i) pairs with m_i >= 1 and ``weight`` is sum(e_i * m_i).
    Cells where an active ideal misses the origin are skipped: their
    contact locus through the origin is empty, and exactly there
    ``contact_codim_at_origin`` would raise UnitIdeal.
    """
    per_factor = isinstance(caps, (tuple, list))
    if any(not isinstance(c, int) or c < 0 for c in (caps if per_factor else [caps])):
        raise ValueError(f"depth caps must be nonnegative integers, got {caps!r}")
    if not per_factor:
        caps = [caps] * len(factors)
    grid = sorted(itertools.product(*(range(c + 1) for c in caps)), key=lambda m: (sum(m), m))
    for mvec in grid[1:]:  # grid[0] is the zero vector
        active = [(a, m) for (a, _), m in zip(factors, mvec) if m]
        if all(a.vanishes_at_origin() for a, _ in active):
            yield mvec, active, sum(e * m for (_, e), m in zip(factors, mvec))


def mld_estimate(ma, cap: int, budget=DEFAULT_GB_BUDGET, nvars: int | None = None):
    """Truncated minimal log discrepancy bound at the origin.

    Minimizes codim - sum(e_i * m_i) over contact level vectors m in
    {0..cap}^r; the all-zero vector contributes the ambient dimension N.
    The result is an upper bound, non-increasing in cap.  Cells whose
    contact locus is empty are skipped.  Returns (value, minimizing m),
    the lexicographically smallest m on a tie.

    An empty product has no ring attached, so ``nvars`` must be passed for
    that degenerate case (the answer is then just N).
    """
    factors = list(ma)
    for a, _ in factors:
        a.require_nonzero()
    if factors:
        n = factors[0][0].nvars
    elif nvars is not None:
        n = nvars
    else:
        raise ValueError("an empty product needs an explicit nvars")
    return min(
        [(Fraction(n), (0,) * len(factors))]
        + [
            (Fraction(contact_codim_at_origin(active, budget=budget) - weight), mvec)
            for mvec, active, weight in contact_cells(factors, cap)
        ]
    )


def lct_estimate_at_origin(a: Ideal, cap: int, budget=DEFAULT_GB_BUDGET):
    """Truncated log canonical threshold bound at the origin.

    min over 1 <= m <= cap of codim(contact >= m through origin) / m.
    Exact in the limit over the rationals; an upper bound in char p.
    Returns (value, minimizing level), the smallest level on a tie.
    """
    a.require_nonzero()
    if not a.vanishes_at_origin():
        raise IdealNotAtOrigin("the ideal's locus must pass through the origin")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    return min(
        (Fraction(contact_codim_at_origin(active, budget=budget), m), m)
        for (m,), active, _ in contact_cells([(a, 1)], cap)
    )
