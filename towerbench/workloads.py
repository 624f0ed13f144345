"""Seeded inputs, expected answers and output checks for the three workloads.

Every workload derives its inputs from the seed by changes whose effect on
the answer is known without running towerval: a diagonal rescaling
x_i -> lam_i * x_i and nonzero scalars on generators.  Contact codims,
lct/mld estimates, heights and valuations along toric divisors do not move
under either, so the expected values below, recorded at seed 0, hold at
every seed.  Seed 0 uses lam = 1 and unit scalars, the plain inputs.

A workload is a list of calls.  ``prepare`` does everything a user pays
once (building polynomials and towers); the pass times only the calls.
Each call's ``judge`` turns its result into operation outcomes
("ok", "failed" or "budget") after the timed loop has finished.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import towerval
import towerval.cli
from towerval.tower import discrepancy_via_jacobian  # not traced, so bound once

WORKLOADS = ("contact-q", "session-fp", "towers-fp")
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@dataclass
class Call:
    label: str
    run: Callable[[], object]
    judge: Callable  # (result, exception) -> list of (op label, outcome, detail)


def prepare(workload: str, seed: int) -> list:
    if workload not in _PREPARE:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _PREPARE[workload](seed)


# -- seeded rescaling ---------------------------------------------------------------


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _scaled_text(text: str, lam, scalar, fmt) -> str:
    """Generator text after x_i -> lam_i * x_i and multiplication by a scalar.

    ``text`` is a sum of unit-coefficient monomials such as "x1^2 + x2*x3".
    """
    out = []
    for term in text.split("+"):
        term = term.strip()
        coef = scalar
        for factor in term.split("*"):
            var, _, exp = factor.partition("^")
            coef *= lam[int(var[1:]) - 1] ** int(exp or 1)
        out.append((fmt(coef), term))
    head_sign, head = out[0][0]
    parts = [("-" if head_sign else "") + f"{head}*{out[0][1]}"]
    for (neg, c), term in out[1:]:
        parts.append(f"{'-' if neg else '+'} {c}*{term}")
    return " ".join(parts)


def _fmt_q(c: Fraction):
    return c < 0, str(abs(c))


def _fmt_fp(p: int):
    return lambda c: (False, str(c % p))


def _q_units(rng, count):
    if rng is None:
        return [Fraction(1)] * count
    # small numerators and denominators keep Groebner coefficient growth,
    # and with it the pass time, nearly the same at every seed
    return [rng.choice((1, -1, 2, -2)) * Fraction(1, rng.choice((1, 2))) for _ in range(count)]


def _fp_units(rng, p, count):
    if rng is None:
        return [1] * count
    return [rng.randrange(1, p) for _ in range(count)]


# -- contact-q: the characteristic-0 contact ladder -----------------------------------

# (generators, ambient N, {level: codim at the origin}).  Every cell is distinct.
CONTACT_LADDER = (
    (("x1^2 + x2^3",), 2, {4: 4, 5: 5}),
    (("x1*x2 + x3^2",), 3, {4: 5, 5: 6}),
    (("x1^2 + x2^5",), 2, {5: 4, 6: 5}),
    (("x1^3 + x2^3",), 2, {5: 4, 6: 4}),
    (("x1^2 + x2^2 + x3^2",), 3, {3: 4, 4: 5}),
    (("x1^2 + x2*x3", "x2^2 + x1*x3"), 3, {3: 5, 4: 6}),
)


def _contact_q(seed: int) -> list:
    rng = _rng("contact-q", seed) if seed else None
    QQ = towerval.QQ
    calls = []
    for gens, n, cells in CONTACT_LADDER:
        lam = _q_units(rng, n)
        scalars = _q_units(rng, len(gens))
        ideal = towerval.Ideal(QQ, n, [
            towerval.parse_polynomial(_scaled_text(g, lam, s, _fmt_q), QQ, n)
            for g, s in zip(gens, scalars)
        ])
        for level, expected in cells.items():
            label = f"({', '.join(gens)}) L{level}"
            calls.append(Call(
                label,
                lambda a=ideal, m=level: towerval.contact_codim_at_origin([(a, m)]),
                _expect_value(label, expected),
            ))
    return calls


def _raised(label, exc) -> list:
    outcome = "budget" if isinstance(exc, towerval.errors.BudgetExceeded) else "failed"
    return [(label, outcome, f"raised {type(exc).__name__}: {exc}")]


def _expect_value(label, expected):
    def judge(result, exc):
        if exc is not None:
            return _raised(label, exc)
        if result != expected:
            return [(label, "failed", f"got {result!r}, expected {expected!r}")]
        return [(label, "ok", "")]
    return judge


# -- session-fp: one F_7 CLI session, end to end ----------------------------------------

SESSION_CAP = 5
SESSION_TEMPLATE = """\
ring N=2 p=7
ideal d: {d}
ideal m: {m}
ideal c: {c}
ideal q: {q}
tower T: blowup chart=root point=(0,0); blowup chart=1 point=(0,0); blowup chart=3 point=(0,0)
lct d
mld d:2/3
notlc d:1
crosschar d:1
heights d
mld d:1/2 m:1/2
lct q
mld q:1
keval T
veval T d
logdisc T d:1/2 m:1
zeval T d
bridge T m c e=(1,1/2)
suspend T d
"""
# The general points the bridge picks depend on the coefficients, so they are
# compared only at seed 0; every other field is seed-invariant.
SEED_DEPENDENT_KEYS = ("P1", "P2", "lifted_P1", "lifted_P2")


def session_script(seed: int) -> str:
    p = 7
    rng = _rng("session-fp", seed) if seed else None
    lam = _fp_units(rng, p, 2)
    fmt = _fmt_fp(p)

    def ideal(*gens):
        scalars = _fp_units(rng, p, len(gens))
        return ", ".join(_scaled_text(g, lam, s, fmt) for g, s in zip(gens, scalars))

    return SESSION_TEMPLATE.format(
        d=ideal("x1^3 + x2^3"),
        m=ideal("x1", "x2"),
        c=ideal("x1^2 + x2^3"),
        q=ideal("x1^2", "x2^3"),
    )


def session_argv(script_path: str) -> list:
    return ["--cap", str(SESSION_CAP), "--script", script_path]


def _session_fp(seed: int) -> list:
    import contextlib
    import io
    import tempfile

    script = session_script(seed)
    golden = (GOLDEN_DIR / "session-fp.txt").read_text(encoding="utf-8")
    fh = tempfile.NamedTemporaryFile(
        "w", suffix=".tv", prefix="session-", dir=_out_dir(), delete=False, encoding="utf-8"
    )
    with fh:
        fh.write(script)

    def run():
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = towerval.cli.main(session_argv(fh.name))
        finally:
            Path(fh.name).unlink()
        return rc, out.getvalue(), err.getvalue()

    return [Call("towerval " + " ".join(session_argv("S")), run, _session_judge(seed, golden))]


def _out_dir() -> Path:
    path = Path(__file__).resolve().parent / "out"
    path.mkdir(exist_ok=True)
    return path


def split_blocks(text: str) -> list:
    """CLI text output as [(header, [line, ...]), ...], one entry per command."""
    blocks = []
    for line in text.splitlines():
        if line.startswith("# command "):
            blocks.append((line, []))
        elif line and blocks:
            blocks[-1][1].append(line)
    return blocks


def _pairs(line: str) -> list:
    return [tuple(tok.split("=", 1)) for tok in line.split()]


def _drop_seed_dependent(lines):
    return [
        " ".join(f"{k}={v}" for k, v in _pairs(line) if k not in SEED_DEPENDENT_KEYS)
        for line in lines
    ]


def bridge_identity_errors(lines) -> list:
    """Re-derive the bridge identities from a bridge block's raw numbers."""
    fields = {}
    for line in lines:
        fields.update(_pairs(line))
    n = int(fields["n"])
    errors = []
    if int(fields["k_F"]) != 2 * (n - 1) + int(fields["k_E"]):
        errors.append(f"k_F={fields['k_F']} is not 2(N-1)+k_E with k_E={fields['k_E']}")
    i = 0
    while f"v_E_{i}" in fields:
        triple = {fields[f"v_E_{i}"], fields[f"v_Fp_{i}"], fields[f"v_Fq_{i}"]}
        if len(triple) != 1:
            errors.append(f"valuation triple {i} differs: {sorted(triple)}")
        i += 1
    i = 0
    while f"shift_{i}_a_p" in fields:
        a_p, a_q = Fraction(fields[f"shift_{i}_a_p"]), Fraction(fields[f"shift_{i}_a_q"])
        if a_q != 2 * (n - 1) + a_p:
            errors.append(f"shift {i}: a_Q={a_q} is not 2(N-1)+a_p with a_p={a_p}")
        i += 1
    return errors


def _session_judge(seed: int, golden: str):
    expected = split_blocks(golden)

    def judge(result, exc):
        if exc is not None:
            return [(h, "failed", f"raised {type(exc).__name__}: {exc}") for h, _ in expected]
        rc, out, err = result
        if rc != 0:
            outcome = "budget" if rc == 3 else "failed"
            return [(h, outcome, f"exit {rc}: {err.strip()}") for h, _ in expected]
        got = dict(split_blocks(out))
        outcomes = []
        for header, want in expected:
            have = got.get(header)
            if have is None:
                outcomes.append((header, "failed", "block missing"))
                continue
            errors = bridge_identity_errors(have) if " bridge " in header else []
            if seed == 0:
                same = have == want
            else:
                same = _drop_seed_dependent(have) == _drop_seed_dependent(want)
            if not same:
                errors.append(f"got {have}, expected {want}")
            if any("note=budget" in line for line in have):
                outcomes.append((header, "budget", "a crosschar cell hit the budget"))
            else:
                outcomes.append((header, "failed" if errors else "ok", "; ".join(errors)))
        if seed == 0 and out != golden and all(o == "ok" for _, o, _ in outcomes):
            outcomes[-1] = (outcomes[-1][0], "failed", "stdout differs from the seed-0 golden")
        return outcomes

    return judge


# -- towers-fp: towers, the lifting bridge and invariants, no Groebner ----------------

TOWER_P = 101
EXTRA_BRIDGE_CASES = 12
DEEP_STEPS = 12
DEEP_GENS = ("x1^5 + x2*x3", "x4^2 + x1^3*x2")
TORIC_GENS = ("x1^2", "x2^2", "x3^3")
TORIC_BOUND = 5


def extra_bridge_cases(seed: int, count: int = EXTRA_BRIDGE_CASES) -> list:
    """Bridge cases from the acceptance corpus recipe, drawn from the seed.

    Centers and ideals follow ``towerval.acceptance_corpus``, with changes
    that keep the cost of a pass nearly the same at every seed: (N, depth),
    the ideal kind, the number of generators, the degrees of sparse terms,
    where a coordinate-subspace center goes and how many center
    coordinates are 1 follow fixed patterns instead of being drawn, and
    towers in A^3 stop at depth 3 (one random ideal on a depth-4 A^3 tower
    can cost more than the other cases together).  The seed still draws the
    charts, which coordinate is 1, the variables and the coefficients.  The
    field is F_101 throughout, where the general-point search cannot run
    out of candidates on towers this small.
    """
    rng = _rng("towers-fp", seed)
    shapes = [(2, 2), (2, 1), (2, 3), (2, 4), (3, 2), (3, 3), (3, 2), (3, 3)]
    kinds = ["maximal", "monomial", "sparse", "sparse"]
    cases = []
    for serial in range(count):
        n, depth = shapes[serial % len(shapes)]
        centers = [(0, tuple((i, 0) for i in range(n)))]
        chart_count = 1 + n
        last_charts = list(range(1, chart_count))
        for step in range(1, depth):
            chart = rng.choice(last_charts)
            if n == 3 and step == 1 and serial % 2:
                constraints = tuple((i, 0) for i in sorted(rng.sample(range(n), 2)))
            else:
                one = rng.randrange(n)
                constraints = tuple((i, int(i == one)) for i in range(n))
            centers.append((chart, constraints))
            last_charts = list(range(chart_count, chart_count + len(constraints)))
            chart_count += len(constraints)
        kind = kinds[serial % len(kinds)]
        if kind == "maximal":
            texts = [tuple(f"x{i + 1}" for i in range(n))]
        elif kind == "monomial":
            texts = [tuple(f"x{i + 1}^{rng.randint(1, 3)}" for i in range(n))]
        else:
            texts = [tuple(_sparse_text(rng, n) for _ in range(1 + serial % 2))]
        if serial % 4 == 3:
            texts.append(("x1",))
        evecs = ((1, 2),) if len(texts) == 2 else (1, Fraction(1, 2))
        cases.append(towerval.BridgeCase(
            f"seeded-{serial:02d}-n{n}", n, TOWER_P, tuple(centers), tuple(texts), evecs
        ))
    return cases


def _sparse_text(rng, n) -> str:
    """Two terms of degree 2 and 3 with random variables and coefficients."""
    terms = []
    for degree in (2, 3):
        exps = [0] * n
        for _ in range(degree):
            exps[rng.randrange(n)] += 1
        mono = "*".join(f"x{i + 1}^{e}" for i, e in enumerate(exps) if e)
        terms.append(f"{rng.randint(1, 4)}*{mono}")
    return " + ".join(terms)


def monomial_valuation(weights, text: str) -> int:
    """Order of a unit-coefficient sum of monomials along a toric valuation."""
    best = None
    for term in text.split("+"):
        v = 0
        for factor in term.strip().split("*"):
            var, _, exp = factor.partition("^")
            v += weights[int(var[1:]) - 1] * int(exp or 1)
        best = v if best is None else min(best, v)
    return best


def expected_toric(exponents, bound: int):
    """The toric search's answer by arithmetic alone: the smallest
    sum(w) / min_m <w, m> over primitive w in [1, bound]^N, ties to the
    lexicographically first w."""
    best = None
    for w in itertools.product(range(1, bound + 1), repeat=len(exponents[0])):
        if math.gcd(*w) != 1:
            continue
        z = Fraction(sum(w), min(sum(a * b for a, b in zip(w, m)) for m in exponents))
        if best is None or z < best[0]:
            best = (z, w)
    return best


def _towers_fp(seed: int) -> list:
    rng = _rng("towers-fp/scalars", seed) if seed else None
    calls = []

    corpus = towerval.acceptance_corpus()
    built = [(case, *towerval.build_case(case)) for case in corpus + extra_bridge_cases(seed)]
    for case, t, ideals in built:
        calls.append(Call(
            f"bridge {case.name}",
            lambda t=t, ideals=ideals, case=case: _bridge_summary(
                towerval.shifted_log_discrepancy_check(
                    towerval.bridge_construct(t, ideals), case.exponent_vectors
                )
            ),
            _bridge_judge(f"bridge {case.name}", t, len(case.exponent_vectors)),
        ))
    for case, t, ideals in built[: len(corpus)]:
        calls.append(Call(f"suspend {case.name}", lambda t=t, a=ideals[0]: _suspend(t, a),
                          _pairs_equal(f"suspend {case.name}")))
        calls.append(Call(
            f"jacobian {case.name}",
            lambda t=t: [(r.k, discrepancy_via_jacobian(t, r.did)) for r in t.divisors],
            _pairs_equal(f"jacobian {case.name}"),
        ))

    dom = towerval.GF(TOWER_P)
    lam = _fp_units(rng, TOWER_P, 4)
    scalars = _fp_units(rng, TOWER_P, len(DEEP_GENS))
    deep = towerval.Ideal(dom, 4, [
        towerval.parse_polynomial(_scaled_text(g, lam, s, _fmt_fp(TOWER_P)), dom, 4)
        for g, s in zip(DEEP_GENS, scalars)
    ])
    deep_expected = [
        (3 * j, min(monomial_valuation((1, j, j, j), g) for g in DEEP_GENS))
        for j in range(1, DEEP_STEPS + 1)
    ]
    calls.append(Call(f"deep A^4 tower, {DEEP_STEPS} steps", lambda: _deep_tower(dom, deep),
                      _expect_value(f"deep A^4 tower, {DEEP_STEPS} steps", deep_expected)))

    lam = _fp_units(rng, TOWER_P, 3)
    scalars = _fp_units(rng, TOWER_P, len(TORIC_GENS))
    toric = towerval.Ideal(dom, 3, [
        towerval.parse_polynomial(_scaled_text(g, lam, s, _fmt_fp(TOWER_P)), dom, 3)
        for g, s in zip(TORIC_GENS, scalars)
    ])
    exponents = [next(iter(g.terms)) for g in toric.gens]
    z, w = expected_toric(exponents, TORIC_BOUND)
    label = f"toric search ({', '.join(TORIC_GENS)}) bound {TORIC_BOUND}"
    calls.append(Call(
        label,
        lambda: _witness(towerval.toric_weight_search(toric, TORIC_BOUND)),
        _expect_value(label, (z, w)),
    ))
    return calls


def _witness(w):
    return w.z, w.weights


def _suspend(t, a):
    """(value, check) pairs: valuations survive suspension, and the suspended
    discrepancies agree with the Jacobian route."""
    t2, padded = towerval.suspend(t, a)
    out = []
    for rec in t.divisors:
        out.append((towerval.valuation(t, rec.did, a), towerval.valuation(t2, rec.did, padded)))
        out.append((t2.divisor(rec.did).k, discrepancy_via_jacobian(t2, rec.did)))
    return out


def _deep_tower(dom, a):
    """Blow up the origin of the x1-chart twelve times; the j-th divisor is
    the monomial valuation with weights (1, j, j, j) and k = 3j."""
    t = towerval.new_tower(4, dom)
    cid = 0
    out = []
    for _ in range(DEEP_STEPS):
        t, did = towerval.blow_up(t, towerval.CenterSpec.make(cid, {i: 0 for i in range(4)}, dom))
        cid = t.steps[-1].chart_ids[0]
        out.append((t.divisor(did).k, towerval.valuation(t, did, a)))
    return out


def _pairs_equal(label):
    def judge(result, exc):
        if exc is not None:
            return _raised(label, exc)
        bad = [pair for pair in result if pair[0] != pair[1]]
        if bad:
            return [(label, "failed", f"unequal pairs {bad}")]
        return [(label, "ok", "")]
    return judge


def _bridge_summary(report):
    return (report.n, report.k_e, report.k_f, report.valuations, report.shifted,
            report.point_1, report.point_2)


def _bridge_judge(label, t, n_evecs):
    def judge(summary, exc):
        if exc is not None:
            return _raised(label, exc)
        n, k_e, k_f, valuations, shifted, _, _ = summary
        errors = []
        k_jacobian = discrepancy_via_jacobian(t, t.last_divisor_id())
        if k_e != k_jacobian:
            errors.append(f"k_E={k_e} but the Jacobian gives {k_jacobian}")
        if k_f != 2 * (n - 1) + k_e:
            errors.append(f"k_F={k_f} is not 2(N-1)+k_E with k_E={k_e}")
        for i, triple in enumerate(valuations):
            if len(set(triple)) != 1:
                errors.append(f"valuation triple {i} differs: {triple}")
        if len(shifted) != n_evecs:
            errors.append(f"{len(shifted)} shifted checks for {n_evecs} exponent vectors")
        for evec, a_p, a_q in shifted:
            if a_q != 2 * (n - 1) + a_p:
                errors.append(f"e={evec}: a_Q={a_q} is not 2(N-1)+a_p with a_p={a_p}")
        return [(label, "failed", "; ".join(errors))] if errors else [(label, "ok", "")]

    return judge


_PREPARE = {
    "contact-q": _contact_q,
    "session-fp": _session_fp,
    "towers-fp": _towers_fp,
}
