"""Script-driven command line front end.

A script declares one ring, then names ideals and towers, then runs
commands against them.  Output is deterministic key=value text (or the
same data as json) so runs can be diffed byte for byte; rationals print
as num/den, booleans as lowercase words, and nothing ever prints a
timestamp.

Exit codes sort failures by kind: 2 for anything wrong with the input,
1 for a mathematical check that did not hold, 3 for exhausted search or
step budgets.  A crash with a traceback is a bug, not an exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .bridge import (
    acceptance_corpus,
    bridge_construct,
    build_case,
    cross_characteristic_suite,
    shifted_log_discrepancy_check,
)
from .errors import (
    InputError,
    MathCheckFailed,
    ResourceExhausted,
    ScriptSyntaxError,
    UnknownName,
)
from .invariants import (
    certify_not_log_canonical,
    lct_witness,
    log_discrepancy,
    toric_weight_search,
)
from .jets import (
    DEFAULT_GB_BUDGET,
    compare_heights,
    height_of_ideal,
    jet_equations,
    lct_estimate_at_origin,
    mld_estimate,
)
from .polyring import GF, QQ, Domain, Ideal, MultiIdeal, parse_polynomial
from .tower import CenterSpec, blow_up, new_tower, suspend, valuation

@dataclass
class SessionScript:
    n: int
    p: int
    domain: Domain
    ideals: dict
    towers: dict
    commands: list  # (line number, command name, argument tokens, raw text)


@dataclass
class _Block:
    index: int
    raw: str
    lines: list = field(default_factory=list)

    def add(self, *pairs):
        self.lines.append(list(pairs))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(_fmt(v) for v in value) + ")"
    if value is None:
        return "none"
    return str(value)


def _fmt_center(cs: CenterSpec, rational: bool = False) -> str:
    """A center as text; ``rational`` prints its constants as num/den,
    integral ones included (QQ keeps those as ints)."""
    parts = [f"chart={cs.chart}"]
    parts += [f"x{i + 1}={_fmt(Fraction(c) if rational else c)}" for i, c in cs.constraints]
    return "(" + ",".join(parts) + ")"


# -- parsing ----------------------------------------------------------------------


def _split_top_level(text: str, sep: str):
    """Split on a separator, ignoring occurrences inside parentheses."""
    out, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ScriptSyntaxError(f"unbalanced ')' at column {i + 1}")
        elif ch == sep and depth == 0:
            out.append(text[start:i])
            start = i + 1
    if depth:
        raise ScriptSyntaxError("unbalanced '(' in statement")
    out.append(text[start:])
    return out


def _tokens(text: str):
    return [t for t in _split_top_level(text.replace("\t", " "), " ") if t]


def _err(ln: int, msg: str):
    raise ScriptSyntaxError(f"line {ln}: {msg}")


def _parse_const(text: str, domain: Domain, ln: int):
    text = text.strip()
    try:
        if domain.p:
            return domain.coerce(int(text))
        return domain.coerce(Fraction(text))
    except (ValueError, ZeroDivisionError):
        _err(ln, f"bad constant {text!r} for this ring")


def _parse_rational(text: str, ln: int) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        _err(ln, f"bad rational {text!r}")


def _parse_step(token_text: str, t: Tower, domain: Domain, n: int, ln: int):
    tokens = _tokens(token_text)
    if not tokens or tokens[0] != "blowup":
        _err(ln, f"tower steps start with 'blowup', got {token_text.strip()!r}")
    chart = None
    assignment = None
    for tok in tokens[1:]:
        if "=" not in tok:
            _err(ln, f"expected key=value in tower step, got {tok!r}")
        key, _, val = tok.partition("=")
        if key == "chart":
            chart = 0 if val == "root" else None
            if chart is None:
                try:
                    chart = int(val)
                except ValueError:
                    _err(ln, f"chart must be 'root' or an integer, got {val!r}")
        elif key == "point":
            if not (val.startswith("(") and val.endswith(")")):
                _err(ln, "point wants a parenthesized coordinate list")
            coords = _split_top_level(val[1:-1], ",")
            if len(coords) != n:
                _err(ln, f"point has {len(coords)} coordinates, ring has {n}")
            assignment = {i: _parse_const(c, domain, ln) for i, c in enumerate(coords)}
        elif key == "set":
            if not (val.startswith("(") and val.endswith(")")):
                _err(ln, "set wants a parenthesized list like (x1=0,x2=0)")
            assignment = {}
            for item in _split_top_level(val[1:-1], ","):
                m = re.fullmatch(r"\s*x(\d+)\s*=\s*([^\s]+)\s*", item)
                if not m:
                    _err(ln, f"bad constraint {item.strip()!r} in set=")
                idx = int(m.group(1)) - 1
                if not 0 <= idx < n:
                    _err(ln, f"variable x{m.group(1)} out of range (ring has {n} variables)")
                assignment[idx] = _parse_const(m.group(2), domain, ln)
        else:
            _err(ln, f"unknown tower step key {key!r}")
    if chart is None:
        _err(ln, "tower step is missing chart=")
    if assignment is None:
        _err(ln, "tower step needs point=(...) or set=(...)")
    return blow_up(t, CenterSpec.make(chart, assignment, domain))


def parse_script(text: str) -> SessionScript:
    """Parse a full session script, stopping at the first error."""
    script = None
    names = set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split(None, 1)[0]

        if head == "ring":
            if script is not None:
                _err(ln, "ring is already declared; scripts hold a single ring")
            m = re.fullmatch(r"ring\s+N=(\d+)\s+p=(\d+)", line)
            if not m:
                _err(ln, "ring wants the form 'ring N=<int> p=<prime or 0>'")
            n, p = int(m.group(1)), int(m.group(2))
            if n < 2:
                _err(ln, f"ring needs N >= 2 variables, got N={n}")
            domain = QQ if p == 0 else GF(p)
            script = SessionScript(n, p, domain, {}, {}, [])
            continue

        if script is None:
            _err(ln, "the ring must be declared before anything else")

        if head == "ideal":
            m = re.fullmatch(r"ideal\s+([A-Za-z_]\w*)\s*:\s*(.+)", line)
            if not m:
                _err(ln, "ideal wants the form 'ideal <name>: gen, gen, ...'")
            name = m.group(1)
            if name in names:
                _err(ln, f"the name {name!r} is already taken")
            gens = []
            for part in _split_top_level(m.group(2), ","):
                try:
                    gens.append(parse_polynomial(part.strip(), script.domain, script.n))
                except ScriptSyntaxError as e:
                    _err(ln, f"in generator {part.strip()!r}: {e}")
            script.ideals[name] = Ideal(script.domain, script.n, gens)
            names.add(name)
            continue

        if head == "tower":
            m = re.fullmatch(r"tower\s+([A-Za-z_]\w*)\s*:\s*(.+)", line)
            if not m:
                _err(ln, "tower wants the form 'tower <name>: blowup ...; blowup ...'")
            name = m.group(1)
            if name in names:
                _err(ln, f"the name {name!r} is already taken")
            t = new_tower(script.n, script.domain)
            for step_text in _split_top_level(m.group(2), ";"):
                t, _ = _parse_step(step_text, t, script.domain, script.n, ln)
            script.towers[name] = t
            names.add(name)
            continue

        if head in _HANDLERS:
            tokens = _tokens(line)[1:]
            _check_references(script, head, tokens, ln)
            script.commands.append((ln, head, tokens, line))
            continue

        _err(ln, f"unknown statement {head!r}")

    if script is None:
        raise ScriptSyntaxError("empty script: no ring declaration found")
    return script


def _check_references(script: SessionScript, name: str, tokens, ln: int):
    """Declared-name validation only; value checks happen at run time."""
    for tok in tokens:
        base = tok.split(":", 1)[0]
        if "=" in base or base in ("tamper",) or re.fullmatch(r"-?\d+", base):
            continue
        if base in script.ideals or base in script.towers:
            continue
        raise UnknownName(f"line {ln}: {base!r} is not a declared ideal or tower")


# -- command execution ---------------------------------------------------------------


def _ideal(script, name, ln):
    if name not in script.ideals:
        raise UnknownName(f"line {ln}: {name!r} is not a declared ideal")
    return script.ideals[name]


def _tower(script, name, ln):
    if name not in script.towers:
        raise UnknownName(f"line {ln}: {name!r} is not a declared tower")
    return script.towers[name]


def _divisor_arg(tokens, t, ln):
    """Pull an optional divisor=<id> token; default is the last divisor."""
    rest = []
    did = None
    for tok in tokens:
        if tok.startswith("divisor="):
            did = int(tok.split("=", 1)[1])
        else:
            rest.append(tok)
    if did is None:
        did = t.last_divisor_id()
    return did, rest


def _factor_args(script, tokens, ln):
    """Parse name:exponent tokens into a MultiIdeal."""
    factors = []
    for tok in tokens:
        name, _, etext = tok.partition(":")
        e = _parse_rational(etext, ln) if etext else Fraction(1)
        factors.append((_ideal(script, name, ln), e))
    return MultiIdeal(factors)


def _cmd_keval(script, tokens, opt, block, ln):
    t = _tower(script, tokens[0], ln)
    did, _ = _divisor_arg(tokens[1:], t, ln)
    block.add(("divisor", did), ("k", t.divisor(did).k))


def _cmd_veval(script, tokens, opt, block, ln):
    t = _tower(script, tokens[0], ln)
    did, rest = _divisor_arg(tokens[1:], t, ln)
    a = _ideal(script, rest[0], ln)
    block.add(("divisor", did), ("v", valuation(t, did, a)))


def _cmd_logdisc(script, tokens, opt, block, ln):
    t = _tower(script, tokens[0], ln)
    did, rest = _divisor_arg(tokens[1:], t, ln)
    report = log_discrepancy(t, did, _factor_args(script, rest, ln))
    block.add(("divisor", did), ("k", report.k))
    for idx, v in report.valuations:
        block.add((f"v_{idx}", v))
    block.add(("a", report.a))


def _cmd_zeval(script, tokens, opt, block, ln):
    t = _tower(script, tokens[0], ln)
    did, rest = _divisor_arg(tokens[1:], t, ln)
    w = lct_witness(t, did, _ideal(script, rest[0], ln))
    block.add(("divisor", did), ("k", w.k), ("v", w.v), ("z", w.z))


def _cmd_lct(script, tokens, opt, block, ln):
    a = _ideal(script, tokens[0], ln)
    value, depth = lct_estimate_at_origin(a, opt["cap"], budget=opt["gb_budget"])
    block.add(("lct_estimate", value), ("lct_depth", depth))
    if a.nvars in (2, 3) and a.is_monomial():
        w = toric_weight_search(a, opt["weight_bound"])
        block.add(("toric_z", w.z), ("toric_weights", w.weights))


def _cmd_mld(script, tokens, opt, block, ln):
    ma = _factor_args(script, tokens, ln)
    value, depths = mld_estimate(ma, opt["cap"], budget=opt["gb_budget"], nvars=script.n)
    block.add(("mld_estimate", value), ("mld_depths", depths))


def _cmd_notlc(script, tokens, opt, block, ln):
    ma = _factor_args(script, tokens, ln)
    cert = certify_not_log_canonical(ma, opt["cap"], budget=opt["gb_budget"])
    if cert is None:
        block.add(("certificate", "unknown"))
    else:
        block.add(
            ("certificate", "found"),
            ("depths", cert.mvec),
            ("codim", cert.codim),
            ("value", cert.value),
        )


def _cmd_heights(script, tokens, opt, block, ln):
    a = _ideal(script, tokens[0], ln)
    if script.p:
        hp, hq = compare_heights(a, budget=opt["gb_budget"])
        block.add(("height_p", hp), ("height_q", hq))
    else:
        block.add(("height", height_of_ideal(a, budget=opt["gb_budget"])))


def _cmd_jets(script, tokens, opt, block, ln):
    a = _ideal(script, tokens[0], ln)
    level = int(tokens[1]) if len(tokens) > 1 else opt["cap"]
    js = jet_equations(a, level)
    names = js.var_names()
    for i, coeffs in enumerate(js.coefficients):
        for j, c in enumerate(coeffs):
            block.add((f"F{i}_{j}", c.text(names)))


def _cmd_bridge(script, tokens, opt, block, ln):
    t = _tower(script, tokens[0], ln)
    ideal_names, evecs, tamper = [], [], False
    for tok in tokens[1:]:
        if tok == "tamper":
            tamper = True
        elif tok.startswith("e="):
            val = tok[2:]
            if val.startswith("(") and val.endswith(")"):
                parts = _split_top_level(val[1:-1], ",")
                evecs.append(tuple(_parse_rational(x, ln) for x in parts))
            else:
                evecs.append((_parse_rational(val, ln),))
        else:
            ideal_names.append(tok)
    ideals = [_ideal(script, name, ln) for name in ideal_names]
    report = bridge_construct(t, ideals, tamper=tamper)
    if not evecs:
        evecs = [(Fraction(1),) * len(ideals)]
    report = shifted_log_discrepancy_check(report, evecs)
    block.add(("n", report.n), ("p", report.p))
    block.add(
        ("k_E", report.k_e),
        ("k_F", report.k_f),
        ("shift_ok", True),
        ("v_ok", report.v_identity_ok),
    )
    block.add(("E", report.input_divisor), ("F1", report.middle_divisor), ("F", report.final_divisor))
    block.add(("P1", _fmt_center(report.point_1)), ("P2", _fmt_center(report.point_2)))
    block.add(
        ("lifted_P1", _fmt_center(report.lifted_point_1, rational=True)),
        ("lifted_P2", _fmt_center(report.lifted_point_2, rational=True)),
    )
    for i, (ve, vp, vq) in enumerate(report.valuations):
        block.add((f"v_E_{i}", ve), (f"v_Fp_{i}", vp), (f"v_Fq_{i}", vq))
    for i, (evec, a_p, a_q) in enumerate(report.shifted):
        block.add((f"shift_{i}_e", evec), (f"shift_{i}_a_p", a_p), (f"shift_{i}_a_q", a_q))


def _cmd_crosschar(script, tokens, opt, block, ln):
    ma = _factor_args(script, tokens, ln)
    rep = cross_characteristic_suite(ma, opt["cap"], budget=opt["gb_budget"])
    for cell in rep.cells:
        pairs = [
            ("m", cell.mvec),
            ("codim_p", "unknown" if cell.codim_p is None else cell.codim_p),
            ("codim_q", "unknown" if cell.codim_q is None else cell.codim_q),
        ]
        if cell.note:
            pairs.append(("note", cell.note))
        block.add(*pairs)
    block.add(("mld_p", rep.mld_p), ("mld_q", rep.mld_q), ("mld_ordered", rep.mld_ordered))
    block.add(
        ("lct_p", rep.lct_p),
        ("lct_q", rep.lct_q),
        ("lct_ordered", rep.lct_ordered),
    )


def _cmd_suspend(script, tokens, opt, block, ln):
    t = _tower(script, tokens[0], ln)
    a = _ideal(script, tokens[1], ln) if len(tokens) > 1 else None
    t2, padded = suspend(t, a)
    for rec in t.divisors:
        pairs = [
            ("divisor", rec.did),
            ("k", rec.k),
            ("k_suspended", t2.divisor(rec.did).k),
        ]
        if a is not None:
            pairs.append(("v", valuation(t, rec.did, a)))
            pairs.append(("v_suspended", valuation(t2, rec.did, padded)))
        block.add(*pairs)


def _cmd_selftest(script, tokens, opt, block, ln):
    failed = []
    corpus = acceptance_corpus()
    for case in corpus:
        try:
            t, ideals = build_case(case)
            report = bridge_construct(t, ideals)
            report = shifted_log_discrepancy_check(report, case.exponent_vectors)
        except Exception as e:  # report, then fail the run as a whole below
            failed.append(case.name)
            block.add(("case", case.name), ("ok", False), ("error", type(e).__name__))
            continue
        block.add(
            ("case", case.name),
            ("ok", True),
            ("k_E", report.k_e),
            ("k_F", report.k_f),
        )
    block.add(("passed", len(corpus) - len(failed)), ("failed", len(failed)))
    if failed:
        raise MathCheckFailed(f"selftest failed on: {', '.join(failed)}")


_HANDLERS = {
    "keval": _cmd_keval,
    "veval": _cmd_veval,
    "logdisc": _cmd_logdisc,
    "zeval": _cmd_zeval,
    "lct": _cmd_lct,
    "mld": _cmd_mld,
    "notlc": _cmd_notlc,
    "heights": _cmd_heights,
    "jets": _cmd_jets,
    "bridge": _cmd_bridge,
    "crosschar": _cmd_crosschar,
    "suspend": _cmd_suspend,
    "selftest": _cmd_selftest,
}


def run(script: SessionScript, *, cap=4, gb_budget=DEFAULT_GB_BUDGET, weight_bound=8, fmt="text") -> str:
    if gb_budget < 0:
        raise ValueError(f"gb_budget must be >= 0, got {gb_budget}")
    opt = {"cap": cap, "gb_budget": gb_budget, "weight_bound": weight_bound}
    blocks = []
    for index, (ln, name, tokens, raw) in enumerate(script.commands, start=1):
        block = _Block(index, raw)
        try:
            _HANDLERS[name](script, tokens, opt, block, ln)
        except (IndexError,):
            raise ScriptSyntaxError(f"command {index} ({name}): missing arguments") from None
        except MathCheckFailed as e:
            if name == "selftest":
                raise
            raise type(e)(f"command {index} ({name}): {e}") from None
        except (InputError, ResourceExhausted, ValueError, OverflowError) as e:
            raise type(e)(f"command {index} ({name}): {e}") from None
        blocks.append(block)

    if fmt == "json":
        payload = [
            {
                "index": b.index,
                "command": b.raw,
                "lines": [{k: _fmt(v) for k, v in line} for line in b.lines],
            }
            for b in blocks
        ]
        return json.dumps(payload, indent=2, sort_keys=True)

    out = []
    for b in blocks:
        out.append(f"# command {b.index}: {b.raw}")
        for line in b.lines:
            out.append(" ".join(f"{k}={_fmt(v)}" for k, v in line))
        out.append("")
    return "\n".join(out).rstrip("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="towerval",
        description="exact singularity invariants on blow-up towers, with "
        "characteristic p to 0 lifting checks",
        argument_default=argparse.SUPPRESS,  # the defaults are run's
    )
    ap.add_argument("--script", help="script file; omit or use '-' for stdin")
    ap.add_argument("--cap", type=int, help="estimator depth cap")
    ap.add_argument("--gb-budget", type=int, help="Groebner step budget")
    ap.add_argument("--weight-bound", type=int, help="toric weight search bound")
    ap.add_argument("--format", choices=("text", "json"), dest="fmt")
    opts = vars(ap.parse_args(argv))
    path = opts.pop("script", None)
    if opts.get("gb_budget", 0) < 0:
        print(f"error: --gb-budget must be >= 0, got {opts['gb_budget']}", file=sys.stderr)
        return 2

    try:
        if not path or path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    try:
        out = run(parse_script(text), **opts)
    except MathCheckFailed as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except (InputError, ValueError, OverflowError) as e:
        # An OverflowError is an input number too large for a machine-sized
        # index (a ring dimension or a jet level): the package has no floats.
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except ResourceExhausted as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    try:
        print(out)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone.  Point stdout at devnull so the flush at
        # interpreter shutdown cannot raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0


if __name__ == "__main__":
    sys.exit(main())
