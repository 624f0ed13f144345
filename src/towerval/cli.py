"""Script-driven command line front end.

A script declares one ring, then names ideals and towers, then runs
commands against them.  Output is deterministic key=value text (or the
same data as json) so runs can be diffed byte for byte; rationals print
as num/den, booleans as lowercase words, and nothing ever prints a
timestamp.

``parse_script`` binds every command's arguments to values once, by the
kinds ``_COMMANDS`` lists, so ``run`` only computes and a bad argument is
refused before any command runs.

Exit codes sort failures by kind: 2 for anything wrong with the input,
1 for a mathematical check that did not hold, 3 for an exhausted search,
step budget or memory; ``EXIT_CODES`` is that map.  Every failure names
its script line, and a failure while a command runs also names the
command.  A crash with a traceback is a bug, not an exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import namedtuple
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
from .polyring import GF, QQ, Domain, Ideal, MultiIdeal, _number_text, clip, parse_polynomial, read_number
from .tower import CenterSpec, Tower, blow_up, new_tower, suspend, valuation


class SessionScript(namedtuple("SessionScript", "n domain ideals towers commands")):
    """A parsed script; ``commands`` holds (line number, command name,
    bound argument values, raw text) tuples."""

    __slots__ = ()


class _Block(namedtuple("_Block", "index raw lines")):
    __slots__ = ()

    def add(self, *pairs):
        self.lines.append(list(pairs))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return f"{_number_text(value.numerator)}/{_number_text(value.denominator)}"
    if isinstance(value, int):
        return _number_text(value)
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


def _check_balance(line: str):
    """Refuse a script line whose parentheses do not balance; a column
    counts from the start of the line."""
    depth = 0
    for i, ch in enumerate(line):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                _err(f"unbalanced ')' at column {i + 1}")
    if depth:
        _err("unbalanced '(' in statement")


def _split_top_level(text: str, sep: str):
    """Split on a separator, ignoring occurrences inside parentheses.  The
    text is balanced: a piece of a line ``_check_balance`` passed, or the
    inside of one group (``_group``)."""
    out, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == sep and depth == 0:
            out.append(text[start:i])
            start = i + 1
    out.append(text[start:])
    return out


def _group(val: str):
    """The inside of ``val`` if it is one parenthesized group, as (0,0) is
    and (0),(0) is not; else None.  ``val`` is balanced."""
    if not val.startswith("("):
        return None
    depth = 0
    for i, ch in enumerate(val):
        depth += (ch == "(") - (ch == ")")
        if not depth:
            return val[1:i] if i == len(val) - 1 else None
    return None


def _tokens(text: str):
    return [t for t in _split_top_level(text.replace("\t", " "), " ") if t]


def _err(msg: str):
    raise ScriptSyntaxError(msg)


# The one map from a failure to its exit code (an OverflowError is an input
# number too large for a machine-sized index).  parse_script and run catch
# these classes and add where the failure happened; main reads the code.
EXIT_CODES = {MathCheckFailed: 1, InputError: 2, ValueError: 2, OverflowError: 2,
              ResourceExhausted: 3, MemoryError: 3}
_FAILURES = tuple(EXIT_CODES)


def _located(e: Exception, where: str) -> Exception:
    """``e`` again, its message led by ``where``; of these classes only a
    MemoryError comes without a message."""
    return type(e)(where + (str(e) or "out of memory"))


def _parse_const(text: str, domain: Domain):
    """A center constant: an integer over F_p, num/den over Q."""
    text = text.strip()
    try:
        c = read_number(text)
    except ScriptSyntaxError:
        c = None
    if c is None or domain.p and isinstance(c, Fraction):
        _err(f"bad constant {clip(text)!r} for this ring")
    return domain.coerce(c)


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(read_number(text.strip()))
    except ScriptSyntaxError:
        _err(f"bad rational {clip(text)!r}")


def _parse_id(text: str, what: str) -> int:
    """A chart or divisor id; a sign is read, so that a negative id is
    refused as an unknown chart or divisor."""
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        _err(f"{what}, got {text!r}")
    return read_number(text)


def _read_bounded(text: str, what: str, bound: int) -> int:
    """A nonnegative integer literal that may not exceed ``bound``; ``what``
    leads the value in the refusal."""
    value = read_number(text)
    if value > bound:
        _err(f"{what}{clip(text)} exceeds the bound {bound}")
    return value


def _parse_step(token_text: str, t: Tower, domain: Domain, n: int):
    tokens = _tokens(token_text)
    if not tokens or tokens[0] != "blowup":
        _err(f"tower steps start with 'blowup', got {token_text.strip()!r}")
    chart = None
    assignment = None
    for tok in tokens[1:]:
        if "=" not in tok:
            _err(f"expected key=value in tower step, got {tok!r}")
        key, _, val = tok.partition("=")
        if key == "chart":
            value = 0 if val == "root" else _parse_id(val, "chart must be 'root' or an integer")
            if chart is not None:
                _err("tower step gives chart= twice")
            chart = value
            continue
        if key == "point":
            inner = _group(val)
            if inner is None:
                _err("point wants a parenthesized coordinate list")
            coords = _split_top_level(inner, ",")
            if len(coords) != n:
                _err(f"point has {len(coords)} coordinates, ring has {n}")
            center = {i: _parse_const(c, domain) for i, c in enumerate(coords)}
        elif key == "set":
            inner = _group(val)
            if inner is None:
                _err("set wants a parenthesized list like (x1=0,x2=0)")
            center = {}
            for item in _split_top_level(inner, ","):
                m = re.fullmatch(r"\s*x([0-9]+)\s*=\s*([^\s]+)\s*", item)
                if not m:
                    _err(f"bad constraint {item.strip()!r} in set=")
                idx = read_number(m.group(1)) - 1
                if not 0 <= idx < n:
                    _err(f"variable x{clip(m.group(1))} out of range (ring has {n} variables)")
                c = _parse_const(m.group(2), domain)
                if idx in center:
                    _err(f"x{idx + 1} is set twice in set=")
                center[idx] = c
        else:
            _err(f"unknown tower step key {key!r}")
        if assignment is not None:
            _err("tower step gives more than one point= or set=")
        assignment = center
    if chart is None:
        _err("tower step is missing chart=")
    if assignment is None:
        _err("tower step needs point=(...) or set=(...)")
    return blow_up(t, CenterSpec.make(chart, assignment, domain))


def parse_script(text: str) -> SessionScript:
    """Parse a full session script, stopping at the first error."""
    script = None
    names = set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0]
        line = code.strip()
        if not line:
            continue
        try:
            _check_balance(code)
            head = line.split(None, 1)[0]

            if head == "ring":
                if script is not None:
                    _err("ring is already declared; scripts hold a single ring")
                m = re.fullmatch(r"ring\s+N=([0-9]+)\s+p=([0-9]+)", line)
                if not m:
                    _err("ring wants the form 'ring N=<int> p=<prime or 0>'")
                n, p = _read_bounded(m.group(1), "ring N=", sys.maxsize), read_number(m.group(2))
                if n < 2:
                    _err(f"ring needs N >= 2 variables, got N={n}")
                domain = QQ if p == 0 else GF(p)
                script = SessionScript(n, domain, {}, {}, [])
                continue

            if script is None:
                _err("the ring must be declared before anything else")

            if head == "ideal":
                m = re.fullmatch(r"ideal\s+([A-Za-z_]\w*)\s*:\s*(.+)", line)
                if not m:
                    _err("ideal wants the form 'ideal <name>: gen, gen, ...'")
                name = m.group(1)
                if name in names:
                    _err(f"the name {name!r} is already taken")
                gens = []
                for part in _split_top_level(m.group(2), ","):
                    try:
                        gens.append(parse_polynomial(part.strip(), script.domain, script.n))
                    except ScriptSyntaxError as e:
                        _err(f"in generator {clip(part.strip())!r}: {e}")
                script.ideals[name] = Ideal(script.domain, script.n, gens)
                names.add(name)
                continue

            if head == "tower":
                m = re.fullmatch(r"tower\s+([A-Za-z_]\w*)\s*:\s*(.+)", line)
                if not m:
                    _err("tower wants the form 'tower <name>: blowup ...; blowup ...'")
                name = m.group(1)
                if name in names:
                    _err(f"the name {name!r} is already taken")
                t = new_tower(script.n, script.domain)
                for step_text in _split_top_level(m.group(2), ";"):
                    t, _ = _parse_step(step_text, t, script.domain, script.n)
                script.towers[name] = t
                names.add(name)
                continue

            if head in _COMMANDS:
                script.commands.append((ln, head, _bind(script, head, _tokens(line)[1:]), line))
                continue

            _err(f"unknown statement {head!r}")
        except _FAILURES as e:
            raise _located(e, f"line {ln}: ") from None

    if script is None:
        raise ScriptSyntaxError("empty script: no ring declaration found")
    return script


# -- binding command arguments --------------------------------------------------------


def _lookup(script, name, kind):
    table = script.towers if kind == "tower" else script.ideals
    if name not in table:
        raise UnknownName(f"{name!r} is not a declared {kind}")
    return table[name]


def _factors(script, tokens):
    """name:exponent tokens as one MultiIdeal; a bare name has exponent 1."""
    factors = []
    for tok in tokens:
        name, colon, etext = tok.partition(":")
        e = _parse_rational(etext) if colon else Fraction(1)
        factors.append((_lookup(script, name, "ideal"), e))
    return MultiIdeal(factors)


def _bridge_args(script, tokens):
    """The ideals, exponent vectors (default: all ones) and tamper flag."""
    ideals, evecs, tamper = [], [], False
    for tok in tokens:
        if tok == "tamper":
            tamper = True
        elif tok.startswith("e="):
            inner = _group(tok[2:])
            parts = [tok[2:]] if inner is None else _split_top_level(inner, ",")
            evecs.append(tuple(_parse_rational(x) for x in parts))
        else:
            ideals.append(_lookup(script, tok, "ideal"))
    return ideals, evecs or [(Fraction(1),) * len(ideals)], tamper


def _bind(script, name, tokens):
    """A command's argument values, in its handler's order.  A command
    that reads divisor= gets the divisor id last, by default the newest."""
    kinds, takes_divisor = _COMMANDS[name][1:]
    did, words = None, []
    for tok in tokens:
        if takes_divisor and tok.startswith("divisor="):
            value = _parse_id(tok.split("=", 1)[1], "divisor wants an integer id")
            if did is not None:
                _err("divisor= given twice")
            did = value
        else:
            words.append(tok)
    words = iter(words)
    args = []
    least = sum(k in ("tower", "ideal", "factors+") for k in kinds)
    missing = f"missing arguments: {name} takes at least {least}"
    for kind in kinds:
        if kind in ("factors", "factors+"):
            args.append(_factors(script, words))
            if kind == "factors+" and not args[-1]:
                _err(missing)
        elif kind == "bridge":
            args += _bridge_args(script, words)
        else:
            tok = next(words, None)
            if tok is None:
                if kind in ("tower", "ideal"):
                    _err(missing)
                args.append(None)  # an optional argument left out
            elif kind == "level?":
                if not re.fullmatch(r"[0-9]+", tok):
                    _err(f"jets level must be a nonnegative integer, got {tok!r}")
                # a level L has N * (L + 1) jet variables
                args.append(_read_bounded(tok, "jets level ", sys.maxsize // script.n - 1))
            else:
                args.append(_lookup(script, tok, kind.rstrip("?")))
    for tok in words:
        _err(f"surplus argument {tok!r}: {name} takes at most {len(kinds)}")
    if takes_divisor:
        args.append(args[0].last_divisor_id() if did is None else did)
    return args


# -- command execution ---------------------------------------------------------------


def _cmd_keval(script, opt, block, t, did):
    block.add(("divisor", did), ("k", t.divisor(did).k))


def _cmd_veval(script, opt, block, t, a, did):
    block.add(("divisor", did), ("v", valuation(t, did, a)))


def _cmd_logdisc(script, opt, block, t, ma, did):
    report = log_discrepancy(t, did, ma)
    block.add(("divisor", did), ("k", report.k))
    for idx, v in report.valuations:
        block.add((f"v_{idx}", v))
    block.add(("a", report.a))


def _cmd_zeval(script, opt, block, t, a, did):
    w = lct_witness(t, did, a)
    block.add(("divisor", did), ("k", w.k), ("v", w.v), ("z", w.z))


def _cmd_lct(script, opt, block, a):
    value, depth = lct_estimate_at_origin(a, opt["cap"], budget=opt["gb_budget"])
    block.add(("lct_estimate", value), ("lct_depth", depth))
    if a.nvars in (2, 3) and a.is_monomial():
        w = toric_weight_search(a, opt["weight_bound"])
        block.add(("toric_z", w.z), ("toric_weights", w.weights))


def _cmd_mld(script, opt, block, ma):
    value, depths = mld_estimate(ma, opt["cap"], budget=opt["gb_budget"], nvars=script.n)
    block.add(("mld_estimate", value), ("mld_depths", depths))


def _cmd_notlc(script, opt, block, ma):
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


def _cmd_heights(script, opt, block, a):
    if script.domain.p:
        hp, hq = compare_heights(a, budget=opt["gb_budget"])
        block.add(("height_p", hp), ("height_q", hq))
    else:
        block.add(("height", height_of_ideal(a, budget=opt["gb_budget"])))


def _cmd_jets(script, opt, block, a, level):
    js = jet_equations(a, opt["cap"] if level is None else level)
    names = js.var_names()
    for i, coeffs in enumerate(js.coefficients):
        for j, c in enumerate(coeffs):
            block.add((f"F{i}_{j}", c.text(names)))


def _cmd_bridge(script, opt, block, t, ideals, evecs, tamper):
    report = bridge_construct(t, ideals, tamper=tamper)
    report = shifted_log_discrepancy_check(report, evecs)
    block.add(("n", report.n), ("p", report.p))
    block.add(("k_E", report.k_e), ("k_F", report.k_f), ("shift_ok", True), ("v_ok", True))
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


def _cmd_crosschar(script, opt, block, ma):
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
    block.add(("lct_p", rep.lct_p), ("lct_q", rep.lct_q), ("lct_ordered", rep.lct_ordered))


def _cmd_suspend(script, opt, block, t, a):
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


def _cmd_selftest(script, opt, block):
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


# name -> (handler, the kinds of its arguments in order, whether it reads
# divisor=).  A kind ending in ? may be left out; factors (name:exponent
# tokens) and bridge (ideals, e= vectors, tamper) read the rest of the line,
# and factors+ reads it as factors does but needs at least one.
_COMMANDS = {
    "keval": (_cmd_keval, ("tower",), True),
    "veval": (_cmd_veval, ("tower", "ideal"), True),
    "logdisc": (_cmd_logdisc, ("tower", "factors"), True),
    "zeval": (_cmd_zeval, ("tower", "ideal"), True),
    "lct": (_cmd_lct, ("ideal",), False),
    "mld": (_cmd_mld, ("factors",), False),
    "notlc": (_cmd_notlc, ("factors",), False),
    "heights": (_cmd_heights, ("ideal",), False),
    "jets": (_cmd_jets, ("ideal", "level?"), False),
    "bridge": (_cmd_bridge, ("tower", "bridge"), False),
    "crosschar": (_cmd_crosschar, ("factors+",), False),
    "suspend": (_cmd_suspend, ("tower", "ideal?"), False),
    "selftest": (_cmd_selftest, (), False),
}


def run(script: SessionScript, *, cap=4, gb_budget=DEFAULT_GB_BUDGET, weight_bound=8, fmt="text") -> str:
    if gb_budget < 0:
        raise ValueError(f"gb_budget must be >= 0 (--gb-budget), got {gb_budget}")
    if weight_bound < 1:
        raise ValueError(f"weight_bound must be >= 1 (--weight-bound), got {weight_bound}")
    bound = sys.maxsize // script.n - 1  # the jets level bound: `jets a` expands to level cap
    if cap > bound:
        raise ValueError(f"--cap {clip(_number_text(cap))} exceeds the bound {bound}")
    opt = {"cap": cap, "gb_budget": gb_budget, "weight_bound": weight_bound}
    blocks = []
    for index, (ln, name, args, raw) in enumerate(script.commands, start=1):
        block = _Block(index, raw, [])
        try:
            _COMMANDS[name][0](script, opt, block, *args)
        except _FAILURES as e:
            if name == "selftest" and isinstance(e, MathCheckFailed):
                raise  # the case list it prints says where
            raise _located(e, f"command {index} ({name}): line {ln}: ") from None
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

    try:
        if not path or path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        out = run(parse_script(text), **opts)
    except OSError as e:  # the script file could not be read
        print(f"error: {e}", file=sys.stderr)
        return 2
    except _FAILURES as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(e, cls))
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
