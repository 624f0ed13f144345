from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import towerval
import towerval.cli
from towerval import errors
from towerval.cli import main, parse_script, run


def run_main(tmp_path, capsys, text, *flags):
    path = tmp_path / "script.tv"
    path.write_text(text)
    code = main(["--script", str(path), *flags])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BASIC = """\
ring N=2 p=5
ideal a: x1, x2
tower T: blowup chart=root point=(0,0)
"""


# -- parsing -----------------------------------------------------------------------


def test_parse_spec_example_script():
    script = parse_script(
        "ring N=2 p=5\nideal a: x1, x2\ntower T: blowup chart=root point=(0,0)\nbridge T a"
    )
    assert script.n == 2 and script.domain.p == 5
    assert set(script.ideals) == {"a"} and set(script.towers) == {"T"}
    assert [name for _, name, _, _ in script.commands] == ["bridge"]


def test_variable_out_of_range_names_line_and_column():
    with pytest.raises(errors.ScriptSyntaxError) as info:
        parse_script("ring N=2 p=5\nideal a: x3")
    assert "line 2" in str(info.value) and "column" in str(info.value)


def test_ring_must_come_first_and_only_once():
    with pytest.raises(errors.ScriptSyntaxError):
        parse_script("ideal a: x1\nring N=2 p=5")
    with pytest.raises(errors.ScriptSyntaxError):
        parse_script("ring N=2 p=5\nring N=3 p=5")
    with pytest.raises(errors.ScriptSyntaxError):
        parse_script("# only a comment\n")


def test_duplicate_names_are_rejected():
    with pytest.raises(errors.ScriptSyntaxError):
        parse_script("ring N=2 p=5\nideal a: x1\ntower a: blowup chart=root point=(0,0)")


def test_undeclared_reference_is_an_unknown_name():
    with pytest.raises(errors.UnknownName):
        parse_script(BASIC + "veval T missing")


def test_unknown_statement_is_a_syntax_error():
    with pytest.raises(errors.ScriptSyntaxError):
        parse_script("ring N=2 p=5\nfrobnicate a")


def test_prime_field_points_must_be_integers():
    with pytest.raises(errors.ScriptSyntaxError):
        parse_script("ring N=2 p=5\ntower T: blowup chart=root point=(1/2,0)")


def test_rational_ring_accepts_fraction_constants():
    script = parse_script(
        "ring N=2 p=0\ntower T: blowup chart=root point=(1/2,-3)"
    )
    t = script.towers["T"]
    assert len(t.steps) == 1


def test_subspace_steps_and_chart_ids():
    script = parse_script(
        "ring N=3 p=5\ntower T: blowup chart=root set=(x1=0, x2=0); blowup chart=1 point=(0,0,0)"
    )
    assert [d.k for d in script.towers["T"].divisors] == [1, 3]


# -- running -----------------------------------------------------------------------


def test_keval_and_divisor_selection(tmp_path, capsys):
    text = (
        "ring N=2 p=5\n"
        "tower T: blowup chart=root point=(0,0); blowup chart=1 point=(0,0)\n"
        "keval T\nkeval T divisor=1\n"
    )
    code, out, _ = run_main(tmp_path, capsys, text)
    assert code == 0
    assert "divisor=2 k=2" in out and "divisor=1 k=1" in out


def test_lct_line_matches_the_documented_format(tmp_path, capsys):
    code, out, _ = run_main(tmp_path, capsys, BASIC + "lct a\n", "--cap", "3")
    assert code == 0
    assert "lct_estimate=2/1" in out
    assert "toric_z=2/1 toric_weights=(1,1)" in out


def test_bridge_identity_line(tmp_path, capsys):
    code, out, _ = run_main(tmp_path, capsys, BASIC + "bridge T a\n")
    assert code == 0
    assert "k_E=1 k_F=3 shift_ok=true v_ok=true" in out


def test_bridge_on_a_branching_tower(tmp_path, capsys):
    # E2 lies over a point of chart 1, which E3's home chart (in chart 2) does not meet
    text = (
        "ring N=2 p=5\nideal a: x1, x2\n"
        "tower T: blowup chart=root point=(0,0); blowup chart=1 point=(0,0); "
        "blowup chart=2 point=(0,0)\n"
        "bridge T a\n"
    )
    code, out, err = run_main(tmp_path, capsys, text)
    assert (code, err) == (0, "")
    assert "k_E=2 k_F=4 shift_ok=true v_ok=true" in out
    assert "E=3 F1=4 F=5" in out


def test_a_repeated_bridge_reads_its_charts_memos_and_prints_the_same_block(tmp_path, capsys):
    # the general point x2 = 1 is a shifted center
    text = (
        "ring N=2 p=5\nideal a: x1^2 + x2^3\n"
        "tower T: blowup chart=root point=(0,0); blowup chart=2 point=(1,0)\n"
        "bridge T a\nbridge T a\n"
    )
    code, out, err = run_main(tmp_path, capsys, text)
    assert (code, err) == (0, "")
    one, two = out.split("# command 1: bridge T a\n")[1].split("\n# command 2: bridge T a\n")
    assert one.rstrip("\n") == two.rstrip("\n")
    assert "k_E=2 k_F=4" in one and "P1=(chart=3,x1=0,x2=1)" in one


def test_logdisc_and_zeval(tmp_path, capsys):
    text = BASIC + "logdisc T a:3\nzeval T a\n"
    code, out, _ = run_main(tmp_path, capsys, text)
    assert code == 0
    assert "a=-1/1" in out
    assert "z=2/1" in out


def test_mld_and_notlc(tmp_path, capsys):
    text = BASIC + "mld a:3\nnotlc a:3\nnotlc a:1\n"
    code, out, _ = run_main(tmp_path, capsys, text, "--cap", "3")
    assert code == 0
    assert "mld_estimate=-3/1 mld_depths=(3)" in out
    assert "certificate=found depths=(1) codim=2 value=-1/1" in out
    assert "certificate=unknown" in out


def test_heights_in_both_characteristics(tmp_path, capsys):
    code, out, _ = run_main(tmp_path, capsys, BASIC + "heights a\n")
    assert code == 0 and "height_p=2 height_q=2" in out
    code, out, _ = run_main(
        tmp_path, capsys, "ring N=2 p=0\nideal a: x1 + x2\nheights a\n"
    )
    assert code == 0 and "height=1" in out


def test_heights_of_an_ideal_a_cut_makes_the_unit_ideal(tmp_path, capsys):
    # cutting x1 leaves the constant 1 of x1*x2 + 1
    text = "ring N=2 p=0\nideal a: x1, x1*x2 + 1\nheights a\n"
    assert run_main(tmp_path, capsys, text) == (2, "", (
        "error: UnitIdeal: command 1 (heights): line 3: the generators span the whole ring\n"))


def test_jets_dump(tmp_path, capsys):
    code, out, _ = run_main(tmp_path, capsys, BASIC + "jets a 1\n")
    assert code == 0
    assert "F0_0=x1_0" in out and "F0_1=x1_1" in out
    assert "F1_0=x2_0" in out and "F1_1=x2_1" in out


def test_parentheses_nested_too_deep_are_refused_with_their_line(tmp_path, capsys):
    text = "ring N=2 p=5\nideal a: " + "(" * 400 + "x1" + ")" * 400 + "\n"
    code, out, err = run_main(tmp_path, capsys, text)
    assert code == 2 and out == ""
    assert err.startswith("error: ScriptSyntaxError: line 2: ")
    assert err.endswith("parentheses nested deeper than 100 at column 101\n")


@pytest.mark.parametrize("command, line", [
    ("lct a", "lct_estimate=3/4 lct_depth=4"),
    ("mld a", "mld_estimate=-1/1 mld_depths=(4)"),
    ("jets a 1", "F0_1=2*x2_0*x2_1"),
])
def test_estimators_and_jets_of_a_large_exponent(tmp_path, capsys, command, line):
    text = f"ring N=2 p=5\nideal a: x1^3000 + x2^2\n{command}\n"
    code, out, err = run_main(tmp_path, capsys, text, "--cap", "4")
    assert code == 0 and err == "" and line in out.splitlines()


def digits_value(digits: str) -> int:
    """The int a decimal text names, read 1000 digits at a time, so that
    no single int() passes the interpreter's limit on digits."""
    value = 0
    for i in range(0, len(digits), 1000):
        value = value * 10 ** len(digits[i:i + 1000]) + int(digits[i:i + 1000])
    return value


# 3^20000 has 9 543 digits and 2^20000 has 6 021, past the 4 300 that str
# converts by default
@pytest.mark.parametrize("ideal, pattern, values", [
    ("(3*x1)^20000 + x2", r"F0_0=([0-9]+)\*x1_0\^20000 \+ x2_0", [3**20000]),
    ("(1/3)^20000*x1 - 2^20000*x2", r"F0_0=1/([0-9]+)\*x1_0 - ([0-9]+)\*x2_0", [3**20000, 2**20000]),
])
def test_a_coefficient_too_long_for_str_prints_in_full(tmp_path, capsys, ideal, pattern, values):
    code, out, err = run_main(tmp_path, capsys, f"ring N=2 p=0\nideal a: {ideal}\njets a 0\n")
    assert (code, err) == (0, "")
    header, line = out.splitlines()
    match = re.fullmatch(pattern, line)
    assert header == "# command 1: jets a 0" and match
    assert [digits_value(d) for d in match.groups()] == values


LONG = "7" * 5000  # past the 4 300 digits int() reads by default
SEVENS = LONG[:40]  # as much of it as a message echoes


# A number outside the grammar, in each position that reads one, over Q and
# over F_5 where the field matters.
@pytest.mark.parametrize("text, message", [
    ("ring N=2 p=0\nideal a: x1 + 1/0\nlct a",
     "line 2: in generator 'x1 + 1/0': zero denominator in 1/0 at column 6"),
    ("ring N=2 p=5\nideal a: x1 + 1/0\nlct a",
     "line 2: in generator 'x1 + 1/0': zero denominator in 1/0 at column 6"),
    ("ring N=2 p=0\nideal a: x1^1/0", "line 2: in generator 'x1^1/0': zero denominator in 1/0 at column 4"),
    ("ring N=2 p=0\nideal a: x1^2 + x\u00b2\nlct a",
     "line 2: in generator 'x1^2 + x\u00b2': bad variable name at column 8"),
    ("ring N=2 p=5\nideal a: x1^2 + x\u0661\nlct a",
     "line 2: in generator 'x1^2 + x\u0661': bad variable name at column 8"),
    ("ring N=2 p=0\nideal a: x1^\u0662", "line 2: in generator 'x1^\u0662': unexpected character"
     " '\u0662' at column 4"),
    ("ring N=2 p=0\nideal a: x1\u00a0+ x2", "line 2: in generator 'x1\\xa0+ x2': unexpected character"
     " '\\xa0' at column 3"),
    ("ring N=\uff12 p=\uff15\nideal a: x1", "line 1: ring wants the form 'ring N=<int> p=<prime or 0>'"),
    (BASIC + "keval T divisor=\uff11", "line 4: divisor wants an integer id, got '\uff11'"),
    (BASIC + "jets a \u0661", "line 4: jets level must be a nonnegative integer, got '\u0661'"),
    # an integer too large for a machine index names its bound
    ("ring N=99999999999999999999 p=0\nideal a: x1",
     f"line 1: ring N=99999999999999999999 exceeds the bound {sys.maxsize}"),
    (BASIC + "jets a 99999999999999999999",
     f"line 4: jets level 99999999999999999999 exceeds the bound {sys.maxsize // 2 - 1}"),
    ("ring N=2 p=5\ntower T: blowup chart=\u0660 point=(0,0)",
     "line 2: chart must be 'root' or an integer, got '\u0660'"),
    ("ring N=2 p=5\ntower T: blowup chart=root set=(x\u0661=0,x2=0)", "line 2: bad constraint 'x\u0661=0' in set="),
    (BASIC + "mld a:0.5", "line 4: bad rational '0.5'"),
    (BASIC + "mld a:1e0", "line 4: bad rational '1e0'"),
    (BASIC + "mld a:", "line 4: bad rational ''"),
    (BASIC + "bridge T a e=(1_0)", "line 4: bad rational '1_0'"),
    ("ring N=2 p=0\ntower T: blowup chart=root point=(1_0,0)", "line 2: bad constant '1_0' for this ring"),
    ("ring N=2 p=5\ntower T: blowup chart=root point=(1_0,0)", "line 2: bad constant '1_0' for this ring"),
    ("ring N=2 p=5\ntower T: blowup chart=root point=(4/2,0)", "line 2: bad constant '4/2' for this ring"),
    # a refused literal of any length is echoed clipped
    ("ring N=2 p=0\nideal a: x1 + " + LONG + "/0",
     f"line 2: in generator 'x1 + {SEVENS[:35]}... (5007 characters)': zero denominator in"
     f" {SEVENS}... (5002 characters) at column 6"),
    ("ring N=2 p=5\nideal a: x1^" + LONG + "/0",
     f"line 2: in generator 'x1^{SEVENS[:37]}... (5005 characters)': zero denominator in"
     f" {SEVENS}... (5002 characters) at column 4"),
    ("ring N=2 p=5\nideal a: x" + LONG,
     f"line 2: in generator 'x{SEVENS[:39]}... (5001 characters)': variable x{SEVENS[:39]}..."
     " (5001 characters) out of range (ring has 2 variables) at column 1"),
    ("ring N=2 p=5\ntower T: blowup chart=root set=(x" + LONG + "=0,x2=0)",
     f"line 2: variable x{SEVENS}... (5000 characters) out of range (ring has 2 variables)"),
    (f"ring N=2 p=5\ntower T: blowup chart=root point=({LONG}/7,0)",
     f"line 2: bad constant '{SEVENS}... (5002 characters)' for this ring"),
    (BASIC + f"mld a:{LONG}.5", f"line 4: bad rational '{SEVENS}... (5002 characters)'"),
])
def test_a_number_outside_the_grammar_exits_two(tmp_path, capsys, text, message):
    assert run_main(tmp_path, capsys, text + "\n") == (2, "", f"error: ScriptSyntaxError: {message}\n")


# A literal of any length is read, and what it names is refused by its kind.
@pytest.mark.parametrize("text, message", [
    (f"ring N={LONG} p=0\nideal a: x1",
     f"ScriptSyntaxError: line 1: ring N={SEVENS}... (5000 characters) exceeds the bound {sys.maxsize}\n"),
    (BASIC + f"jets a {LONG}",
     f"ScriptSyntaxError: line 4: jets level {SEVENS}... (5000 characters) exceeds the bound"
     f" {sys.maxsize // 2 - 1}\n"),
    ("ring N=2 p=5\ntower T: blowup chart=" + LONG + " point=(0,0)",
     f"UnknownChart: line 2: no chart {SEVENS}... (5000 characters) (tower has charts 0..0)\n"),
    (BASIC + f"keval T divisor={LONG}",
     f"UnknownDivisor: command 1 (keval): line 4: no divisor {SEVENS}... (5000 characters)"
     " (tower has divisors 1..1)\n"),
])
def test_a_long_literal_names_what_it_names(tmp_path, capsys, text, message):
    code, out, err = run_main(tmp_path, capsys, text + "\n")
    assert (code, out) == (2, "") and err.startswith(f"error: {message}") and err.count("\n") == 1


# `jets a` expands to the level --cap, so the cap has the jets level's bound;
# past it `jets a` overflowed an index and `lct a` walked its grid forever.
@pytest.mark.parametrize("command", ["jets a", "lct a"])
@pytest.mark.parametrize("cap, echo", [
    ("99999999999999999999", "99999999999999999999"),
    ("9" * 1000, "9" * 40 + "... (1000 characters)"),
], ids=["20-digits", "1000-digits"])
def test_a_cap_past_the_jets_level_bound_exits_two(tmp_path, capsys, command, cap, echo):
    text = f"ring N=2 p=0\nideal a: x1\n{command}\n"
    assert run_main(tmp_path, capsys, text, "--cap", cap) == (
        2, "", f"error: ValueError: --cap {echo} exceeds the bound {sys.maxsize // 2 - 1}\n")


def test_a_long_literal_reads_back_from_what_jets_prints(tmp_path, capsys):
    # 3^20000 has 9 543 digits, more than int() reads by default
    code, out, _ = run_main(tmp_path, capsys, "ring N=2 p=0\nideal a: (3*x1)^20000 + x2\njets a 0\n")
    assert code == 0
    printed = out.splitlines()[1].removeprefix("F0_0=")
    script = f"ring N=2 p=0\nideal a: {printed.replace('x1_0', 'x1').replace('x2_0', 'x2')}\nheights a\n"
    assert run_main(tmp_path, capsys, script)[0] == 0
    assert parse_script(script).ideals["a"].gens[0].terms[(20000, 0)] == 3**20000


@pytest.mark.parametrize("text, kind", [
    ("ring N=2 p=5\ntower T: blowup chart=-1 point=(0,0)", "UnknownChart: line 2: no chart -1"),
    (BASIC + "keval T divisor=-1", "UnknownDivisor: command 1 (keval): line 4: no divisor -1"),
])
def test_a_signed_id_is_read_and_refused_as_unknown(tmp_path, capsys, text, kind):
    code, out, err = run_main(tmp_path, capsys, text + "\n")
    assert (code, out) == (2, "") and err.startswith(f"error: {kind} ")


def test_crosschar_summary(tmp_path, capsys):
    code, out, _ = run_main(tmp_path, capsys, BASIC + "crosschar a:1\n", "--cap", "3")
    assert code == 0
    assert "mld_p=1/1 mld_q=1/1 mld_ordered=true" in out
    assert "lct_p=2/1 lct_q=2/1 lct_ordered=true" in out


def test_suspend_shifts_k_but_not_v(tmp_path, capsys):
    code, out, _ = run_main(tmp_path, capsys, BASIC + "suspend T a\n")
    assert code == 0
    assert "divisor=1 k=1 k_suspended=2 v=1 v_suspended=1" in out


def test_selftest_reports_every_case(tmp_path, capsys):
    code, out, _ = run_main(tmp_path, capsys, "ring N=2 p=5\nselftest\n")
    assert code == 0
    assert "passed=20 failed=0" in out
    assert out.count("ok=true") == 20


def test_veval_reports_the_valuation(tmp_path, capsys):
    text = BASIC + "ideal c: x1^2 + x2^3\nveval T a\nveval T c\n"
    code, out, _ = run_main(tmp_path, capsys, text)
    assert code == 0
    assert out == "# command 1: veval T a\ndivisor=1 v=1\n\n# command 2: veval T c\ndivisor=1 v=2\n"


def test_bridge_reads_a_bare_exponent_as_a_one_entry_vector(tmp_path, capsys):
    code, bare, _ = run_main(tmp_path, capsys, BASIC + "bridge T a e=1/2\n")
    assert code == 0
    assert "shift_0_e=(1/2) shift_0_a_p=3/2 shift_0_a_q=7/2" in bare
    _, vector, _ = run_main(tmp_path, capsys, BASIC + "bridge T a e=(1/2)\n")
    assert bare.replace("e=1/2", "e=(1/2)") == vector


@pytest.mark.parametrize("flags", [[], ["--script", "-"]])
def test_script_is_read_from_stdin(monkeypatch, capsys, flags):
    monkeypatch.setattr(sys, "stdin", io.StringIO(BASIC + "keval T\n"))
    code = main(flags)
    assert code == 0
    assert capsys.readouterr().out == "# command 1: keval T\ndivisor=1 k=1\n"


def test_failing_selftest_exits_one_and_prints_nothing(tmp_path, capsys, monkeypatch):
    good = towerval.acceptance_corpus()[0]
    broken = good._replace(name="broken", exponent_vectors=((1, 2, 3),))
    monkeypatch.setattr(towerval.cli, "acceptance_corpus", lambda: [good, broken])
    code, out, err = run_main(tmp_path, capsys, "ring N=2 p=5\nselftest\n")
    assert code == 1 and out == ""
    assert err == "error: MathCheckFailed: selftest failed on: broken\n"


# -- exit codes --------------------------------------------------------------------


def test_exit_code_two_for_input_errors(tmp_path, capsys):
    code, _, err = run_main(tmp_path, capsys, "ring N=2 p=5\nideal a: x3\n")
    assert code == 2 and "line 2" in err
    code, _, err = run_main(tmp_path, capsys, BASIC + "zeval T a divisor=7\n")
    assert code == 2 and "command 1 (zeval)" in err


@pytest.mark.parametrize("step, message", [
    ("blowup chart=root set=(x1=0,x1=3,x2=0)", "x1 is set twice in set="),
    ("blowup chart=root point=(0,0) set=(x1=1,x2=1)", "tower step gives more than one point= or set="),
    ("blowup chart=root set=(x1=0,x2=0) set=(x1=1,x2=1)", "tower step gives more than one point= or set="),
    ("blowup chart=root chart=0 point=(0,0)", "tower step gives chart= twice"),
    ("blowdown chart=root", "tower steps start with 'blowup', got 'blowdown chart=root'"),
    ("blowup chart=root (0,0)", "expected key=value in tower step, got '(0,0)'"),
    ("blowup chart=top point=(0,0)", "chart must be 'root' or an integer, got 'top'"),
    ("blowup chart=root point=0,0", "point wants a parenthesized coordinate list"),
    ("blowup chart=root point=(0,0,0)", "point has 3 coordinates, ring has 2"),
    ("blowup chart=root set=x1=0", "set wants a parenthesized list like (x1=0,x2=0)"),
    ("blowup chart=root set=(x1=0,y2=0)", "bad constraint 'y2=0' in set="),
    ("blowup chart=root set=(x1=0,x3=0)", "variable x3 out of range (ring has 2 variables)"),
    ("blowup chart=root center=(0,0)", "unknown tower step key 'center'"),
    ("blowup point=(0,0)", "tower step is missing chart="),
    ("blowup chart=root", "tower step needs point=(...) or set=(...)"),
])
def test_a_tower_step_refuses_a_repeated_key_or_coordinate(tmp_path, capsys, step, message):
    code, out, err = run_main(tmp_path, capsys, f"ring N=2 p=5\ntower T: {step}\nkeval T\n")
    assert (code, out, err) == (2, "", f"error: ScriptSyntaxError: line 2: {message}\n")


@pytest.mark.parametrize("declaration, line, message", [
    ("ring N=2", 1, "ring wants the form 'ring N=<int> p=<prime or 0>'"),
    ("ring N=2 p=5\nideal a x1", 2, "ideal wants the form 'ideal <name>: gen, gen, ...'"),
    ("ring N=2 p=5\ntower T blowup chart=root point=(0,0)", 2,
     "tower wants the form 'tower <name>: blowup ...; blowup ...'"),
    ("ring N=2 p=5\nideal a: x1\nideal a: x2", 3, "the name 'a' is already taken"),
    ("ring N=2 p=5\nideal a: x1\ntower a: blowup chart=root point=(0,0)", 3,
     "the name 'a' is already taken"),
])
def test_a_malformed_declaration_names_its_line(tmp_path, capsys, declaration, line, message):
    code, out, err = run_main(tmp_path, capsys, declaration + "\n")
    assert (code, out, err) == (2, "", f"error: ScriptSyntaxError: line {line}: {message}\n")


@pytest.mark.parametrize("statement, message", [
    ("ideal b: (x1, x2", "unbalanced '(' in statement"),
    ("ideal b: x1, x2)", "unbalanced ')' at column 16"),
    ("tower S: blowup chart=root point=(0,0", "unbalanced '(' in statement"),
    ("tower S: blowup chart=root point=(0,0))", "unbalanced ')' at column 39"),
    ("lct a)", "unbalanced ')' at column 6"),
    ("  lct a)  # (", "unbalanced ')' at column 8"),
    ("mld (a:1", "unbalanced '(' in statement"),
    ("bridge T a e=(1,2))", "unbalanced ')' at column 19"),
    ("bridge T a e=((1,2)", "unbalanced '(' in statement"),
])
def test_an_unbalanced_parenthesis_names_its_line(tmp_path, capsys, statement, message):
    """Columns count from the start of the line; a comment is not read."""
    code, out, err = run_main(tmp_path, capsys, "ring N=2 p=5\nideal a: x1, x2\n" + statement + "\n")
    assert (code, out, err) == (2, "", f"error: ScriptSyntaxError: line 3: {message}\n")


@pytest.mark.parametrize("statement, message", [
    ("tower S: blowup chart=root point=(0),(0)",
     "line 4: point wants a parenthesized coordinate list"),
    ("tower S: blowup chart=root set=(x1=0),(x2=0)",
     "line 4: set wants a parenthesized list like (x1=0,x2=0)"),
    ("bridge T a e=(1),(2)", "line 4: bad rational '(1),(2)'"),
])
def test_a_value_of_two_groups_is_refused_as_a_whole(tmp_path, capsys, statement, message):
    code, out, err = run_main(tmp_path, capsys, BASIC + statement + "\n")
    assert (code, out, err) == (2, "", f"error: ScriptSyntaxError: {message}\n")


@pytest.mark.parametrize("factors", ["z:1 a:3", "a:3 z:1"])
def test_notlc_refuses_a_zero_factor_in_any_position(tmp_path, capsys, factors):
    # without z, depth 1 on a certifies (codim 2 < weight 3)
    text = "ring N=2 p=5\nideal a: x1, x2\nideal z: 0\nnotlc " + factors + "\n"
    code, out, err = run_main(tmp_path, capsys, text)
    assert (code, out, err) == (
        2, "", "error: ZeroIdeal: command 1 (notlc): line 4: operation rejects the zero ideal\n"
    )


@pytest.mark.parametrize("command, message", [
    ("keval T a", "surplus argument 'a': keval takes at most 1"),
    ("veval T a b", "surplus argument 'b': veval takes at most 2"),
    ("lct a a", "surplus argument 'a': lct takes at most 1"),
    ("selftest T", "surplus argument 'T': selftest takes at most 0"),
    ("veval T a divisor=1 divisor=2", "divisor= given twice"),
    ("veval T a divisor=x", "divisor wants an integer id, got 'x'"),
    ("lct a divisor=1", "surplus argument 'divisor=1': lct takes at most 1"),
    ("heights a divisor=x", "surplus argument 'divisor=x': heights takes at most 1"),
    ("suspend T a divisor=1", "surplus argument 'divisor=1': suspend takes at most 2"),
    ("jets a x=1", "jets level must be a nonnegative integer, got 'x=1'"),
    ("jets a -1", "jets level must be a nonnegative integer, got '-1'"),
])
def test_a_command_refuses_surplus_or_malformed_arguments(tmp_path, capsys, command, message):
    text = "ring N=2 p=5\nideal a: x1, x2\nideal b: x1\ntower T: blowup chart=root point=(0,0)\n"
    code, out, err = run_main(tmp_path, capsys, text + command + "\n")
    assert (code, out, err) == (2, "", f"error: ScriptSyntaxError: line 5: {message}\n")


@pytest.mark.parametrize("command, message", [
    ("lct", "ScriptSyntaxError: line 4: missing arguments: lct takes at least 1"),
    ("keval", "ScriptSyntaxError: line 4: missing arguments: keval takes at least 1"),
    ("veval T", "ScriptSyntaxError: line 4: missing arguments: veval takes at least 2"),
    ("veval T divisor=1", "ScriptSyntaxError: line 4: missing arguments: veval takes at least 2"),
    ("zeval T", "ScriptSyntaxError: line 4: missing arguments: zeval takes at least 2"),
    ("suspend", "ScriptSyntaxError: line 4: missing arguments: suspend takes at least 1"),
    ("crosschar", "ScriptSyntaxError: line 4: missing arguments: crosschar takes at least 1"),
    ("bridge T tamper", "InputError: command 1 (bridge): tamper needs at least one ideal to bend"),
])
def test_a_command_refuses_missing_arguments(tmp_path, capsys, command, message):
    code, out, err = run_main(tmp_path, capsys, BASIC + command + "\n")
    located = message.replace("): ", "): line 4: ", 1)  # bridge's check runs with the command
    assert (code, out, err) == (2, "", f"error: {located}\n")


def test_an_index_error_inside_a_handler_propagates(monkeypatch):
    def broken(script, opt, block, t, did):
        return [][0]

    monkeypatch.setitem(towerval.cli._COMMANDS, "keval", (broken, ("tower",), True))
    with pytest.raises(IndexError):
        run(parse_script(BASIC + "keval T\n"))


@pytest.mark.parametrize("text, flags, code, kind, line", [
    ("ring N=2 p=5\ntower T: blowup chart=5 point=(0,0)", [], 2, "UnknownChart", 2),
    ("ring N=2 p=5\ntower T: blowup chart=root set=(x1=0)", [], 2, "Codim1Center", 2),
    ("ring N=2 p=5\nideal a: 1/2*x1", [], 2, "ConstantNotInField", 2),
    ("ring N=2 p=5\nideal a: (x1+x2)^999999", [], 3, "BudgetExceeded", 2),
    (BASIC + "veval T", [], 2, "ScriptSyntaxError", 4),
    (BASIC + "keval T a", [], 2, "ScriptSyntaxError", 4),
    (BASIC + "veval T missing", [], 2, "UnknownName", 4),
    (BASIC + "veval T T", [], 2, "UnknownName", 4),
    ("ring N=2 p=5\nideal z: 0\nnotlc z:1", [], 2, "ZeroIdeal", 3),
    (BASIC + "bridge T a tamper", [], 1, "BridgeIdentityFailed", 4),
    ("ring N=2 p=3\nideal c: x1^3 + x2^3\nlct c", ["--cap", "5", "--gb-budget", "1"], 3,
     "BudgetExceeded", 3),
    (BASIC + "keval T\njets a 3", [], 3, "MemoryError", 5),
])
def test_every_failure_names_its_line_once(tmp_path, capsys, monkeypatch, text, flags, code, kind, line):
    def out_of_memory(*args, **kwargs):
        raise MemoryError  # bare, as the interpreter raises it; nothing is allocated

    monkeypatch.setattr(towerval.cli, "jet_equations", out_of_memory)
    got, out, err = run_main(tmp_path, capsys, text + "\n", *flags)
    assert (got, out) == (code, "")
    assert err.startswith(f"error: {kind}: ") and err.endswith("\n") and err.count("\n") == 1
    assert re.findall(r"line \d+: ", err) == [f"line {line}: "]
    if kind == "MemoryError":
        assert err == "error: MemoryError: command 2 (jets): line 5: out of memory\n"


@pytest.mark.parametrize("command, message", [
    ("keval T c", "ScriptSyntaxError: line 5: surplus argument 'c': keval takes at most 1"),
    ("veval T T", "UnknownName: line 5: 'T' is not a declared ideal"),
])
def test_a_bad_argument_is_refused_before_any_command_runs(tmp_path, capsys, monkeypatch,
                                                             command, message):
    def must_not_run(*args, **kwargs):
        raise AssertionError("lct ran before the script was refused")

    monkeypatch.setattr(towerval.cli, "lct_estimate_at_origin", must_not_run)
    text = ("ring N=2 p=0\nideal c: x1^2 + x2^3\ntower T: blowup chart=root point=(0,0)\n"
            f"lct c\n{command}\n")
    assert run_main(tmp_path, capsys, text) == (2, "", f"error: {message}\n")


def test_zero_denominator_exponent_is_an_input_error(tmp_path, capsys):
    text = "ring N=2 p=7\nideal a: x1^2 + x2^3\nmld a:1/0\n"
    code, _, err = run_main(tmp_path, capsys, text)
    assert code == 2 and err.startswith("error:") and "1/0" in err


def test_zero_denominator_bridge_vector_is_an_input_error(tmp_path, capsys):
    code, _, err = run_main(tmp_path, capsys, BASIC + "bridge T a e=(1/0)\n")
    assert code == 2 and err.startswith("error:") and "1/0" in err


def test_bridge_vector_of_the_wrong_length_prints_num_den(tmp_path, capsys):
    code, out, err = run_main(tmp_path, capsys, BASIC + "bridge T a e=(1,2)\n")
    assert code == 2 and out == ""
    assert err == (
        "error: DimensionMismatch: command 1 (bridge): line 4: exponent vector (1/1,2/1)"
        " has 2 entries for 1 ideals\n"
    )


BRIDGE_SESSION = """\
ring N=2 p=7
ideal m: x1, x2
ideal c: x1^2 + x2^3
tower T: blowup chart=root point=(0,0); blowup chart=1 point=(0,0); blowup chart=3 point=(0,0)
bridge T m c e=(1,1/2)
"""


def test_bridge_prints_lifted_centers_as_rationals(tmp_path, capsys):
    """The rationals keep integral constants as ints; the lifted centers
    still print them as num/den, in text and in json."""
    code, out, _ = run_main(tmp_path, capsys, BRIDGE_SESSION)
    assert code == 0
    assert "P1=(chart=5,x1=0,x2=0) P2=(chart=7,x1=0,x2=0)\n" in out
    assert "\nlifted_P1=(chart=5,x1=0/1,x2=0/1) lifted_P2=(chart=7,x1=0/1,x2=0/1)\n" in out
    code, out, _ = run_main(tmp_path, capsys, BRIDGE_SESSION, "--format", "json")
    lines = json.loads(out)[0]["lines"]
    assert {"lifted_P1": "(chart=5,x1=0/1,x2=0/1)",
            "lifted_P2": "(chart=7,x1=0/1,x2=0/1)"} in lines
    assert {"P1": "(chart=5,x1=0,x2=0)", "P2": "(chart=7,x1=0,x2=0)"} in lines


@pytest.mark.parametrize("n", [0, 1])
def test_ring_with_fewer_than_two_variables_is_an_input_error(tmp_path, capsys, n):
    code, out, err = run_main(tmp_path, capsys, f"# header\nring N={n} p=5\nlct x1\n")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "line 2" in err and f"N={n}" in err


CAP_REFUSALS = {  # command -> (--cap, message); lct and notlc share one for cap 0
    "mld a:1": ("-1", "depth caps must be nonnegative integers, got -1"),
    "crosschar a:1": ("-1", "depth caps must be nonnegative integers, got -1"),
    "lct a": ("0", "cap must be a positive integer, got 0"),
    "notlc a:1": ("0", "cap must be a positive integer, got 0"),
}


@pytest.mark.parametrize("command", CAP_REFUSALS)
def test_negative_cap_is_an_input_error(tmp_path, capsys, command):
    cap, message = CAP_REFUSALS[command]
    code, out, err = run_main(tmp_path, capsys, BASIC + command + "\n", "--cap", cap)
    name = command.split()[0]
    assert (code, out, err) == (2, "", f"error: ValueError: command 1 ({name}): line 4: {message}\n")


def test_exit_code_one_for_failed_identities(tmp_path, capsys):
    code, _, err = run_main(tmp_path, capsys, BASIC + "bridge T a tamper\n")
    assert code == 1 and "BridgeIdentityFailed" in err


LIFT_BREAKS_E = (
    "ring N=2 p=5\nideal a: 4*x2 + x1^2*x2^2 + x2^2\n"
    "tower T: blowup chart=root point=(0,0); blowup chart=2 point=(1,1); blowup chart=3 point=(4,0)\n"
)


def test_a_lift_that_breaks_the_bridge_hypothesis_is_an_input_error(tmp_path, capsys):
    """Over F_5 a has valuations (1, 0, 1) along E1..E3; lifting 4 to 4
    gives (1, 0, 0), so the bridge has nothing to check on E = E3.  The
    hypothesis is checked before tamper bends the lift."""
    message = (
        "error: LiftHypothesisFailed: command 1 (bridge): line 4: "
        "the lift changes ideal 0's valuation on divisor 3: 1 over F_5, 0 over Q\n"
    )
    for command in ("bridge T a", "bridge T a tamper"):
        assert run_main(tmp_path, capsys, LIFT_BREAKS_E + command + "\n") == (2, "", message)


def test_a_tamper_no_identity_can_see_is_an_input_error(tmp_path, capsys):
    """The same ideal on a tower where its valuation on E = E3 is 0."""
    text = LIFT_BREAKS_E.replace("point=(4,0)", "point=(0,0)") + "bridge T a tamper\n"
    assert run_main(tmp_path, capsys, text) == (2, "", (
        "error: InputError: command 1 (bridge): line 4: tamper bends ideal 0, whose valuation "
        "on divisor 3 is 0: no identity can see the bend\n"
    ))


def test_exit_code_three_for_exhaustion(tmp_path, capsys):
    text = (
        "ring N=2 p=2\n"
        "ideal a: x1*x2 + x2^2\n"
        "tower T: blowup chart=root point=(0,0)\n"
        "bridge T a\n"
    )
    code, _, err = run_main(tmp_path, capsys, text)
    assert code == 3 and "GeneralPointNotFound" in err


def test_exit_code_three_for_budget_exhaustion(tmp_path, capsys):
    # (x1 + x2)^3 over F_3 is degenerate: its depth-4 cell spends 3 steps
    text = "ring N=2 p=3\nideal c: x1^3 + x2^3\nlct c\n"
    code, _, err = run_main(tmp_path, capsys, text, "--cap", "5", "--gb-budget", "1")
    assert code == 3 and "BudgetExceeded" in err


def test_the_cusp_spends_no_step_up_to_depth_five(tmp_path, capsys):
    # every contact cell of x1^2 + x2^3 through L7 is cut down to nothing
    # before a Groebner basis is needed
    text = "ring N=2 p=0\nideal c: x1^2 + x2^3\nlct c\n"
    code, out, _ = run_main(tmp_path, capsys, text, "--cap", "5", "--gb-budget", "0")
    assert (code, out) == (0, "# command 1: lct c\nlct_estimate=1/1 lct_depth=2\n")


@pytest.mark.parametrize("ideal", ["x1^2 + x2^3", "x1^2, x2"])
def test_negative_gb_budget_is_an_input_error(tmp_path, capsys, ideal):
    """Refused up front, whether or not the command would run Buchberger."""
    text = f"ring N=2 p=0\nideal c: {ideal}\nlct c\n"
    code, out, err = run_main(tmp_path, capsys, text, "--gb-budget", "-1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--gb-budget" in err and "-1" in err


@pytest.mark.parametrize("ideal", ["x1^2 + x2^3", "x1^2, x2"])
def test_run_refuses_a_negative_gb_budget(ideal):
    """The library entry refuses it before any command runs, like the CLI."""
    script = parse_script(f"ring N=2 p=0\nideal c: {ideal}\nlct c")
    with pytest.raises(ValueError, match="gb_budget must be >= 0"):
        run(script, gb_budget=-1)


@pytest.mark.parametrize("bound", ["0", "-1"])
@pytest.mark.parametrize("ideal", ["x1^2 + x2^3", "x1^2, x2"])
def test_a_weight_bound_below_one_is_refused_before_any_command(tmp_path, capsys, monkeypatch,
                                                                  bound, ideal):
    """Whether or not the ideal is monomial, so whether or not lct would search."""
    monkeypatch.setattr(towerval.cli, "lct_estimate_at_origin", None)  # never reached
    text = f"ring N=2 p=0\nideal c: {ideal}\nlct c\n"
    code, out, err = run_main(tmp_path, capsys, text, "--weight-bound", bound)
    assert (code, out) == (2, "")
    assert err == f"error: ValueError: weight_bound must be >= 1 (--weight-bound), got {bound}\n"


def test_a_toric_box_past_the_bound_exits_three_quickly(tmp_path):
    path = tmp_path / "script.tv"
    path.write_text("ring N=3 p=0\nideal a: x1^2, x2^2, x3^2\nlct a\n")
    src = str(Path(towerval.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "towerval.cli", "--script", str(path), "--weight-bound", "100000000"],
        capture_output=True, text=True, timeout=30, env=dict(os.environ, PYTHONPATH=src),
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == (
        "error: BudgetExceeded: command 1 (lct): line 3: the toric box for weight bound "
        "100000000 in 3 variables holds more than 100000 weights\n"
    )


def test_a_tie_along_a_shifted_center_expands_only_the_degrees_it_reads(tmp_path):
    # x1^E and x1 tie at order 0 along (1, 0), and degree 0 is decided by one
    # binomial coefficient per term, however large E is
    path = tmp_path / "script.tv"
    path.write_text("ring N=2 p=5\nideal a: x1^100000000000000000000 + x1\n"
                    "tower T: blowup chart=root point=(1,0)\nveval T a\n")
    src = str(Path(towerval.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "towerval.cli", "--script", str(path)],
        capture_output=True, text=True, timeout=30, env=dict(os.environ, PYTHONPATH=src),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "# command 1: veval T a\ndivisor=1 v=0\n"


@pytest.mark.parametrize("text", [
    "ring N=99999999999999999999 p=0\nideal a: x1\n",
    "ring N=2 p=0\nideal a: x1\njets a 99999999999999999999\n",
])
def test_numbers_too_large_for_an_index_are_input_errors(tmp_path, capsys, text):
    code, out, err = run_main(tmp_path, capsys, text)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_a_power_too_large_to_expand_exits_three_quickly(tmp_path):
    path = tmp_path / "script.tv"
    path.write_text("ring N=2 p=7\nideal a: (x1+x2)^99999999\nlct a\n")
    src = str(Path(towerval.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "towerval.cli", "--script", str(path)],
        capture_output=True, text=True, timeout=30, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert "BudgetExceeded" in proc.stderr and "(x1+x2)^99999999" in proc.stderr


def test_the_power_term_bound_sits_at_the_default_step_budget():
    # (x1+x2+x1*x2)^e may have comb(e + 2, 2) terms: 99 681 at e = 445, 100 128 at 446
    script = parse_script("ring N=2 p=7\nideal a: (x1+x2)^3000, (x1+x2+x1*x2)^445")
    assert [len(g.terms) for g in script.ideals["a"].gens] == [240, 270]
    with pytest.raises(errors.BudgetExceeded, match=r"\(x1\+x2\+x1\*x2\)\^446"):
        parse_script("ring N=2 p=7\nideal a: (x1+x2+x1*x2)^446")


def test_a_power_of_one_large_rational_exits_three_quickly(tmp_path):
    path = tmp_path / "script.tv"
    path.write_text("ring N=2 p=0\nideal a: x1 + 3^99999999\nheights a\n")
    src = str(Path(towerval.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "towerval.cli", "--script", str(path)],
        capture_output=True, text=True, timeout=30, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert "BudgetExceeded" in proc.stderr and "3^99999999" in proc.stderr


def test_the_power_bit_bound_counts_numerator_and_denominator_bits():
    # 2 and 1/2 each have a 2-bit part, so e * 2 meets the 100 000-bit bound at e = 50 000
    script = parse_script("ring N=2 p=0\nideal a: x1 + 2^50000, x1 + (1/2)^50000")
    assert [g.constant_term() for g in script.ideals["a"].gens] == [2**50000, Fraction(1, 2**50000)]
    for power in ("2^50001", "(1/2)^50001"):
        with pytest.raises(errors.BudgetExceeded, match=re.escape(power)):
            parse_script(f"ring N=2 p=0\nideal a: x1 + {power}")
    # 0, 1 and -1 never grow, a monomial's coefficient is 1, and F_p reduces as it goes
    parse_script("ring N=2 p=0\nideal a: x1^99999999 + (-1)^99999999 + 1^99999999 + 0^99999999")
    parse_script("ring N=2 p=7\nideal a: x1 + 3^99999999")


def test_large_prime_modulus_parses_quickly():
    start = time.process_time()
    script = parse_script("ring N=2 p=1000000000000000003\nideal a: x1")
    assert time.process_time() - start < 1.0
    assert script.domain.p == 1000000000000000003


def test_bridge_over_a_large_prime_field_searches_a_bounded_stream(tmp_path, capsys):
    text = BASIC.replace("p=5", "p=1000000000000000003") + "bridge T a\n"
    code, out, _ = run_main(tmp_path, capsys, text)
    assert code == 0
    assert "k_E=1 k_F=3 shift_ok=true v_ok=true" in out


def test_modulus_beyond_the_certified_primality_range_exits_two(tmp_path, capsys):
    # 318665857834031151167461 is composite, yet passes Miller-Rabin to every
    # prime base up to 37: the least modulus the test cannot certify.
    for p in (318665857834031151167461, 10**30 + 57):
        code, out, err = run_main(tmp_path, capsys, f"ring N=2 p={p}\n")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "beyond the certified" in err
        assert "not a prime" not in err


def test_missing_script_file(tmp_path, capsys):
    code = main(["--script", str(tmp_path / "absent.tv")])
    captured = capsys.readouterr()
    assert code == 2 and "error" in captured.err


def test_a_script_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "script.tv"
    path.write_bytes(b"ring N=2 p=5\n\xff\n")
    code = main(["--script", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: UnicodeDecodeError: ") and "Traceback" not in captured.err


def test_closed_stdout_exits_zero_without_a_traceback(tmp_path):
    path = tmp_path / "script.tv"
    path.write_text(BASIC + "keval T\njets a 3\n")
    src = str(Path(towerval.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)  # towerval needs nothing beyond the stdlib
    proc = subprocess.Popen(
        [sys.executable, "-m", "towerval.cli", "--script", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()  # the reader goes away before any output arrives
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


# -- determinism -------------------------------------------------------------------


def test_output_is_byte_identical_across_runs(tmp_path, capsys):
    text = BASIC + "lct a\nbridge T a e=(1/2)\ncrosschar a:1\n"
    _, first, _ = run_main(tmp_path, capsys, text, "--cap", "3")
    _, second, _ = run_main(tmp_path, capsys, text, "--cap", "3")
    assert first == second


def test_a_warm_session_prints_what_a_cold_one_prints(tmp_path, capsys):
    # the second run is served by the contact-cell memo of the first;
    # over F_3, x1^3 + x2^3 sends its cells from depth 4 on to Groebner
    text = (
        "ring N=2 p=3\n"
        "ideal d: x1^3 + x2^3\n"
        "ideal m: x1, x2\n"
        "lct d\nmld d:2/3\nnotlc d:1\ncrosschar d:1\nmld d:1/2 m:1/2\n"
    )
    cold = run_main(tmp_path, capsys, text, "--cap", "5")
    warm = run_main(tmp_path, capsys, text, "--cap", "5")
    assert cold[0] == 0 and warm == cold


def test_json_format_is_sorted_and_parseable(tmp_path, capsys):
    code, out, _ = run_main(
        tmp_path, capsys, BASIC + "keval T\n", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["command"] == "keval T"
    assert payload[0]["lines"] == [{"divisor": "1", "k": "1"}]


def main_on(text: str, *flags):
    """main's exit code, stdout and stderr on a script text; a hypothesis
    test cannot take the tmp_path and capsys fixtures run_main needs."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "script.tv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--script", path, *flags])
    return code, out.getvalue(), err.getvalue()


# -- fuzzing the estimator commands ------------------------------------------------

FUZZ_IDEALS = "ideal a: x1^2 + x2^3\nideal b: x1*x2\nideal c: x1 + 1"  # c misses the origin
FACTORS = ["a", "b", "c", "a:2", "b:1/2", "c:1"]
# One script in eight gets a malformed line, and flags are mostly in range, so
# that most scripts reach a command: one malformed token stops the whole script.
MALFORMED = [
    "lct", "lct a b", "lct a:2", "mld", "mld undeclared", "notlc a:0", "crosschar b:-1",
    "mld a:x", "notlc b:1/0", "mld a:0.5", "notlc a:1e0", "crosschar a:",
    "ideal e: x1 + 1/0", "ideal e: x1^2 + x\u00b2", "ideal e: x\u0661 + x2",
    "tower S: blowup chart=root point=(1_0,0)",
]
CAPS = [1, 2, 3] * 4 + [-2, -1, 0]
WEIGHT_BOUNDS = [1, 2, 8, 100, 10**8] * 3 + [0, -1]  # lct b searches the toric box


@st.composite
def estimator_scripts(draw):
    lines = [f"ring N=2 p={draw(st.sampled_from([0, 2, 3, 5, 7]))}", FUZZ_IDEALS]
    for _ in range(draw(st.integers(1, 2))):
        command = draw(st.sampled_from(["lct", "mld", "notlc", "crosschar"]))
        if command == "lct":
            tokens = [draw(st.sampled_from(["a", "b", "c"]))]
        else:
            tokens = draw(st.lists(st.sampled_from(FACTORS), min_size=1, max_size=2))
        lines.append(" ".join([command] + tokens))
    if draw(st.integers(0, 7)) == 0:
        lines.insert(draw(st.integers(2, len(lines))), draw(st.sampled_from(MALFORMED)))
    return "\n".join(lines) + "\n"


@settings(max_examples=150)
@given(
    script=estimator_scripts(),
    cap=st.sampled_from(CAPS),
    budget=st.one_of(st.integers(-1, 8), st.integers(-1, 100_000)),
    weight_bound=st.sampled_from(WEIGHT_BOUNDS),
)
@example(  # before the box was bounded, this searched 10^16 weights
    script=f"ring N=2 p=0\n{FUZZ_IDEALS}\nlct b\n", cap=1, budget=100_000, weight_bound=10**8,
)
@example(  # parentheses this deep once overflowed the parser's stack
    script="ring N=2 p=5\nideal a: " + "(" * 260 + "x1" + ")" * 260 + "\nlct a\n",
    cap=4, budget=100_000, weight_bound=8,
)
@example(  # x1(t)^3000 was once expanded one factor at a time, past the recursion limit
    script="ring N=2 p=5\nideal a: x1^3000 + x2^2\nlct a\nmld a\n",
    cap=4, budget=100_000, weight_bound=8,
)
# Each number below was once read by its own reader: 1/0 in a generator ended
# in a traceback, x\u00b2 and a 5 000-digit literal in Python's advice on int(),
# and the rest were accepted, most as another number.
@example(script="ring N=2 p=0\nideal a: x1 + 1/0\nlct a\n", cap=4, budget=100_000, weight_bound=8)
@example(script="ring N=2 p=5\nideal a: x1 + 1/0\nlct a\n", cap=4, budget=100_000, weight_bound=8)
@example(script="ring N=2 p=0\nideal a: x1^2 + x\u00b2\nlct a\n", cap=4, budget=100_000, weight_bound=8)
@example(script="ring N=2 p=5\nideal a: x1^2 + x\u0661\nlct a\n", cap=4, budget=100_000, weight_bound=8)
@example(script="ring N=\uff12 p=\uff15\nideal a: x1\nlct a\n", cap=4, budget=100_000, weight_bound=8)
@example(script="ring N=2 p=5\nideal a: x1\nmld a:0.5\n", cap=4, budget=100_000, weight_bound=8)
@example(script="ring N=2 p=5\nideal a: x1\nmld a:1e0\n", cap=4, budget=100_000, weight_bound=8)
@example(script="ring N=2 p=5\nideal a: x1\nmld a:\n", cap=4, budget=100_000, weight_bound=8)
@example(script="ring N=2 p=0\nideal a: x1 + " + "7" * 5000 + "\nlct a\n",
         cap=4, budget=100_000, weight_bound=8)
def test_estimator_commands_exit_with_a_contract_code(script, cap, budget, weight_bound):
    code, out, err = main_on(script, "--cap", str(cap), "--gb-budget", str(budget),
                             "--weight-bound", str(weight_bound))
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code:
        assert err.startswith("error:") and out == ""
    else:
        assert err == ""


# -- fuzzing the tower, jet and bridge commands --------------------------------------

FUZZ_TOWERS = [
    "blowup chart=root point=(0,0)",
    "blowup chart=root point=(1,1)",
    "blowup chart=root point=(0,0); blowup chart=2 point=(0,0)",
    "blowup chart=root point=(0,0); blowup chart=1 point=(1,0)",
    "blowup chart=root point=(0,0); blowup chart=2 point=(1,1); blowup chart=3 point=(4,0)",
]
# first tokens: a tower for the tower commands, an ideal for heights and jets
TOWER_FIRST = ["T", "T", "T", "a"]
IDEAL_FIRST = ["a", "b", "c", "d", "T"]
OTHER_COMMANDS = {
    "keval": TOWER_FIRST, "veval": TOWER_FIRST, "logdisc": TOWER_FIRST,
    "zeval": TOWER_FIRST, "bridge": TOWER_FIRST, "suspend": TOWER_FIRST,
    "heights": IDEAL_FIRST, "jets": IDEAL_FIRST, "selftest": [],
}
REST_TOKENS = [
    "a", "b", "c", "d", "d", "T", "undeclared", "a:1/2", "b:2", "d:1", "a:1/0",
    "divisor=1", "divisor=2", "divisor=3", "divisor=0", "divisor=x", "divisor=\uff11",
    "a:0.5", "a:1e0", "a:",
    "0", "2", "-1", "99999999999999999999",
    "e=(1/2)", "e=1", "e=(1,1)", "e=1/0", "tamper",
]
# Most lines are drawn whole from these, so that most scripts reach a command;
# one line in eight is drawn token by token above and is mostly malformed.
WELL_FORMED = [
    "keval T", "keval T divisor=1", "veval T a", "veval T d divisor=1", "logdisc T a:1/2 b:2",
    "logdisc T d", "zeval T a", "zeval T b divisor=1", "bridge T a", "bridge T a b e=(1,1/2)",
    "bridge T d tamper", "suspend T", "suspend T b", "heights a", "heights d", "jets b",
    "jets a 2", "selftest",
]


@st.composite
def tower_command_scripts(draw):
    lines = [
        f"ring N=2 p={draw(st.sampled_from([0, 2, 3, 5, 7]))}",
        FUZZ_IDEALS,
        "ideal d: 4*x2 + x1^2*x2^2 + x2^2",
        f"tower T: {draw(st.sampled_from(FUZZ_TOWERS))}",
    ]
    for _ in range(draw(st.integers(1, 2))):
        if draw(st.integers(0, 7)):
            lines.append(draw(st.sampled_from(WELL_FORMED)))
            continue
        command = draw(st.sampled_from(sorted(OTHER_COMMANDS)))
        tokens = [draw(st.sampled_from(OTHER_COMMANDS[command]))] if OTHER_COMMANDS[command] else []
        tokens += [draw(st.sampled_from(REST_TOKENS)) for _ in range(draw(st.integers(0, 3)))]
        lines.append(" ".join([command] + tokens))
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(script=tower_command_scripts(), budget=st.sampled_from([0, 1, 8, 100_000]))
@example(script=BASIC + "jets a 99999999999999999999\n", budget=100_000)
@example(  # a lift that breaks the bridge's hypothesis: exit 2, asserted exactly above
    script="ring N=2 p=5\nideal d: 4*x2 + x1^2*x2^2 + x2^2\ntower T: " + FUZZ_TOWERS[-1]
    + "\nbridge T d\n",
    budget=100_000,
)
@example(script=BASIC + "keval T divisor=\uff11\n", budget=100_000)  # once read as divisor 1
@example(script="ring N=2 p=0\ntower T: blowup chart=root point=(1_0,0)\nkeval T\n", budget=100_000)
def test_other_commands_exit_with_a_contract_code(script, budget):
    code, out, err = main_on(script, "--cap", "2", "--gb-budget", str(budget))
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code:
        assert err.startswith("error:") and out == ""
    else:
        assert err == ""
    if code == 1:
        name = err.split(":", 2)[1].strip()
        assert issubclass(getattr(errors, name), errors.MathCheckFailed)


# -- the number reader ---------------------------------------------------------------


@given(q=st.fractions(), r=st.fractions(min_value=0).map(lambda r: r + 1))
def test_every_fraction_literal_reads_back_in_each_rational_position(q, r):
    """str(q) where a sign is allowed, str(r) where an exponent must be positive."""
    script = parse_script(
        f"ring N=2 p=0\nideal a: {q}*x1 + x2\n"
        f"tower T: blowup chart=root point=({q},0); blowup chart=1 set=(x1={q},x2=0)\n"
        f"mld a:{r}\nbridge T a e=({q})\n"
    )
    assert script.ideals["a"].gens[0].terms.get((1, 0), 0) == q
    assert [step.center.constraints for step in script.towers["T"].steps] == [((0, q), (1, 0))] * 2
    (_, _, (factors,), _), (_, _, (_, _, evecs, _), _) = script.commands
    assert factors[0][1] == r and evecs == [(q,)]


# Every digit of these is in a number position, and each template parses.
DIGIT_TEMPLATES = [
    "ring N=2 p=0\nideal a: 3*x1^2 - 1/2*x2^3\n"
    "tower T: blowup chart=root point=(1/2,-3); blowup chart=1 set=(x1=0,x2=+4)\n"
    "veval T a divisor=1\nmld a:3/2\njets a 1\nbridge T a e=(1/2)\n",
    "ring N=2 p=5\nideal a: 3*x1^2 + 4*x2^3\n"
    "tower T: blowup chart=root point=(1,-3); blowup chart=2 set=(x1=0,x2=2)\nkeval T divisor=2\n",
]


@given(template=st.sampled_from(DIGIT_TEMPLATES), data=st.data(),
       digit=st.characters(categories=["Nd"], min_codepoint=128))
def test_a_digit_that_is_not_ascii_exits_two_wherever_it_stands(template, data, digit):
    parse_script(template)
    at = data.draw(st.sampled_from([i for i, ch in enumerate(template) if ch.isdigit()]))
    code, out, err = main_on(template[:at] + digit + template[at + 1:])
    line = template.count("\n", 0, at) + 1
    assert (code, out) == (2, "")
    assert err.startswith(f"error: ScriptSyntaxError: line {line}: ")
    if line == 2:  # inside a generator
        assert " at column " in err
