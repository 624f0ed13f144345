from __future__ import annotations

import contextlib
import dataclasses
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
    assert script.n == 2 and script.p == 5
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


def test_jets_dump(tmp_path, capsys):
    code, out, _ = run_main(tmp_path, capsys, BASIC + "jets a 1\n")
    assert code == 0
    assert "F0_0=x1_0" in out and "F0_1=x1_1" in out
    assert "F1_0=x2_0" in out and "F1_1=x2_1" in out


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
    broken = dataclasses.replace(good, name="broken", exponent_vectors=((1, 2, 3),))
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
        "error: DimensionMismatch: command 1 (bridge): exponent vector (1/1,2/1)"
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


@pytest.mark.parametrize("command", ["mld a:1", "crosschar a:1"])
def test_negative_cap_is_an_input_error(tmp_path, capsys, command):
    code, out, err = run_main(tmp_path, capsys, BASIC + command + "\n", "--cap", "-1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "-1" in err


def test_exit_code_one_for_failed_identities(tmp_path, capsys):
    code, _, err = run_main(tmp_path, capsys, BASIC + "bridge T a tamper\n")
    assert code == 1 and "BridgeIdentityFailed" in err


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
    text = "ring N=2 p=0\nideal c: x1^2 + x2^3\nlct c\n"
    code, _, err = run_main(tmp_path, capsys, text, "--cap", "4", "--gb-budget", "1")
    assert code == 3 and "BudgetExceeded" in err


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
    # the second run is served by the jet and contact-cell memos of the first
    text = (
        "ring N=2 p=7\n"
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


# -- fuzzing the estimator commands ------------------------------------------------

FUZZ_IDEALS = "ideal a: x1^2 + x2^3\nideal b: x1*x2\nideal c: x1 + 1"  # c misses the origin
# well-formed choices are listed more than once so that most scripts get past parsing
NAMES = ["a", "a", "b", "b", "c", "undeclared"]
EXPONENTS = ["", "", "", ":1", ":2", ":1/2", ":0", ":-1", ":x", ":1/0"]


@st.composite
def estimator_scripts(draw):
    lines = [f"ring N=2 p={draw(st.sampled_from([0, 2, 3, 5, 7]))}", FUZZ_IDEALS]
    for _ in range(draw(st.integers(1, 2))):
        tokens = [
            draw(st.sampled_from(NAMES)) + draw(st.sampled_from(EXPONENTS))
            for _ in range(draw(st.integers(0, 2)))
        ]
        command = draw(st.sampled_from(["lct", "mld", "notlc", "crosschar"]))
        lines.append(" ".join([command] + tokens))
    return "\n".join(lines) + "\n"


@settings(max_examples=150)
@given(
    script=estimator_scripts(),
    cap=st.integers(-2, 3),
    budget=st.one_of(st.integers(-1, 8), st.integers(-1, 100_000)),
)
def test_estimator_commands_exit_with_a_contract_code(script, cap, budget):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "script.tv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(script)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--script", path, "--cap", str(cap), "--gb-budget", str(budget)])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().startswith("error:") and out.getvalue() == ""
    else:
        assert err.getvalue() == ""


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
    "divisor=1", "divisor=2", "divisor=3", "divisor=0", "divisor=x",
    "0", "2", "-1", "99999999999999999999",
    "e=(1/2)", "e=1", "e=(1,1)", "e=1/0", "tamper",
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
        command = draw(st.sampled_from(sorted(OTHER_COMMANDS)))
        tokens = [draw(st.sampled_from(OTHER_COMMANDS[command]))] if OTHER_COMMANDS[command] else []
        tokens += [draw(st.sampled_from(REST_TOKENS)) for _ in range(draw(st.integers(0, 3)))]
        lines.append(" ".join([command] + tokens))
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(script=tower_command_scripts(), budget=st.sampled_from([0, 1, 8, 100_000]))
@example(script=BASIC + "jets a 99999999999999999999\n", budget=100_000)
@example(  # a lift outside the class it covers: a failed identity, exit 1
    script="ring N=2 p=5\nideal d: 4*x2 + x1^2*x2^2 + x2^2\ntower T: " + FUZZ_TOWERS[-1]
    + "\nbridge T d\n",
    budget=100_000,
)
def test_other_commands_exit_with_a_contract_code(script, budget):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "script.tv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(script)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--script", path, "--cap", "2", "--gb-budget", str(budget)])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().startswith("error:") and out.getvalue() == ""
    else:
        assert err.getvalue() == ""
    if code == 1:
        name = err.getvalue().split(":", 2)[1].strip()
        assert issubclass(getattr(errors, name), errors.MathCheckFailed)
