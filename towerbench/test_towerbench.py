"""Checks on the benchmark itself: tracer coverage, counter determinism,
that tracing changes no result, and that the output checks catch wrong
answers.  Each traced or plain pass runs in its own interpreter, as in a
benchmark run, so the whole module takes a few seconds."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNTERS = ("calls", "steps", "basis_max", "nvars_max", "zero_frac", "repeat_frac",
            "charts_built", "budget_cells", "output_bytes", "evals_per_call")


def _originals():
    import towerval.cli  # noqa: F401

    out = {}
    for name, module, attr in tracer.TRACED:
        owner = sys.modules[f"towerval.{module}"]
        if "." in attr:
            cls, meth = attr.split(".")
            out[id(getattr(owner, cls).__dict__[meth])] = name
        else:
            out[id(getattr(owner, attr))] = name
    return out


def _bindings(ids):
    """(owner, attribute, value) for every towerval binding of the given functions."""
    owners = tracer.package_modules() + [sys.modules["towerval.polyring"].Polynomial]
    return [(o, key, v) for o in owners for key, v in vars(o).items() if id(v) in ids]


def test_tracer_wraps_every_binding_and_restores_it():
    originals = _originals()
    before = _bindings(originals)
    assert {originals[id(v)] for _, _, v in before} == {name for name, _, _ in tracer.TRACED}
    # contact_codim_at_origin is imported by name into bridge, invariants and the package
    cc = sys.modules["towerval.jets"].contact_codim_at_origin
    assert sum(1 for _, _, v in before if v is cc) >= 4

    t = tracer.Tracer().install()
    try:
        assert not _bindings(originals), "an original function is still reachable"
        for owner, key, _ in before:
            assert getattr(vars(owner)[key], "__wrapped_by_tracer__", False)
    finally:
        t.restore()
    for owner, key, original in before:
        assert vars(owner)[key] is original


def _pass(workload, seed, trace):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(HERE / "passrun.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counters_repeat_and_tracing_changes_no_result(workload):
    seed = 3
    plain = _pass(workload, seed, 0)
    first, second = _pass(workload, seed, 1), _pass(workload, seed, 1)
    for record in (plain, first, second):
        assert record["failed"] == 0, record["mismatches"]
    assert plain["digest"] == first["digest"] == second["digest"]
    counters = [k for k in first["layers"] if k.rsplit(".", 1)[1] in COUNTERS]
    assert {k: first["layers"][k] for k in counters} == {k: second["layers"][k] for k in counters}

    layers = first["layers"]
    if workload == "contact-q":
        assert layers["tower.blow_up.calls"] == 0
        assert layers["jets.contact_codim.repeat_frac"] == 0
        assert layers["jets.groebner.calls"] > 0
    elif workload == "session-fp":
        assert layers["jets.contact_codim.repeat_frac"] > 0
        assert layers["cli.output_bytes"] > 0
    else:
        assert layers["jets.groebner.calls"] == 0
        assert layers["tower.blow_up.calls"] > 0


def test_benchmark_json_matches_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    names = tracer.LAYER_METRICS + ("trace.overhead",)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {n: run.layer_unit(n) for n in names}


def test_run_refuses_a_directory_without_the_package(tmp_path):
    bench = tmp_path / "towerbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, "towerbench/run.py", "--workload", "contact-q", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_checks_catch_wrong_answers():
    judge = workloads._expect_value("cell", 5)
    assert judge(5, None)[0][1] == "ok"
    assert judge(6, None)[0][1] == "failed"
    budget_exc = tracer.towerval.errors.BudgetExceeded("step budget of 1 exhausted")
    assert judge(None, budget_exc)[0][1] == "budget"

    golden = (workloads.GOLDEN_DIR / "session-fp.txt").read_text(encoding="utf-8")
    session = workloads._session_judge(0, golden)
    assert {o for _, o, _ in session((0, golden, ""), None)} == {"ok"}
    wrong = golden.replace("height_p=1 height_q=1", "height_p=1 height_q=2")
    assert [o for _, o, _ in session((0, wrong, ""), None)].count("failed") == 1
    assert {o for _, o, _ in session((3, "", "error: BudgetExceeded"), None)} == {"budget"}

    (bridge,) = [lines for head, lines in workloads.split_blocks(golden) if " bridge " in head]
    assert workloads.bridge_identity_errors(bridge) == []
    bent = [line.replace("k_F=5", "k_F=6") for line in bridge]
    assert workloads.bridge_identity_errors(bent)
