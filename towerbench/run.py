"""Run one workload of the towerval benchmark and print its metrics.

    python3 towerbench/run.py --workload contact-q --seed 0 --seconds 40 --trace 0

Run from the root of a checkout; towerval is imported from ./src.  The load
is a closed loop with one caller: passes run one after another, each in a
fresh interpreter (passrun.py), until --seconds have gone by.  No threads
or parallel processes, so the numbers measure towerval and not the
scheduler.  Every pass checks its outputs against the expected values.

With --trace 0 the last line carries the end-to-end metrics.  With
--trace 1 plain and traced passes alternate; the last line carries the
per-layer metrics (medians over the traced passes) and trace.overhead, and
the spans of the first traced pass are written to towerbench/out/.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Exit code 0 means the run completed, even if outputs were wrong
(correct is then false); any other code means no result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# A run of 40 s holds 40 or more passes on every workload, so the 75th
# percentile has at least ten samples beyond it.
TAIL = 75
RUN_LIMIT_S = 170  # a run, its last pass included, ends well inside 180 s

END_TO_END_UNITS = {
    "pass_s.p50": "s",
    f"pass_s.p{TAIL}": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "in_budget_frac": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name == "trace.overhead":
        return "ratio"
    if name == "cli.output_bytes":
        return "bytes"
    if name.endswith("evals_per_call"):
        return "evals/call"
    return "count"


class BenchError(Exception):
    pass


def spans_path(workload: str, seed: int) -> Path:
    return OUT / f"spans-{workload}-seed{seed}.json"


def run_pass(workload: str, seed: int, traced: bool, pass_id: int, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [
        sys.executable, str(HERE / "passrun.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(int(traced)),
        "--pass-id", str(pass_id),
    ]
    if traced and pass_id == 2:  # the first traced pass keeps its spans
        OUT.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(spans_path(workload, seed))]
    spawned = time.monotonic_ns()
    try:
        proc = subprocess.run(
            cmd + ["--spawned-ns", str(spawned)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the pass
        raise BenchError(f"pass {pass_id} did not finish inside the run's time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchError(f"pass {pass_id} exited with code {proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload: str, seed: int, seconds: int, trace: bool) -> list:
    started = time.monotonic()
    stop_at = started + seconds
    hard_limit = started + RUN_LIMIT_S
    records = []
    while True:
        traced = trace and len(records) % 2 == 1
        records.append(run_pass(workload, seed, traced, len(records) + 1, hard_limit))
        enough = len(records) >= (2 if trace else 1)
        if enough and time.monotonic() >= stop_at:
            return records


def end_to_end(records) -> dict:
    pass_s = [r["pass_s"] for r in records]
    attempted = sum(r["ops"] for r in records)
    return {
        "pass_s.p50": statistics.median(pass_s),
        f"pass_s.p{TAIL}": percentile(pass_s, TAIL),
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        "ok_frac": (attempted - sum(r["failed"] for r in records)) / attempted,
        "in_budget_frac": (attempted - sum(r["budget"] for r in records)) / attempted,
    }


def per_layer(records) -> dict:
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    out = {name: statistics.median_low(r["layers"][name] for r in traced)
           for name in traced[0]["layers"]}
    out["trace.overhead"] = (statistics.median(r["pass_s"] for r in traced)
                             / statistics.median(r["pass_s"] for r in plain))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "towerval" / "__init__.py").is_file():
        print(f"error: no towerval package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not 1 <= args.seconds <= RUN_LIMIT_S // 2:
        print(f"error: --seconds must be between 1 and {RUN_LIMIT_S // 2}", file=sys.stderr)
        return 2

    try:
        records = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    attempted = sum(r["ops"] for r in records)
    failed = sum(r["failed"] for r in records)
    budget = sum(r["budget"] for r in records)
    digests = {r["digest"] for r in records}
    correct = failed == 0 and len(digests) == 1

    n = len(records)
    print(f"workload {args.workload}  seed {args.seed}  {n} passes in fresh interpreters"
          f"{' (plain and traced alternating)' if args.trace else ''}")
    for r in records:
        for line in r["mismatches"]:
            print(f"  mismatch in pass {r['pass_id']}: {line}")
    if len(digests) != 1:
        print(f"  outputs differ between passes: {len(digests)} distinct digests")
    print(f"  failed_frac = {failed / attempted} ratio ({failed} of {attempted} operations)")
    print(f"  budget_frac = {budget / attempted} ratio ({budget} of {attempted} operations)")

    if args.trace:
        metrics = per_layer(records)
        units = {name: layer_unit(name) for name in metrics}
        path = spans_path(args.workload, args.seed).relative_to(ROOT)
        print(f"  spans of traced pass 2 written to {path}")
        traced = [r for r in records if r["traced"]]
        wall_pass_s = statistics.median(r["wall_pass_s"] for r in traced)
        for module in traced[0]["module_self_s"]:
            share = statistics.median(r["module_self_s"][module] for r in traced) / wall_pass_s
            print(f"  share of traced pass in {module} = {share:.3f}")
    else:
        metrics = end_to_end(records)
        units = END_TO_END_UNITS
        beyond = sum(1 for r in records if r["pass_s"] > metrics[f"pass_s.p{TAIL}"])
        print(f"  pass_s samples: {n}, {beyond} beyond p{TAIL}")
        print(f"  as measured, before rescaling to the reference speed: pass p50 = "
              f"{statistics.median(r['wall_pass_s'] for r in records)} s, setup p50 = "
              f"{statistics.median(r['wall_setup_s'] for r in records)} s, reference loop p50 = "
              f"{statistics.median(sum(r['reference_s']) / 2 for r in records)} s")
    for name, value in metrics.items():
        print(f"  {name} = {value} {units[name]}")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
