"""One pass of one workload, in a fresh interpreter.

Started by run.py, once per sample, so that nothing a pass leaves behind
in the process (a memo, a warmed cache) reaches the next sample: every
pass pays what a user pays when they start towerval.  Prints one JSON
line: the pass time, the set-up time counted from the moment the parent
started this process, peak RSS, the operation outcomes and a digest of
all results.  With --trace 1 it also installs the tracer before set-up
and adds the per-layer metrics; --spans-out also writes the spans.

Times are reported twice: as measured (wall_*), and rescaled to a
reference speed (pass_s, setup_s).  On a shared machine the speed of
Python code drifts by up to 2x for minutes at a time with the load of
other tenants, far more than the changes the benchmark must resolve.  So
the process times a fixed pure-Python loop, which runs no towerval code,
right before and right after the pass, and scales the wall times by
REFERENCE_S / (the loop's time).  A change to towerval moves the pass and
not the loop; a slow minute on the machine moves both.

    PYTHONPATH=src python3 towerbench/passrun.py --workload contact-q --seed 0
"""

import time

_STARTED_NS = time.monotonic_ns()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

# About the time of reference_loop on an idle core of the shared 2-core
# x86-64 VM the benchmark was sized on (Python 3.11); it only fixes the
# scale, so that pass_s reads as seconds there.
REFERENCE_S = 0.03


def reference_loop():
    """Fixed work of the kind towerval does: products of dense polynomials
    held as dicts keyed by exponent tuples, over Q and over F_101."""
    for size, modulus in ((9, None), (12, 101)):
        if modulus is None:
            terms = {(i, j): Fraction(i + 1, j + 2) for i in range(size) for j in range(size)}
        else:
            terms = {(i, j): (7 * i + j) % modulus + 1 for i in range(size) for j in range(size)}
        out = {}
        for (i, j), c in terms.items():
            for (k, m), d in terms.items():
                v = out.get((i + k, j + m), 0) + c * d
                out[(i + k, j + m)] = v if modulus is None else v % modulus


def reference_s() -> float:
    gc.collect()  # the pass's garbage must not land on the loop
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_loop()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pass-id", type=int, default=1)
    ap.add_argument("--spans-out", help="file to write this pass's spans to (traced passes)")
    ap.add_argument("--spawned-ns", type=int, default=_STARTED_NS,
                    help="CLOCK_MONOTONIC reading taken by the parent just before it "
                         "started this process")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer().install()
    import workloads

    calls = workloads.prepare(args.workload, args.seed)
    wall_setup_s = (time.monotonic_ns() - args.spawned_ns) / 1e9
    ref_before = reference_s()

    if tracer is not None:
        tracer.pass_id = args.pass_id
    results = []
    t0 = time.perf_counter()
    for call in calls:
        try:
            results.append((call.run(), None))
        except Exception as exc:  # judged below as a failed operation
            results.append((None, exc))
    wall_pass_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.pass_id = 0
        tracer.restore()
    ref_after = reference_s()

    outcomes = []
    digest = hashlib.sha256()
    for call, (result, exc) in zip(calls, results):
        outcomes += call.judge(result, exc)
        text = repr(result) if exc is None else f"{type(exc).__name__}: {exc}"
        digest.update(f"{call.label}\n{text}\n".encode("utf-8"))

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "pass_id": args.pass_id,
        "traced": bool(args.trace),
        "pass_s": wall_pass_s * REFERENCE_S / ((ref_before + ref_after) / 2),
        "setup_s": wall_setup_s * REFERENCE_S / ref_before,
        "wall_pass_s": wall_pass_s,
        "wall_setup_s": wall_setup_s,
        "reference_s": [ref_before, ref_after],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": len(outcomes),
        "failed": sum(1 for _, outcome, _ in outcomes if outcome != "ok"),
        "budget": sum(1 for _, outcome, _ in outcomes if outcome == "budget"),
        "mismatches": [f"{label}: {detail}" for label, outcome, detail in outcomes
                       if outcome != "ok"][:10],
        "digest": digest.hexdigest(),
    }
    if tracer is not None:
        record["layers"] = tracer.layer_metrics()
        record["module_self_s"] = tracer.module_self_s(args.pass_id)
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "pass_id"],
                           "spans": tracer.spans}, fh)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
