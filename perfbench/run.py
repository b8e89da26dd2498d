"""tmpnn benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload {train,predict,cli,verify} \
        --seed N --seconds S --trace {0,1}

--workload all runs the four workloads one after another, each in its own
process, and prints all of their figures.

Run from anywhere; the package is imported from src/ next to this
directory.  BLAS is pinned to one thread before numpy loads, and the run
refuses to start if that does not hold.  The last line of standard output
is one JSON object: correct, attempted, failed and metrics.

--trace 0 times the gated end-to-end metrics with no instrumentation.
Every workload reports the same four names:

    setup_s      repeated set-ups spread over the run (train: before and
                 after its fit; the others: before the measured loop and
                 again every few seconds in it) of the program calls that
                 prepare the measured phase: load and split the training
                 CSV, and for predict, cli and verify also train a model,
                 save it and load it back; the fastest on train (a 40 ms
                 load), the median on the others (see workloads._Timed)
    peak_rss_mb  peak resident memory (cli: of the CLI child processes)
    latency_ms   the workload's small request -- train: one training epoch
                 of the fit (fit wall / epochs; a fit cannot be timed per
                 epoch without instrumentation); predict: a 1-row predict
                 call; cli: a `python -m tmpnn.cli --help` process (cold
                 start); verify: one probe's Euler-vs-RK4 check
    rows_per_s   the workload's large request -- train: training rows per
                 second of the fit; predict: a 100k-row call; cli: a `tmpnn
                 predict` process over a 100k-row CSV; verify: a check of 3
                 probes

How a run's requests become one figure was chosen from the spreads of
four ten-seed passes on a shared 2-vCPU VM whose speed drifts by up to a
third over seconds.  predict takes the fastest request of the run: its
requests are short in-process calls, and the fastest catches the machine's
quiet moments (1-row calls: spread 0.03-0.08 against 0.06-0.34 for the
median).  cli and verify take the mean over the run (rows_per_s = work
done / time spent on it): their requests last 0.1-2 s, too long to catch a
quiet moment, and the mean averages the drift (cli 100k-row predict:
0.06-0.09 against 0.05-0.12 for the median and 0.08-0.21 for the
fastest).  train runs one
fit of a fixed epoch budget (600 epochs), so there both come from that one
fit and are one figure read two ways: rows_per_s = training rows * 1000 /
latency_ms.
The "# figure" lines give the medians and the highest percentile with ten
samples beyond it, and the figures that are reported but not gated: train
time to held-out R^2 >= 0.99 (its epoch count depends on the seed), 256-row
latency, and the Euler/RK4 errors.

--trace 1 runs a fixed, shorter schedule three times -- plain, with every
tmpnn layer boundary wrapped (see tracer.py), plain again -- and reports the
per-layer metrics of the traced pass plus the tracing overhead.  Spans and a full
record with the environment go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("train", "predict", "cli", "verify")
E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "latency_ms": "ms",
             "rows_per_s": "rows/s"}


def _parse(argv):
    p = argparse.ArgumentParser(description="tmpnn benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def _refuse(message: str) -> int:
    print(f"perfbench: refusing to run: {message}", file=sys.stderr)
    return 2


def _traced(workloads, tracer, name, ctx):
    """Plain, traced and plain passes of the same fixed schedule.

    The overhead is the traced pass minus the mean of the plain passes
    around it, so warm-up cost does not fall on one side.
    """
    t = time.perf_counter()
    import tmpnn.cli  # noqa: F401  (first import of tmpnn in this process)
    import_s = time.perf_counter() - t
    ctx.fixed = True
    before = workloads.WORKLOADS[name](ctx)
    traced, tr = _traced_pass(workloads, tracer, name, ctx)
    after = workloads.WORKLOADS[name](ctx)
    tracer.check_expected(tr.calls, name)
    plain_s = (before.timed_s + after.timed_s) / 2
    traced.metrics = tracer.layer_metrics(tr.spans, import_s,
                                          traced.timed_s - plain_s)
    traced.figure("trace.untraced_s", plain_s, "s")
    traced.figure("trace.traced_s", traced.timed_s, "s")
    tr.dump(os.path.join(OUT, f"spans-{name}-seed{ctx.seed}.json"))
    return traced, dict(tracer.LAYER_METRICS)


def _traced_pass(workloads, tracer, name, ctx):
    """One pass under the tracer; its output checks run after the tracer is
    removed, so they do not count as work of the layers."""
    with tracer.Tracer() as tr:
        outcome = workloads.WORKLOADS[name](ctx)
    outcome.run_checks()
    return outcome, tr


def _run_all(args) -> int:
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
        code = max(code, proc.returncode)
    return code


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    if not os.path.isfile(os.path.join(SRC, "tmpnn", "__init__.py")):
        return _refuse(f"no tmpnn sources under {SRC}")
    sys.path.insert(0, ROOT)
    from perfbench import envinfo
    try:
        envinfo.pin_threads()
        sys.path.insert(0, SRC)
        spec = importlib.util.find_spec("tmpnn")
        if spec is None or not os.path.abspath(spec.origin).startswith(SRC + os.sep):
            return _refuse(f"tmpnn does not resolve to {SRC}")
        env = envinfo.environment(ROOT, SRC)
    except envinfo.EnvironmentRefused as exc:
        return _refuse(str(exc))
    from perfbench import tracer, workloads

    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    ctx = workloads.Context(root=ROOT, src=SRC, work=work, seed=args.seed,
                            seconds=args.seconds)
    try:
        if args.trace:
            outcome, units = _traced(workloads, tracer, args.workload, ctx)
        else:
            outcome, units = workloads.WORKLOADS[args.workload](ctx), E2E_UNITS
            outcome.run_checks()
    except tracer.TraceError as exc:
        print(f"perfbench: trace failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = all(ok for _, ok, _ in outcome.checks)
    result = {
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, unit in units.items():
        tag = "  (computed)" if name in tracer.COMPUTED else ""
        print(f"{name:<38} {outcome.metrics[name]:>16.6g} {unit}{tag}")
    for name, value, unit in outcome.figures:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"# figure {name:<30} {shown:>14} {unit}")
    for name, ok, detail in outcome.checks:
        print(f"# check {'PASS' if ok else 'FAIL'} {name}: {detail}")
    print(f"# operations attempted {outcome.attempted}, failed {outcome.failed}")
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, env=env,
                  figures=outcome.figures, checks=outcome.checks,
                  samples=outcome.samples)
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
