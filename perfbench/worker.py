"""One workload process: set up, time whole passes, check the outputs.

Started by run.py, one at a time, with the BLAS thread count fixed in its
environment. It prints "READY" when the first timed operation is ready (the
end of set-up) and, as its last line, a JSON object with the pass times, the
operation counts, the peak resident memory and any output problems.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                [--trace 0|1] [--setup-only]
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MIN_PASSES = 3
MIN_TRACED_PASSES = 2


def run_op(cli, argv):
    """(exit code, stdout) of one CLI command run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an uncaught error is a failed operation
            rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue()


def timed_pass(cli, ops):
    t0 = time.perf_counter()
    results = [run_op(cli, op.argv) for op in ops]
    return time.perf_counter() - t0, results


def repeat(one_round, seconds, min_rounds):
    """Call one_round() until the next call would end after `seconds`."""
    durations = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        one_round()
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(durations) >= min_rounds and elapsed + statistics.median(durations) > seconds:
            return


def tally(ops, outputs):
    """(failed operations, problems) over every pass.

    Each operation is checked once, on its first output; every later pass
    must reproduce that output byte for byte.
    """
    problems = []
    failed = 0
    first = outputs[0]
    for k, (op, (rc, out)) in enumerate(zip(ops, first)):
        cmd = " ".join(map(str, op.argv))
        if rc != 0 and not op.expect_fail:
            problems.append(f"{cmd}: unexpected exit {rc}")
        problems += [f"{cmd}: {p}" for p in op.check(rc, out)]
        if any(later[k] != (rc, out) for later in outputs[1:]):
            problems.append(f"{cmd}: output differs between passes")
    for results in outputs:
        failed += sum(rc != 0 for rc, _ in results)
    return failed, problems


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import cvgraphsense
    from cvgraphsense import cli

    if Path(cvgraphsense.__file__).resolve().parent != SRC / "cvgraphsense":
        sys.exit(f"imported {cvgraphsense.__file__}, not the checkout's copy")
    import workloads

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.WORKLOADS[args.workload](args.seed, workdir)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        result = measure(cvgraphsense, cli, ops, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only once no other run uses it
    print(json.dumps(result), flush=True)
    return 0


def measure(package, cli, ops, args):
    times, outputs = [], []

    def untraced():
        dt, results = timed_pass(cli, ops)
        times.append(dt)
        outputs.append(results)

    result = {"pass_s": times}
    problems = []
    if not args.trace:
        repeat(untraced, args.seconds, MIN_PASSES)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        import tracer

        tr = tracer.Tracer()
        traced_times, per_pass = [], []

        def untraced_then_traced():
            # alternating keeps slow drifts of machine speed out of the overhead
            untraced()
            before = tr.totals.copy()
            tr.install(package)
            try:
                dt, results = timed_pass(cli, ops)
            finally:
                tr.uninstall()
            traced_times.append(dt)
            outputs.append(results)
            per_pass.append(tracer.metrics(tr.totals - before))

        repeat(untraced_then_traced, args.seconds, MIN_TRACED_PASSES)
        result["traced_pass_s"] = traced_times
        result["layers"] = {name: statistics.median(p[name] for p in per_pass)
                            for name in tracer.METRICS}
        problems += [f"count {name} differs between traced passes"
                     for name, (unit, _, _) in tracer.METRICS.items()
                     if unit == "count" and any(p[name] != per_pass[0][name] for p in per_pass)]
    t0 = time.perf_counter()
    failed, check_problems = tally(ops, outputs)
    result.update(attempted=len(ops) * len(outputs), failed=failed,
                  problems=check_problems + problems, ops=len(ops), passes=len(outputs),
                  check_s=time.perf_counter() - t0)
    return result


if __name__ == "__main__":
    sys.exit(main())
