"""Benchmark of the cvgraphsense CLI: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads: saturation, scaling, verify,
largegraph (see README.md). Each workload process is started from here, one
at a time, with the BLAS thread count fixed at BLAS_THREADS.

--trace 0 prints the end-to-end metrics: setup_s (median of SETUP_SAMPLES
fresh interpreters, from start to the first operation ready), pass_s (median
time of one whole pass over the workload's operations) and peak_rss_mb.
--trace 1 prints the per-layer metrics instead: import times from
`python -X importtime`, per-pass counts and self times of each module, and
the tracing overhead (traced minus untraced pass_s in the same process).

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The exit code is 0 whenever that line is printed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREADS = 1
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
TIMEOUT_S = 170.0
WORKLOADS = ("saturation", "scaling", "verify", "largegraph")
# per-layer metrics measured here rather than by the tracer
EXTRA_UNITS = {"setup.import_s": "s", "setup.scipy_optimize_import_s": "s",
               "trace.pass_s": "s", "trace.overhead_s": "s"}


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(SRC)
    return env


class Deadline:
    """Kills any child still running when the run's time is up."""

    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def watch(self, proc):
        timer = threading.Timer(max(0.0, self.end - time.monotonic()), proc.kill)
        timer.daemon = True
        timer.start()
        return timer


def start_worker(args, deadline, *extra):
    """Start a workload process; return it and its set-up seconds."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env=child_env())
    timer = deadline.watch(proc)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.communicate()
        timer.cancel()
        raise RuntimeError(f"workload process failed during set-up (exit {proc.returncode})")
    return proc, timer, setup_s


def finish(proc, timer):
    out, _ = proc.communicate()
    timer.cancel()
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return out


def import_times(deadline):
    """(import cvgraphsense, import scipy.optimize) cumulative seconds."""
    proc = subprocess.Popen([sys.executable, "-X", "importtime", "-c", "import cvgraphsense"],
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                            cwd=ROOT, env=child_env())
    timer = deadline.watch(proc)
    _, err = proc.communicate()
    timer.cancel()
    if proc.returncode != 0:
        raise RuntimeError("import cvgraphsense failed")
    cumulative = {}
    for line in err.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return cumulative["cvgraphsense"], cumulative.get("scipy.optimize", 0.0)


def unit_of(name):
    return EXTRA_UNITS[name] if name in EXTRA_UNITS else tracer.METRICS[name][0]


def run(args):
    deadline = Deadline(TIMEOUT_S)
    setups = []
    layers = {}
    if args.trace:
        imports = [import_times(deadline) for _ in range(IMPORT_SAMPLES)]
        layers["setup.import_s"] = statistics.median(t[0] for t in imports)
        layers["setup.scipy_optimize_import_s"] = statistics.median(t[1] for t in imports)
    else:
        for _ in range(SETUP_SAMPLES - 1):
            proc, timer, setup_s = start_worker(args, deadline, "--setup-only")
            finish(proc, timer)
            setups.append(setup_s)
    proc, timer, setup_s = start_worker(args, deadline)
    setups.append(setup_s)
    result = json.loads(finish(proc, timer).splitlines()[-1])

    pass_s = statistics.median(result["pass_s"])
    info = {"workload": args.workload, "seed": args.seed, "blas_threads": BLAS_THREADS,
            "ops_per_pass": result["ops"], "passes": result["passes"],
            "pass_s": result["pass_s"], "setup_s": setups, "check_s": result["check_s"],
            "problems": result["problems"]}
    if args.trace:
        traced = statistics.median(result["traced_pass_s"])
        layers.update(result["layers"])
        layers["trace.pass_s"] = traced
        layers["trace.overhead_s"] = traced - pass_s
        info["traced_pass_s"] = result["traced_pass_s"]
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in layers.items()}
    else:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                   "pass_s": {"value": pass_s, "unit": "s"},
                   "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"}}
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps({"correct": not result["problems"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cvgraphsense" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    try:
        run(args)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
