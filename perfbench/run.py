#!/usr/bin/env python3
"""sslab benchmark: seeded workloads driven through the CLI, in process.

    python3 perfbench/run.py --workload prune --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout of the repository; the package is
imported from `src/` next to this directory.  One process runs one
workload: it imports `sslab`, writes the seeded host files, then runs the
workload's fixed command list through `sslab.cli.main` again and again
(closed loop, one command at a time) for `--seconds`.  It then checks every
output and prints one JSON line of results last.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json.  `--trace 1`
spends half of `--seconds` on untraced repetitions and half on repetitions
with spans installed, and reports the per-layer metrics.  README.md defines
every metric.

The process runs single-threaded (one BLAS thread, one `sweep` worker) and
quotes `run_s` and `setup_s` at a reference host speed, measured by the
calibration task of `calibrate.py`, which runs before every timed command.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

# fixed before numpy is first imported; a BLAS or sweep thread beyond the
# first only adds scheduler noise on a few shared cores
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "SSLAB_THREADS": "1"}
os.environ.update(THREAD_ENV)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import sslab.cli, scipy.sparse.linalg; "
    "print(time.perf_counter() - t)"
)
COUNT_METRICS = ("graphs.built", "spectra.perron.calls", "supersat.prune_steps")

sys.path.insert(0, HERE)
import workloads  # noqa: E402
from calibrate import REF_S, Calibration  # noqa: E402


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--capture", action="store_true",
                   help="store this seed's outputs as the reference (full size only)")
    return p.parse_args(argv)


def _metric_specs() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _import_sslab():
    if not os.path.isdir(os.path.join(SRC, "sslab")):
        raise SystemExit(f"error: no sslab package under {SRC}")
    sys.path.insert(0, SRC)
    import sslab
    import sslab.cli
    # spectra imports the sparse eigensolver lazily on its first large solve;
    # load it here so that cost is set-up, not the first timed repetition
    import scipy.sparse.linalg  # noqa: F401

    if not os.path.abspath(sslab.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: sslab imported from {sslab.__file__}, not {SRC}")
    return sslab


def _probe_import_s() -> float:
    """Seconds to import the package in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return float(out.stdout)


def _run_commands(cli, commands, calibrate=None):
    """One repetition: each command in order, stdout/stderr captured.

    Returns the results, the seconds spent in the commands and the times of
    the calibration task, which `calibrate` runs before every command.
    """
    results, run_s, cal = [], 0.0, []
    for cmd in commands:
        if calibrate is not None:
            cal.append(calibrate())
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(cmd.argv))
        except Exception:  # any crash is a failed command, not a dead benchmark
            rc, err = None, io.StringIO(traceback.format_exc())
        run_s += perf_counter() - t0
        results.append((rc, out.getvalue(), err.getvalue()))
    return results, run_s, cal


def _timed_loop(run, seconds: float):
    """Repeat `run()` until `seconds` have passed (at least twice).

    `run()` returns what `_run_commands` does.  The first repetition warms
    caches and lazy imports: its output is kept for the checks, its times
    are not.
    """
    outputs, times, cal = [run()[0]], [], []
    start = perf_counter()
    while not times or perf_counter() - start < seconds:
        res, run_s, cal_s = run()
        outputs.append(res)
        times.append(run_s)
        cal.append(cal_s)
    return times, outputs, cal


def _openblas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, if it can be queried."""
    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _environment(seed):
    import numpy
    import scipy

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": _openblas_threads(),
        **{k: os.environ.get(k) for k in THREAD_ENV},
    }


def _verify(args, prep, outputs, graphs):
    """Failed command count over all repetitions, plus the problems found.

    The first repetition is checked against the reference (when this seed
    was captured) and the oracles; every later repetition must print exactly
    what the first one printed.
    """
    import check

    ref = check.load_reference(args.workload).get(str(args.seed)) if args.size == "full" else None
    first = outputs[0]
    failed, problems, capture = 0, [], {}
    for i, cmd in enumerate(prep.commands):
        rc, stdout, stderr = first[i]
        bad = []
        if rc != 0:
            bad.append(f"exit code {rc}: {stderr.strip()[-300:]}")
        else:
            try:
                obj = check.parse(cmd, stdout)
            except ValueError as exc:
                obj, bad = None, [f"unparseable output: {exc}"]
            if obj is not None:
                capture[cmd.name] = check.reference_entry(rc, obj)
                try:
                    if ref is not None:
                        bad += check.compare_reference(ref[cmd.name], rc, obj)
                    bad += check.oracle(cmd, obj, prep, graphs)
                except Exception:  # a malformed report fails its check, not the run
                    bad.append(traceback.format_exc(limit=3))
        if bad:
            failed += len(outputs)
            problems += [f"{cmd.name}: {b}" for b in bad]
            continue
        for rep in outputs[1:]:
            if rep[i][:2] != first[i][:2]:
                failed += 1
                problems.append(f"{cmd.name}: output changed between repetitions")
    if args.capture and not problems:
        check.save_reference(args.workload, args.seed, capture)
    return failed, problems, ref is not None


def _per_layer(traced_times, untraced_times, summaries, units):
    """Layer metrics of the fastest traced repetition, so they add up to it."""
    best = min(range(len(traced_times)), key=traced_times.__getitem__)
    metrics = {name: summaries[best].get(name, 0.0) for name in units}
    metrics["bench.traced_run_s"] = traced_times[best]
    metrics["bench.trace_overhead"] = traced_times[best] / min(untraced_times) - 1
    counts = [k for k in units if k in COUNT_METRICS or k.startswith("homcounts.method.")]
    unstable = [k for k in counts if len({s.get(k, 0) for s in summaries}) > 1]
    return metrics, unstable


def main(argv=None) -> int:
    args = _args(argv)
    if args.capture and args.size != "full":
        raise SystemExit("error: references are captured at full size only")
    units = _metric_specs()[args.trace]
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        return _bench(args, units, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _bench(args, units, workdir) -> int:
    sslab = _import_sslab()
    cli, graphs = sslab.cli, sslab.graphs
    calibration = Calibration()
    # each set-up sample (a fresh-interpreter import plus host generation) is
    # quoted at the reference speed, from calibrations just before and after
    import_times, gen_times, setup_samples = [], [], []
    for i in range(SETUP_REPEATS):
        d = os.path.join(workdir, f"setup{i}")
        os.makedirs(d)
        cal = calibration()
        import_times.append(_probe_import_s())
        t1 = perf_counter()
        prep = workloads.prepare(args.workload, args.seed, args.size, d, graphs)
        gen_times.append(perf_counter() - t1)
        cal = (cal + calibration()) / 2
        setup_samples.append((import_times[-1] + gen_times[-1]) * REF_S / cal)
    setup_s = statistics.median(setup_samples)

    def rep(calibrate=None):
        return _run_commands(cli, prep.commands, calibrate)

    info = {"workload": args.workload, "size": args.size, **_environment(args.seed),
            "setup": {"import_s": import_times, "generate_s": gen_times,
                      "quoted_s": setup_samples}}
    budget = args.seconds / 2 if args.trace else args.seconds
    times, outputs, cal_times = _timed_loop(lambda: rep(calibration), budget)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    unstable = []
    if args.trace:
        from spans import ROOT as ROOT_SPAN
        from spans import Tracer

        tracer = Tracer("sslab")
        summaries = []

        def traced():
            tracer.reset()
            tracer.install()
            try:
                return tracer.span(ROOT_SPAN, rep)()
            finally:
                tracer.uninstall()
                summaries.append(tracer.summary())

        traced_times, traced_outputs, _ = _timed_loop(traced, budget)
        summaries.pop(0)  # the warm-up repetition's
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl"))
        outputs += traced_outputs
        info["traced_run_s_samples"] = traced_times
    elif args.workload == "sweep":
        # thread scaling of the sweep pool: one repetition each, information only
        scaling = {}
        try:
            for threads in (1, os.cpu_count() or 1):
                os.environ["SSLAB_THREADS"] = str(threads)
                res, scaling[str(threads)], _ = rep()
                outputs.append(res)
        finally:
            os.environ["SSLAB_THREADS"] = THREAD_ENV["SSLAB_THREADS"]
        info["sweep_run_s_by_threads"] = scaling

    failed, problems, referenced = _verify(args, prep, outputs, graphs)
    attempted = len(outputs) * len(prep.commands)
    error_rate = failed / attempted
    # a repetition's speed factor: REF_S over its mean calibration time
    speeds = [REF_S / statistics.mean(c) for c in cal_times]
    info.update(repetitions=len(times), wall_s_samples=times, calibration_s_samples=cal_times,
                speed_factors=speeds, reference_checked=referenced, problems=problems[:20])
    if args.trace:
        metrics, unstable = _per_layer(traced_times, times, summaries, units)
        metrics["bench.error_rate"] = error_rate
        info["unstable_counts"] = unstable
    else:
        metrics = {"run_s": statistics.median(w * f for w, f in zip(times, speeds)),
                   "setup_s": setup_s,
                   "peak_rss_mb": peak_rss_mb}
    for p in problems[:20]:
        sys.stderr.write(f"check failed: {p}\n")
    print(json.dumps({"info": info}))
    result = {
        "correct": failed == 0 and not unstable,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
