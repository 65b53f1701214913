"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tiny-pipeline --seed 1 --seconds 20 --trace 0

Run from the root of a spinemetric checkout; the program is imported from
its ``src/``. The workload sets up ``SETUP_REPEATS`` times (``setup_s`` is
the median), then runs timed operations until ``--seconds`` have passed and
checks every result. Last, untimed, it runs one operation at the reference
size and seed and checks it against the result recorded in
``reference.json``. The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1`` they
are the per-layer ones, from spans recorded around every spinemetric call.
The line before it holds the details: machine, per-operation samples and
the issue-named metrics.

Times and rates are reported at the reference machine speed
(``speed.py``): a probe samples the host's speed every 50 ms of the set-ups
and timed operations, and each wall time is scaled by it. The wall times
themselves are in the detail line's ``wall``.

Working files go to ``.perfbench/`` under the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
# The size and seed whose results reference.json records.
REFERENCE_SIZE, REFERENCE_SEED = "smallest", 0
END_TO_END = {"setup_s": "s", "op_s": "s", "rows_per_s": "1/s", "peak_rss_mb": "MB"}


def single_blas_thread() -> int:
    """Run BLAS on one thread; must run before numpy is imported. Returns
    the number of cores this process may use.

    On a shared host of a few vCPUs, a second BLAS thread ties each call's
    time to another vCPU's neighbours, and its spin-wait after each call
    keeps that vCPU busy; with one thread the workload runs at the speed of
    the core that ``speed.SpeedProbe`` samples."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def import_program(root: Path):
    """Import spinemetric from ``root/src``, and from nowhere else."""
    src = (root / "src").resolve()
    if not (src / "spinemetric" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no spinemetric sources under {src}")
    sys.path.insert(0, str(src))
    import spinemetric

    if Path(spinemetric.__file__).resolve().parent != src / "spinemetric":
        raise SystemExit(f"perfbench: spinemetric was imported from {spinemetric.__file__}, not {src}")
    return spinemetric


def machine(nproc: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc,
        "cpu": cpu,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        },
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def median_with_n(values) -> dict:
    return {"median": statistics.median(values), "n": len(values)} if values else {"median": None, "n": 0}


def reference_key(workload: str) -> str:
    return f"{workload}/{REFERENCE_SIZE}/{REFERENCE_SEED}"


def run_ops(workload, seconds: float, tracer, log, probe=None) -> tuple[list, int]:
    """Operations, at least one, while the next one is expected to end
    within ``seconds`` of the first one's start. Returns each successful
    operation's result with the factors that turn its wall times and its
    rows' wall time into reference-speed times (1 without a probe), and
    the failure count."""
    results, failed, index = [], 0, 0
    started = time.perf_counter()
    last = 0.0
    while index == 0 or time.perf_counter() - started + last <= seconds:
        if tracer is not None:
            tracer.begin_op(workload.name, index)
        gc.collect()  # no earlier operation's garbage is collected in this one
        t0 = time.perf_counter()
        try:
            result = workload.run_op()
            op_factor = speed_factor(probe, result.span)
            results.append((result, op_factor, speed_factor(probe, result.rows_span) if result.rows_span else op_factor))
        except Exception as exc:  # an operation failed: count it and go on
            failed += 1
            log(f"{workload.name} operation {index} failed: {exc!r}")
            traceback.print_exc(file=sys.stderr)
        last = time.perf_counter() - t0
        index += 1
    return results, failed


def speed_factor(probe, span) -> float:
    """Reference-speed seconds per wall second over ``span``."""
    return probe.reference_seconds(*span) / (span[1] - span[0]) if probe else 1.0


def reference_op(cls, workdir: Path, tracer, recorded, log):
    """Set up ``cls`` at the reference size and seed and run one operation
    that must reproduce ``recorded``; with ``recorded=None`` the result is
    taken to be recorded instead. Returns (failed: 0 or 1, the result)."""
    label = f"{cls.name}@{REFERENCE_SIZE}"
    workload = cls(REFERENCE_SEED, REFERENCE_SIZE, workdir, tracer, recorded)
    try:
        if tracer is not None:
            tracer.begin_op(label, "setup")
        workload.run_setup()
        if tracer is not None:
            tracer.begin_op(label, 0)
        workload.run_op()
        return 0, workload.recorded
    except Exception as exc:  # the reference operation failed: count it
        log(f"{label} reference operation failed: {exc!r}")
        traceback.print_exc(file=sys.stderr)
        return 1, None
    finally:
        workload.cleanup()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("default", "smallest"), default="default")
    parser.add_argument(
        "--reference", type=Path, default=HERE / "reference.json",
        help="recorded results to check against (default: perfbench/reference.json)",
    )
    parser.add_argument(
        "--record", action="store_true",
        help="write the reference operation's result into --reference instead of checking it",
    )
    args = parser.parse_args(argv)

    nproc = single_blas_thread()
    root = Path.cwd()
    import_program(root)
    import spans as tracing
    import speed
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    def log(msg):
        print(f"perfbench: {msg}", file=sys.stderr)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    references = json.loads(args.reference.read_text()) if args.reference.is_file() else {}
    workdir = root / ".perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, args.size, workdir / "main", tracer)
    probe = speed.SpeedProbe()
    probe.start()
    try:
        setup_s, wall_setup_s = [], []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            if tracer is not None:
                tracer.begin_op(workload.name, "setup")
            t0 = time.perf_counter()
            wall_setup_s.append(workload.run_setup())
            setup_s.append(wall_setup_s[-1] * speed_factor(probe, (t0, time.perf_counter())))
        timed, failed = run_ops(workload, args.seconds, tracer, log, probe)
    finally:
        probe.stop()
        workload.cleanup()
    results = [r for r, _, _ in timed]
    attempted = len(results) + failed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # A recorded result a wrong program cannot reproduce, whatever the size
    # and seed above. A traced run reproduces every workload's: their spans
    # fill the layers this workload bypasses.
    checked = [args.workload] + ([n for n in workloads.WORKLOADS if n != args.workload] if args.trace else [])
    for name in checked:
        key = reference_key(name)
        recorded = None if args.record else references.get(key)
        if recorded is None and not args.record:
            log(f"reference operation failed: {args.reference} records no result for {key}")
            attempted, failed = attempted + 1, failed + 1
            continue
        ref_failed, result = reference_op(workloads.WORKLOADS[name], workdir / name, tracer, recorded, log)
        attempted, failed = attempted + 1, failed + ref_failed
        if args.record and result is not None:
            references[key] = result
    shutil.rmtree(workdir, ignore_errors=True)
    if args.record:
        args.reference.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")

    op_s = [r.op_s * f for r, f, _ in timed]
    rows_per_s = [r.rows_per_s / f for r, _, f in timed]
    end_to_end = {
        "setup_s": statistics.median(setup_s),
        "op_s": statistics.median(op_s) if op_s else 0.0,
        "rows_per_s": statistics.median(rows_per_s) if rows_per_s else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }
    named = sorted({k for r in results for k in r.detail})
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(nproc),
        "setup_s": setup_s,
        "op_s": op_s,
        "rows_per_s": rows_per_s,
        "wall": {
            "setup_s": wall_setup_s,
            "op_s": [r.op_s for r in results],
            "rows_per_s": [r.rows_per_s for r in results],
        },
        "speed_factors": [[f, rows_f] for _, f, rows_f in timed],
        "probes": {"n": len(probe.seconds), "median_s": statistics.median(probe.seconds) if probe.seconds else None},
        # Times scale as op_s does and rates as rows_per_s does.
        "issue_metrics": {
            k: median_with_n([
                r.detail[k] / rows_f if k.endswith("_per_s") else r.detail[k] * f
                for r, f, rows_f in timed if k in r.detail
            ])
            for k in named
        },
        "failed_fraction": failed / attempted,
        "end_to_end": end_to_end,
    }

    if args.trace:
        metrics, source = tracing.layer_metrics(tracer.spans, args.workload)
        metrics["backbone.sgemm_gflops"] = (tracing.sgemm_gflops(), "GFLOP/s")
        metrics["trace.op_s"] = (end_to_end["op_s"], "s")
        metrics["trace.rows_per_s"] = (end_to_end["rows_per_s"], "1/s")
        detail["layer_source"] = source
        detail["spans"] = len(tracer.spans)
        tracer.write(root / ".perfbench" / "trace" / f"{args.workload}-seed{args.seed}.jsonl")
        out_metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())}
    else:
        out_metrics = {k: {"value": end_to_end[k], "unit": u} for k, u in END_TO_END.items()}

    print(json.dumps({"perfbench": detail}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
