"""Print every benchmark metric, by name and with its unit, for every workload.

    python3 perfbench/report.py --seed 1 --seconds 20

Runs each workload twice in its own process, untraced and traced, from the
checkout root. End-to-end numbers come from the untraced run; the traced
run gives the per-layer numbers, and the difference between the two runs'
end-to-end numbers is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("tiny-pipeline", "full-grading", "probe-eval", "gen-io")


def run(workload: str, trace: int, args) -> tuple[dict, dict]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    detail_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(detail_line)["perfbench"], json.loads(result_line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)

    ok = True
    for workload in WORKLOADS:
        plain, plain_result = run(workload, 0, args)
        traced, traced_result = run(workload, 1, args)
        ok &= plain_result["correct"] and traced_result["correct"]
        print(f"== {workload}  seed={args.seed} seconds={args.seconds}")
        print(f"machine: {json.dumps(plain['machine'], sort_keys=True)}")
        print(
            f"correct={plain_result['correct']} attempted={plain_result['attempted']} "
            f"failed={plain_result['failed']} failed_fraction={plain['failed_fraction']:.4g}"
        )
        print("end to end (untraced):")
        for name, m in plain_result["metrics"].items():
            print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
        for name, m in plain["issue_metrics"].items():
            print(f"  {name:<40} {m['median']:>14.6g} (median of {m['n']})")
        print("tracing overhead (traced - untraced):")
        for name in ("op_s", "rows_per_s"):
            a, b = plain["end_to_end"][name], traced["end_to_end"][name]
            share = (b - a) / a if a else float("nan")
            print(f"  {name:<40} {b - a:>+14.6g} ({share:+.1%})")
        print("per layer (traced):")
        for name, m in traced_result["metrics"].items():
            source = traced["layer_source"].get(name, workload)
            note = "" if source == workload else f"  [from {source}]"
            print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}{note}")
        print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
