"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests

Every workload runs at its smallest size. A run must emit every metric
BENCHMARK.json names, with its unit; a corrupted input, a perturbed
reference or a missing one must count as a failed operation.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
import run  # noqa: E402

run.single_blas_thread()
run.import_program(ROOT)
import spans  # noqa: E402
import workloads  # noqa: E402


def bench(workload, trace=0, *extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--size", "smallest", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units(metric_specs) -> dict:
    return {m["name"]: m["unit"] for m in metric_specs}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = result_of(bench(workload, 0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units(SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    result = result_of(bench(workload, 1))
    assert result["correct"] and result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units(SPEC["per_layer"])


def _flip(path: Path, offset: int, mask: int) -> None:
    data = bytearray(path.read_bytes())
    data[offset] ^= mask
    path.write_bytes(bytes(data))


def _failures(workload) -> int:
    results, failed = run.run_ops(workload, 0, None, lambda msg: None)
    assert not results
    return failed


@pytest.mark.parametrize(
    "offset, mask",
    [(5, 0x01), (16 + 4 * 4000 + 3, 0x01)],  # header field; one pixel's float32 payload
    ids=["header", "payload"],
)
def test_byte_flipped_vpat_fails_the_operation(tmp_path, monkeypatch, offset, mask):
    wl = workloads.GenIO(0, "smallest", tmp_path)
    wl.run_setup()
    real_load = workloads.phantom.load_dataset

    def corrupt_then_load(manifest_path):
        _flip(Path(manifest_path).parent / "sample_000003.vpat", offset, mask)
        return real_load(manifest_path)

    monkeypatch.setattr(workloads.phantom, "load_dataset", corrupt_then_load)
    assert _failures(wl) == 1


@pytest.mark.parametrize("where", ["magic", "payload"])
def test_byte_flipped_gmck_fails_the_operation(tmp_path, where):
    wl = workloads.ProbeEval(0, "smallest", tmp_path)
    wl.run_setup()
    size = wl.checkpoint.stat().st_size
    # The last byte holds the sign and high exponent bits of a float32.
    _flip(wl.checkpoint, 0 if where == "magic" else size - 1, 0x40)
    assert _failures(wl) == 1


PERTURB = {
    "tiny-pipeline": lambda ref: ref["epoch_losses"][0].__setitem__(0, ref["epoch_losses"][0][0] * 1.01),
    "full-grading": lambda ref: ref.__setitem__("loss", ref["loss"] * 1.01),
    "probe-eval": lambda ref: ref["confusion"][0].__setitem__(0, ref["confusion"][0][0] + 1),
    "gen-io": lambda ref: ref.__setitem__("digest", "0" * 64),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_reference_fails_the_reference_operation(tmp_path, workload):
    doc = json.loads((BENCH / "reference.json").read_text())
    PERTURB[workload](doc[run.reference_key(workload)])
    perturbed = tmp_path / "reference.json"
    perturbed.write_text(json.dumps(doc))
    result = result_of(bench(workload, 0, "--reference", str(perturbed)))
    # One timed operation, which has nothing recorded to reproduce, and the
    # reference operation, which must fail.
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (2, 1)


def test_missing_reference_fails_the_run(tmp_path):
    empty = tmp_path / "reference.json"
    empty.write_text("{}")
    result = result_of(bench("gen-io", 0, "--reference", str(empty)))
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (2, 1)


def test_recorded_reference_holds_every_workload():
    doc = json.loads((BENCH / "reference.json").read_text())
    assert {run.reference_key(w) for w in WORKLOADS} <= set(doc)


def test_run_without_program_sources_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_child_spans():
    tracer = spans.Tracer()
    tracer.begin_op("w", 0)
    outer = tracer.open("cli.train")
    inner = tracer.open("pipeline.run_stage")
    tracer.close(inner)
    tracer.close(outer)
    outer.start, outer.end, inner.start, inner.end = 0.0, 1.0, 0.25, 0.75
    metrics, _ = spans.layer_metrics(tracer.spans, "w")
    assert metrics["cli.self_ms"] == (500.0, "ms")
    assert metrics["pipeline.self_ms"] == (500.0, "ms")


def test_layer_metrics_prefer_timed_operations_to_set_up():
    tracer = spans.Tracer()
    # Only the set-ups generate patches; both set-up and operation save.
    for op, names, seconds in (
        (("w", "setup"), ("phantom.generate_patch", "phantom.save_dataset"), 4.0),
        (("w", 0), ("phantom.save_dataset",), 1.0),
        (("v", "setup"), ("phantom.generate_patch", "phantom.save_dataset"), 8.0),
    ):
        tracer.begin_op(*op)
        for name in names:
            span = tracer.open(name)
            tracer.close(span)
            span.start, span.end = 0.0, seconds
    metrics, source = spans.layer_metrics(tracer.spans, "w")
    assert (metrics["phantom.save_ms"], source["phantom.save_ms"]) == ((1000.0, "ms"), "w")
    assert (metrics["phantom.generate_ms"], source["phantom.generate_ms"]) == ((4000.0, "ms"), "w set-up")


def test_active_fraction_counts_tuple_losses_only():
    tracer = spans.Tracer()
    tracer.begin_op("w", 0)
    for name, active in (("losses.grading_loss", True), ("losses.triplet_loss", False),
                         ("losses.cross_entropy", True), ("losses.cross_entropy", True)):
        span = tracer.open(name)
        tracer.close(span)
        span.attrs["active"] = active
    metrics, _ = spans.layer_metrics(tracer.spans, "w")
    assert metrics["losses.active_fraction"] == (0.5, "share")
    assert metrics["losses.calls"] == (4.0, "count")


def test_reference_seconds_scales_program_time_between_probes():
    import speed

    probe = speed.SpeedProbe()
    ref = speed.PROBE_REF_S
    # Probes at 1.0 s (reference speed) and 2.0 s (half speed), each ref long.
    probe.starts, probe.seconds = [1.0, 2.0], [ref, 2 * ref]
    # 0.5 s before the first probe runs at its speed; the probe is left out.
    assert probe.reference_seconds(0.5, 1.0 + ref) == pytest.approx(0.5)
    # The stretch after the first probe ends with the half-speed one.
    assert probe.reference_seconds(1.0 + ref, 2.0) == pytest.approx((1.0 - ref) / 2)
    # After the last probe, its speed holds.
    assert probe.reference_seconds(3.0, 4.0) == pytest.approx(0.5)
    assert speed.SpeedProbe().reference_seconds(0.0, 2.0) == 2.0


def test_probe_samples_while_running():
    import time

    import speed

    probe = speed.SpeedProbe()
    probe.start()
    try:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    finally:
        probe.stop()
    assert len(probe.seconds) >= 3 and all(s > 0 for s in probe.seconds)
    assert probe.starts == sorted(probe.starts)
