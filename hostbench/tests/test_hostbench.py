"""The host benchmark's own tests, on smoke-size inputs.

Run from the repository root::

    python3 -m pytest hostbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

from bench import inputs, ledger  # noqa: E402
from bench.catalog import END_TO_END, PER_LAYER  # noqa: E402
from bench.hostspeed import REFERENCE_SECONDS, HostSpeed, Reference  # noqa: E402
from bench.trace import Tracer  # noqa: E402
from bench.warm import WarmRouted  # noqa: E402
from run import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMOKE = ["--scale", "0.02", "--seconds", "1"]


def run_bench(workload: str, *extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*BENCHMARK["command"], "--workload", workload, "--seed", "3", *extra],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def last_json(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_catalogue_matches_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER
    declared = [workload["name"] for workload in BENCHMARK["workloads"]]
    assert declared == ["cold-sparse", "design-panel", "warm-routed"]
    # cold-repeats stays runnable for hit-handling work, but is not gated on.
    assert WORKLOADS == ("cold-sparse", "cold-repeats", "design-panel", "warm-routed")


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    result = last_json(run_bench(workload, "--trace", trace, *SMOKE))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float)
        if trace == "0":
            assert printed["value"] > 0, metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_injected_wrong_answer_is_a_failure(workload):
    result = last_json(run_bench(workload, "--trace", "0", "--inject-wrong", *SMOKE))
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["attempted"] > result["failed"]


def test_result_file_carries_the_ledger():
    last_json(run_bench("cold-sparse", "--trace", "0", *SMOKE))
    result = ledger.load_result(ROOT / ".hostbench" / "results" / "cold-sparse-seed3-trace0.json")
    stamp = result["ledger"]
    assert stamp["nproc"] == os.cpu_count()
    assert stamp["chunk_length"] == 1 << 20
    assert stamp["seed"] == 3 and stamp["params"]["scale"] == 0.02


@pytest.mark.parametrize("workload", ["design-panel", "warm-routed"])
def test_timings_are_reported_at_reference_speed(workload):
    printed = last_json(run_bench(workload, "--trace", "0", *SMOKE))["metrics"]
    raw = ledger.load_result(
        ROOT / ".hostbench" / "results" / f"{workload}-seed3-trace0.json"
    )["raw"]
    # Every timing is scaled by the reference sample taken just before it.
    factors = {REFERENCE_SECONDS / sample for samples in raw["reference_s"].values() for sample in samples}
    for measured, scaled in (("latencies", "latencies_at_reference"), ("setup_s", "setup_s_at_reference")):
        assert len(raw[measured]) == len(raw[scaled]) > 0
        for value, at_reference in zip(raw[measured], raw[scaled]):
            assert min(abs(at_reference / value - factor) for factor in factors) < 1e-9
    assert printed["op_p50_ms"]["value"] == pytest.approx(
        statistics.median(raw["latencies_at_reference"]) * 1e3
    )
    assert printed["setup_s"]["value"] == pytest.approx(statistics.median(raw["setup_s_at_reference"]))
    assert raw["measured"]["op_p50_ms"] == pytest.approx(statistics.median(raw["latencies"]) * 1e3)


def test_host_speed_factor_scales_to_the_reference():
    with Reference() as reference:
        speed = HostSpeed(reference)
        factor = speed.sample(3)
        process = reference.process
    assert factor == pytest.approx(REFERENCE_SECONDS / statistics.median(speed.samples))
    assert len(speed.samples) == 3 and speed.spent >= sum(speed.samples)
    assert process.returncode == 0


def test_ledger_reader_rejects_missing_provenance(tmp_path):
    good = {
        "ledger": ledger.stamp(
            ROOT, workload="w", seed=1, seconds=1.0, trace=0, chunk_length=1,
            params={"genome_bp": 1}, input_sha256="ab",
        ),
        "correct": True, "attempted": 1, "failed": 0, "metrics": {},
    }
    path = tmp_path / "good.json"
    path.write_text(json.dumps(good), encoding="ascii")
    assert ledger.load_result(path)["ledger"]["seed"] == 1
    for field in ledger.LEDGER_FIELDS:
        broken = json.loads(json.dumps(good))
        del broken["ledger"][field]
        path.write_text(json.dumps(broken), encoding="ascii")
        with pytest.raises(ledger.LedgerError, match=field):
            ledger.load_result(path)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_are_determined_by_the_seed(workload, tmp_path):
    generate = inputs.GENERATORS[workload]
    digests = []
    for number, seed in enumerate((5, 5, 6)):
        workdir = tmp_path / str(number)
        workdir.mkdir()
        digests.append(generate(seed, 0.02, workdir).digest)
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def _children(pids: set[int]) -> set[int]:
    found = set()
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            if int(stat.rsplit(")", 1)[1].split()[1]) in pids:
                found.add(int(entry.name))
    return found


def test_cluster_drains_on_sigterm_and_leaves_no_orphans(tmp_path):
    generated = inputs.warm_routed(7, 0.02, tmp_path)
    workload = WarmRouted(generated, ROOT, tmp_path, inject_wrong=False)
    try:
        cluster, seconds = workload.start_cluster()
        assert seconds > 0
        pids = {process.pid for process in cluster.processes}
        descendants = pids | _children(pids)
    finally:
        workload.stop_all()
    assert workload.outcome.problems == []
    assert [process.returncode for process in cluster.processes] == [0, 0, 0]
    for pid in descendants:
        assert not Path(f"/proc/{pid}").exists(), f"process {pid} outlived the drain"


def test_benchmark_without_the_program_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in BENCHMARK["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__")
        )
    done = run_bench("cold-sparse", "--trace", "0", *SMOKE, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    with tracer.span("outer", op="a") as outer:
        with tracer.span("inner") as inner:
            pass
    assert inner["parent"] == outer["id"] and inner["op"] == "a"
    outer_wall = outer["end"] - outer["start"]
    inner_wall = inner["end"] - inner["start"]
    assert tracer.self_seconds("outer") == pytest.approx(outer_wall - inner_wall)
    assert tracer.total_seconds("inner") == pytest.approx(inner_wall)
