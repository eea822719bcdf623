"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q

They run the real command at a tiny size, inject wrong answers to see the
output checks count them, and check that traced spans nest.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from qramsey import channel, f2, oracle, ramsey  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_listed_metric(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    report = json.loads(report_line)["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert report["failed_ratio"] == 0
    assert report["env"]["python"] and report["env"]["numpy"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert report["samples"] >= 1 and report["tail_percentile"] > 50


def test_checkout_without_the_package_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = bench("classify_n2", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_failed_check_makes_the_command_fail(monkeypatch, capsys):
    fake = {
        "setup_s": 0.1, "raw_setup_s": 0.1, "setup_reference_ms": 10.0,
        "items_per_s": 1.0, "latency_p50_ms": 1.0, "latency_tail_ms": 2.0,
        "raw_items_per_s": 1.0, "raw_latency_p50_ms": 1.0, "reference_ms": 10.0,
        "references": 2, "tail_percentile": 90.0, "samples": 3,
        "samples_beyond_tail": 0, "peak_rss_mb": 10.0, "attempted": 3,
        "failed": 1, "failures": ["wrong"], "numpy": "x", "python": "y",
    }
    monkeypatch.setattr(run, "run_child", lambda *a: fake)
    code = run.main(["--workload", "classify_n2", "--seed", "1", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1


def run_pass(name, cycles=1, tracer=None, scaled=False):
    w = workloads.WORKLOADS[name]
    _, stream = w.stream(workloads.rng_for(name, 7, "inputs"))
    loop = child.Pass(w, workloads.rng_for(name, 7, "checks"), tracer, scaled)
    for _ in range(cycles):
        loop.run_cycle(next(stream))
    return loop


def test_op_times_are_scaled_by_the_reference_around_their_block(monkeypatch):
    nominal = child.REFERENCE_MS
    references = iter([0.8 * nominal, 1.2 * nominal, 0.8 * nominal, 0.4 * nominal])
    monkeypatch.setattr(child, "reference_ms", lambda: next(references, nominal))
    monkeypatch.setattr(child, "BLOCK_NS", 1)  # one op per block
    loop = run_pass("verify_n4", scaled=True)
    raw, scaled = loop.latencies_ns, loop.scaled_ns
    assert len(loop.references_ms) == len(raw) + 1 == len(scaled) + 1
    # the references around the first two ops average the nominal time,
    # those around the third 0.6 of it
    assert scaled[:3] == pytest.approx([raw[0], raw[1], raw[2] / 0.6])


def test_reference_work_is_timed_outside_the_ops():
    loop = run_pass("classify_n2", scaled=True)
    loop.close_block()
    assert len(loop.scaled_ns) == len(loop.latencies_ns) == loop.attempted
    assert len(loop.references_ms) >= 2
    assert all(r > 0 for r in loop.references_ms)
    ratio = sum(loop.latencies_ns) / sum(loop.scaled_ns)
    lo, hi = min(loop.references_ms), max(loop.references_ms)
    assert lo / child.REFERENCE_MS <= ratio * (1 + 1e-9)
    assert ratio <= hi / child.REFERENCE_MS * (1 + 1e-9)


def test_wrong_verdict_is_counted_as_failed(monkeypatch):
    right = ramsey.classify

    def wrong(ch, limit=ramsey.SEARCH_QUBIT_LIMIT):
        result = right(ch, limit)
        tag = "Anticlique" if result.tag == "Clique" else "Clique"
        return dataclasses.replace(result, tag=tag)

    monkeypatch.setattr(ramsey, "classify", wrong)
    loop = run_pass("classify_n2")
    assert loop.attempted == 256
    assert loop.failed == loop.attempted


def test_inconsistent_verdict_is_counted_as_failed(monkeypatch):
    inconsistent = ramsey.ClassificationResult("Inconsistent", None, None, 1, "injected")
    monkeypatch.setattr(ramsey, "classify", lambda ch, limit=4: inconsistent)
    loop = run_pass("classify_n2")
    assert loop.failed == loop.attempted > 0


def test_disagreeing_routes_are_counted_as_failed(monkeypatch):
    right = oracle.kl_check
    monkeypatch.setattr(oracle, "kl_check", lambda ch, g: not right(ch, g))
    loop = run_pass("verify_n4")
    assert loop.failed == loop.attempted == len(workloads.VERIFY_CYCLE)


def test_closed_form_counts_isotropic_subspaces():
    for n in (1, 2, 3):
        for d in range(n + 1):
            count = sum(1 for _ in f2.enumerate_isotropic(n, d))
            assert workloads.isotropic_count(n, d) == count


def test_tracer_rebinds_names_imported_by_other_modules():
    original = channel.difference_set
    with Tracer():
        assert ramsey.difference_set is channel.difference_set
        assert channel.difference_set is not original
    assert channel.difference_set is original
    assert ramsey.difference_set is original


def test_every_traced_function_belongs_to_a_workload():
    names = {f"{m}.{f}" for m, f in TRACED}
    assigned = {layer for w in workloads.WORKLOADS.values() for layer in w.layers}
    assert assigned == names


@pytest.mark.parametrize("name", ["classify_n2", "verify_n4"])
def test_traced_spans_nest(name):
    tracer = Tracer()
    with tracer:
        wall = time.perf_counter()
        loop = run_pass(name, tracer=tracer)
        wall = time.perf_counter() - wall
    assert loop.failed == 0
    spans = range(len(tracer.start))
    assert len(spans) > loop.attempted
    # self time is a difference of float sums, so allow rounding
    assert min(tracer.self_times()) >= -1e-9
    for s in spans:
        p = tracer.parent[s]
        assert tracer.start[s] <= tracer.end[s]
        if p >= 0:
            assert tracer.start[p] <= tracer.start[s] <= tracer.end[s] <= tracer.end[p]
            assert tracer.op[p] == tracer.op[s]
    top = [s for s in spans if tracer.parent[s] < 0]
    assert {tracer.op[s] for s in top} == set(range(loop.attempted))
    assert sum(tracer.end[s] - tracer.start[s] for s in top) <= wall
    for a, b in zip(top, top[1:]):
        assert tracer.end[a] <= tracer.start[b]
