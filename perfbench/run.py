"""qramsey benchmark: one workload per call, measured in fresh child processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it measures ``src/qramsey`` there.
With ``--trace 0`` it prints the end-to-end metrics: one fresh process
sets up and runs a timed closed loop of S seconds, and set-up time is the
median over it and SETUP_RUNS_AROUND set-up-only processes before and as
many after it, so that the samples span the run.  Times are scaled to a
nominal host speed by reference work timed in the same process (see
``child.py``); the report line also gives them as measured.  With
``--trace 1`` it prints the per-layer metrics of one traced process.  The
metric names and units are those of BENCHMARK.json.

The last line of standard output is the result; the line before it is a
report with the environment, sample counts and any failure messages.  The
exit code is 1 when an output check fails or a workload's layer recorded
no calls, and 2 when the checkout has no ``src/qramsey``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS_AROUND = 4
# every child process must end within this many seconds of the start
BUDGET_S = 170
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    """This environment with ``src`` first on the path and BLAS on one thread."""
    env = dict(os.environ)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def run_child(phase: str, args, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "child.py"), "--phase", phase,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    try:
        proc = subprocess.run(
            cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{phase} process ran past the time budget") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{phase} process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    """HEAD of the checkout, read from its .git directory when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(child: dict) -> dict:
    return {
        "host": platform.node(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": child["python"],
        "numpy": child["numpy"],
        "git_commit": git_commit(),
    }


def end_to_end(args, deadline: float) -> tuple[dict, dict, dict]:
    def setups() -> list[dict]:
        return [run_child("setup", args, deadline) for _ in range(SETUP_RUNS_AROUND)]

    before = setups()
    m = run_child("measure", args, deadline)
    setup_runs = [*before, m, *setups()]
    setup_samples = [r["setup_s"] for r in setup_runs]
    metrics = {
        "items_per_s": (m["items_per_s"], "1/s"),
        "latency_p50_ms": (m["latency_p50_ms"], "ms"),
        "latency_tail_ms": (m["latency_tail_ms"], "ms"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (m["peak_rss_mb"], "MB"),
    }
    report = {
        "setup_s_samples": setup_samples,
        "raw_setup_s_samples": [r["raw_setup_s"] for r in setup_runs],
        "raw_items_per_s": m["raw_items_per_s"],
        "raw_latency_p50_ms": m["raw_latency_p50_ms"],
        "reference_ms": m["reference_ms"],
        "references": m["references"],
        "samples": m["samples"],
        "tail_percentile": m["tail_percentile"],
        "samples_beyond_tail": m["samples_beyond_tail"],
    }
    return m, metrics, report


def traced(args, deadline: float) -> tuple[dict, dict, dict]:
    t = run_child("trace", args, deadline)
    metrics = {name: (e["value"], e["unit"]) for name, e in t["metrics"].items()}
    report = {
        key: t[key]
        for key in (
            "untraced_layers", "spans", "spans_file", "cycles", "setup_s",
            "min_self_s", "top_level_s", "traced_wall_s",
        )
    }
    return t, metrics, report


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qramsey" / "__init__.py").is_file():
        print(f"no qramsey package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    try:
        if args.trace:
            child, values, report = traced(args, deadline)
            listed = spec["per_layer"]
        else:
            child, values, report = end_to_end(args, deadline)
            listed = spec["end_to_end"]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if {k: unit for k, (_, unit) in values.items()} != {
        m["name"]: m["unit"] for m in listed
    }:
        print("metric names or units differ from BENCHMARK.json", file=sys.stderr)
        return 1

    attempted, failed = child["attempted"], child["failed"]
    correct = failed == 0 and not report.get("untraced_layers")
    report.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        env=environment(child),
        failed_ratio=failed / attempted if attempted else 1.0,
        failures=child["failures"],
    )
    for message in child["failures"]:
        print(f"check failed: {message}", file=sys.stderr)
    for layer in report.get("untraced_layers", ()):
        print(f"layer recorded no calls: {layer}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]} for m in listed
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
