"""One workload in one fresh process: set-up, then a timed or a traced pass.

    python3 perfbench/child.py --phase setup|measure|trace \\
        --workload NAME --seed N --seconds S

``run.py`` starts this with BLAS threads fixed to 1 and ``src`` on the
path.  It prints one JSON object as its last line of standard output.

Set-up time runs from before ``import qramsey`` to the end of one warm-up
call on an input that is not part of the timed set.

The host's speed drifts by up to 1.7x over seconds to minutes, and moves
qramsey's ops and any other code alike.  So the timed pass runs fixed
reference work, which uses no qramsey code, after every BLOCK_NS of op
time, and scales each op's time by REFERENCE_MS over the mean of the
reference times on either side of its block: op times are reported as
on a host where the reference work takes REFERENCE_MS.  A change to
qramsey moves the op times and not the reference, so it shows in full.
Set-up time is scaled by the reference time measured right after it.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = Path(__file__).resolve().parent / "out"
# failure messages kept per run; the count covers all of them
KEPT_FAILURES = 5
# op time between two timings of the reference work
BLOCK_NS = 200_000_000
# the nominal host's reference time, about this host's median
REFERENCE_MS = 4.5
# reference timings after set-up, of which the median scales set-up time
SETUP_REFERENCES = 5
_reference_arrays = []


def reference_ms() -> float:
    """Time fixed work of qramsey's kinds: bit tricks on ints, dict updates
    and small dense linear algebra.

    The work runs twice and the faster time counts, so that a spike of a
    few ms does not scale a whole block.  The garbage collector is off
    meanwhile: a full collection of the heap the ops left behind belongs
    to the ops, and the work allocates too few containers to trigger one.
    """
    import numpy as np

    if not _reference_arrays:
        rng = np.random.default_rng(0)
        _reference_arrays.extend(
            (rng.standard_normal((32, 32)), rng.standard_normal((16, 16)) + 0j))
    real, cplx = _reference_arrays
    times = []
    gc.disable()
    try:
        for _ in range(2):
            t = time.perf_counter_ns()
            parity = 0
            for i in range(6000):
                v = (i * 0x9E3779B1) & 0xFFFF
                parity ^= bin(v & (v >> 3)).count("1") & 1
            counts = dict.fromkeys(range(256), 0)
            for i in range(3000):
                counts[(i * 7) & 255] += i >> 8
            for _ in range(5):
                np.linalg.matrix_rank(real)
                np.einsum("ij,jk->ik", cplx, cplx)
            times.append(time.perf_counter_ns() - t)
    finally:
        gc.enable()
    return min(times) / 1e6


def scaled_setup(setup_s: float) -> dict:
    """Set-up time as measured and as on the nominal host."""
    reference = statistics.median(reference_ms() for _ in range(SETUP_REFERENCES))
    return {
        "setup_s": setup_s * REFERENCE_MS / reference,
        "raw_setup_s": setup_s,
        "setup_reference_ms": reference,
    }


def set_up(name: str, seed: int, tracer=None):
    """Import qramsey, make the inputs and run the warm-up call."""
    t0 = time.perf_counter()
    import qramsey
    import workloads

    package = Path(qramsey.__file__).resolve()
    if ROOT / "src" not in package.parents:
        raise SystemExit(f"imported qramsey from {package}, not from {ROOT / 'src'}")
    w = workloads.WORKLOADS[name]
    warm, cycles = w.stream(workloads.rng_for(name, seed, "inputs"))
    if tracer is not None:
        tracer.install()
        tracer.recording = True
    w.op(warm)
    return w, cycles, time.perf_counter() - t0


class Pass:
    """Closed loop over whole input cycles: time each op, check it afterwards."""

    def __init__(self, workload, check_rng, tracer=None, scaled=False):
        self.workload = workload
        self.check_rng = check_rng
        self.tracer = tracer
        # arrays, not lists, so that their size barely moves peak memory
        self.latencies_ns = array("q")
        # with ``scaled``: reference times, one before the first block and
        # one after each, and the op times of closed blocks, scaled
        self.references_ms: list[float] = [reference_ms()] if scaled else []
        self.scaled_ns = array("d")
        self._block_ns = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0
        # per-op facts read from results, for the traced metrics
        self.examined: list[int] = []
        self.candidates = 0
        self.witnesses = 0

    def run_cycle(self, cycle: list) -> None:
        op = self.workload.op
        tracer = self.tracer
        outputs = []
        for item in cycle:
            if tracer is not None:
                tracer.current_op = self.attempted + len(outputs)
                tracer.recording = True
            t = time.perf_counter_ns()
            try:
                out = op(item)
            except Exception as exc:  # an op that raises is a failed op
                out = exc
            else:
                self.latencies_ns.append(time.perf_counter_ns() - t)
                self._block_ns += self.latencies_ns[-1]
            finally:
                if tracer is not None:
                    tracer.recording = False
            outputs.append(out)
            if self.references_ms and self._block_ns >= BLOCK_NS:
                self.close_block()
        for item, out in zip(cycle, outputs):
            self.attempted += 1
            if isinstance(out, Exception):
                self._fail(f"{type(out).__name__}: {out}")
                continue
            self._record(out)
            message = self.workload.check(self.check_rng, item, out)
            if message is not None:
                self._fail(message)

    def close_block(self) -> None:
        """Time the reference work and scale the block's op times by it."""
        done = len(self.scaled_ns)
        if not self.references_ms or done == len(self.latencies_ns):
            return
        self.references_ms.append(reference_ms())
        scale = 2 * REFERENCE_MS / (self.references_ms[-2] + self.references_ms[-1])
        self.scaled_ns.extend(t * scale for t in self.latencies_ns[done:])
        self._block_ns = 0

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < KEPT_FAILURES:
            self.failures.append(message)

    def _record(self, out) -> None:
        # a ClassificationResult has a tag, a SearchReport has witnesses
        if hasattr(out, "tag"):
            self.examined.append(out.examined)
        elif hasattr(out, "witnesses"):
            self.candidates += out.total_examined
            self.witnesses += len(out.witnesses)

    def items_per_s(self, scaled=False) -> float:
        """Ops completed per second of op time over the timed set."""
        times = self.scaled_ns if scaled else self.latencies_ns
        busy_ns = sum(times)
        return len(times) / busy_ns * 1e9 if busy_ns else 0.0


def percentile(sorted_values, p: float) -> float:
    """Linear interpolation between closest ranks; 0 when no op succeeded."""
    if len(sorted_values) == 0:
        return 0.0
    pos = (len(sorted_values) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return float(sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo))


def measure(args) -> dict:
    w, cycles, setup_s = set_up(args.workload, args.seed)
    import workloads

    setup = scaled_setup(setup_s)
    loop = Pass(w, workloads.rng_for(args.workload, args.seed, "checks"), scaled=True)
    deadline = time.perf_counter() + args.seconds
    for cycle in cycles:
        loop.run_cycle(cycle)
        if time.perf_counter() >= deadline:
            break
    loop.close_block()
    # numpy views of the arrays, so that the statistics add little to peak memory
    import numpy as np

    lat_ms = np.sort(np.frombuffer(loop.scaled_ns)) / 1e6
    raw_ms = np.sort(np.frombuffer(loop.latencies_ns, dtype=np.int64)) / 1e6
    tail = percentile(lat_ms, w.tail_percentile)
    return {
        **setup,
        "items_per_s": loop.items_per_s(scaled=True),
        "latency_p50_ms": percentile(lat_ms, 50),
        "latency_tail_ms": tail,
        "raw_items_per_s": loop.items_per_s(),
        "raw_latency_p50_ms": percentile(raw_ms, 50),
        "reference_ms": statistics.median(loop.references_ms),
        "references": len(loop.references_ms),
        "tail_percentile": w.tail_percentile,
        "samples": len(lat_ms),
        "samples_beyond_tail": int((lat_ms > tail).sum()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "failures": loop.failures,
        "numpy": _numpy_version(),
    }


def trace(args) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    tracer.current_op = -1  # the warm-up call, so set-up work shows
    w, cycles, setup_s = set_up(args.workload, args.seed, tracer)
    import workloads

    tracer.recording = False
    n_cycles = max(1, round(args.seconds * w.trace_cycles_per_s))
    traced = Pass(w, workloads.rng_for(args.workload, args.seed, "checks"), tracer)
    wall = time.perf_counter()
    for _ in range(n_cycles):
        traced.run_cycle(next(cycles))
    wall = time.perf_counter() - wall
    tracer.uninstall()
    # the same inputs again, untraced, give the tracing overhead; this pass
    # may find the dense oracle's projector cache warm, under 1% of verify
    _, plain_cycles = w.stream(workloads.rng_for(args.workload, args.seed, "inputs"))
    plain = Pass(w, workloads.rng_for(args.workload, args.seed, "checks"))
    for _ in range(n_cycles):
        plain.run_cycle(next(plain_cycles))

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}.spans.tsv.gz"
    tracer.write(spans_path)
    summary = tracer.summary()
    self_times = tracer.self_times()
    top_level_s = sum(
        tracer.end[s] - tracer.start[s]
        for s in range(len(tracer.start))
        if tracer.parent[s] < 0 and tracer.op[s] >= 0
    )
    examined = traced.examined
    metrics = {}
    for name, stats in summary.items():
        metrics[f"{name}.calls"] = (stats["calls"], "count")
        metrics[f"{name}.self_s"] = (stats["self_s"], "s")
    metrics["f2.enumerate_isotropic.subspaces"] = (
        summary["f2.enumerate_isotropic"]["yielded"], "count")
    metrics["ramsey.classify.examined"] = (sum(examined), "count")
    metrics["ramsey.classify.constructive_ratio"] = (
        sum(1 for e in examined if e == 0) / len(examined) if examined else 0.0,
        "ratio",
    )
    metrics["ramsey.search.candidates"] = (traced.candidates, "count")
    metrics["ramsey.search.witnesses"] = (traced.witnesses, "count")
    metrics["trace.items_per_s"] = (traced.items_per_s(), "1/s")
    metrics["trace.untraced_items_per_s"] = (plain.items_per_s(), "1/s")
    metrics["trace.overhead_ratio"] = (
        plain.items_per_s() / traced.items_per_s() if traced.latencies_ns else 0.0,
        "ratio",
    )
    untraced_layers = [f for f in w.layers if summary[f]["calls"] == 0]
    return {
        "setup_s": setup_s,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "untraced_layers": untraced_layers,
        "spans": len(tracer.start),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "min_self_s": min(self_times, default=0.0),
        "top_level_s": top_level_s,
        "traced_wall_s": wall,
        "cycles": n_cycles,
        "attempted": traced.attempted + plain.attempted,
        "failed": traced.failed + plain.failed,
        "failures": traced.failures + plain.failures,
        "numpy": _numpy_version(),
    }


def _numpy_version() -> str:
    import numpy

    return numpy.__version__


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--phase", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    if args.phase == "setup":
        result = scaled_setup(set_up(args.workload, args.seed)[2])
    elif args.phase == "measure":
        result = measure(args)
    else:
        result = trace(args)
    result["python"] = platform.python_version()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
