"""End-to-end SPIDeR benchmark: commit-steady, announce-stream,
verify-churn.

Usage (from the repository root)::

    python3 spiderbench/run.py --workload commit-steady --seed 1 \\
        --seconds 20 --trace 0

Real :class:`~repro.runtime.node_runtime.NodeRuntime` nodes (default
``SpiderConfig``, 512-bit keys, ``evaluation_scheme(50)`` with
total-order promises) run in this process on one thread over the
in-process ``LoopbackHub``, driven only through their public calls.
See ``workloads.py`` for what each workload does and why.

A run sets the workload up at least ``SETUP_REPS`` times and for at
least ``SETUP_SECONDS`` (each time with fresh keys) and keeps the last
deployment, then runs closed-loop rounds for
``--seconds`` seconds, then checks correctness outside every timed
region.  Human-readable lines go to standard output first; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Any failed check makes ``correct`` false and the exit
code 1.

``--trace 0`` reports the end-to-end metrics, untraced:

* ``setup_s`` — median set-up time over the repetitions;
* ``peak_rss_mb`` — peak resident set of the process through set-up
  and the first ``MIN_ROUNDS`` rounds;
* ``round_p50_ms`` — median timed work of one round: a ``commit()``
  on commit-steady, one 32-update burst until every ACK is processed
  on announce-stream, and ``commit()`` plus the three neighbours'
  verification on verify-churn;
* ``wire_bytes_per_msg`` — bytes per frame sent over the hub while
  measuring.

``--trace 1`` runs the first third of the time untraced and the rest
with every layer wrapped (``layers.py``), and reports the per-layer
metrics, the tracing overhead per path (traced minus untraced median
figure) and each path's attributed share: the summed self times of its
layers over its traced figure, which must lie within
``ATTRIBUTION_TOLERANCE`` of 1.  The kept spans are written as Chrome
trace-event JSON to ``spiderbench/_work/trace-<workload>.json``.

Known defect (not fixed here): with a durable store, an elector's
first commitment raises ``CodecError: u16 out of range`` once its
routing state exceeds 64 KiB (~1,600 routes), because
``repro.runtime.logdump.encode_log_entry`` writes the checkpoint with a
16-bit length.  commit-steady and verify-churn therefore keep the
elector's log in memory, as ``SpiderDeployment`` does;
``python3 spiderbench/checkpoint_defect.py`` reproduces it.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKDIR = HERE / "_work"
#: The metrics ``--trace 0`` reports (BENCHMARK.json ``end_to_end``).
END_TO_END = ("setup_s", "peak_rss_mb", "round_p50_ms", "wire_bytes_per_msg")
#: Set-up repeats at least SETUP_REPS times and until SETUP_SECONDS
#: have passed, so a cheap set-up still gets a steady median.
SETUP_REPS = 3
SETUP_SECONDS = 2.0
#: Fewest timed rounds per phase, whatever ``--seconds`` says.
MIN_ROUNDS = 3
#: How far a path's summed layer self times may stray from its traced
#: figure (as a share of the figure).
ATTRIBUTION_TOLERANCE = 0.05
#: Share of ``--seconds`` the traced run spends untraced first.
UNTRACED_SHARE = 1 / 3

perf = time.perf_counter


class Timer:
    """Times each operation; with a tracer, as its root span."""

    def __init__(self, tracer: Any = None):
        self.tracer = tracer
        self.samples: Dict[str, List[float]] = defaultdict(list)

    def op(self, path: str, fn: Callable[..., Any], *args: Any) -> Any:
        if self.tracer is None:
            start = perf()
            result = fn(*args)
            self.samples[path].append(perf() - start)
            return result
        self.tracer.begin(path)
        try:
            result = fn(*args)
        finally:
            self.samples[path].append(self.tracer.end())
        return result


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_rounds(wl: Any, timer: Timer, seconds: float,
               rounds_out: List[float],
               on_warm: Optional[Callable[[], None]] = None) -> int:
    """Closed-loop rounds until ``seconds`` pass (at least MIN_ROUNDS);
    appends each round's total timed seconds to ``rounds_out`` and calls
    ``on_warm`` once MIN_ROUNDS rounds are done."""
    deadline = perf() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or perf() < deadline:
        before = {p: len(timer.samples[p]) for p in wl.paths}
        wl.round(timer)
        rounds_out.append(sum(sum(timer.samples[p][before[p]:])
                              for p in wl.paths))
        rounds += 1
        if rounds == MIN_ROUNDS and on_warm is not None:
            on_warm()
    return rounds


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"spiderbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"spiderbench: unknown workload {args.workload!r}; choose "
              f"from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)

    # Set-up, repeated with fresh keys; the last deployment is measured.
    setup_times: List[float] = []
    wl = None
    while len(setup_times) < SETUP_REPS or sum(setup_times) < SETUP_SECONDS:
        if wl is not None:
            wl.close()
            gc.collect()
        wl = WORKLOADS[args.workload](args.seed, str(WORKDIR))
        start = perf()
        wl.setup(len(setup_times))
        setup_times.append(perf() - start)
    assert wl is not None

    # Peak memory is read after a fixed amount of work, not at the end:
    # logs grow with every round, so an end-of-run peak would grow
    # with the speed of the code under test.
    rss: List[float] = []
    untraced = Timer()
    round_samples: List[float] = []
    wl.start_measuring()
    extra: Dict[str, float] = {}
    tracer = None
    if not args.trace:
        rounds = run_rounds(wl, untraced, args.seconds, round_samples,
                            on_warm=lambda: rss.append(peak_rss_mb()))
        timer = untraced
    else:
        from layers import instrument, per_layer_metrics
        from tracer import Tracer
        run_rounds(wl, untraced, args.seconds * UNTRACED_SHARE, [],
                   on_warm=lambda: rss.append(peak_rss_mb()))
        tracer = Tracer()
        timer = Timer(tracer)
        tracked0, retries0 = wl.delivery_totals()
        store0 = wl.store_bytes()
        instrument(tracer)
        try:
            rounds = run_rounds(wl, timer, args.seconds *
                                (1 - UNTRACED_SHARE), round_samples)
        finally:
            tracer.unwrap_all()
        tracked, retries = wl.delivery_totals()
        extra["delivery_tracked"] = tracked - tracked0
        extra["delivery_retries"] = retries - retries0
        extra["store_bytes"] = wl.store_bytes() - store0
        for path in wl.paths:
            extra[f"overhead.{path}"] = \
                statistics.median(timer.samples[path]) - \
                statistics.median(untraced.samples[path])

    frames, wire_bytes = wl.wire()
    report = summarize(wl, timer, round_samples, setup_times, frames,
                       wire_bytes)
    wl.finish()
    report.insert(1, ("peak_rss_mb", rss[0], "MB", "lower", 1))

    if tracer is not None:
        extra["same_prefix_set_share"] = wl.same_prefix_set_share()
        metrics = per_layer_metrics(tracer, rounds, extra)
        for path in wl.paths:
            share = metrics[f"trace.{path}.attributed_share"][0]
            wl.check(f"{path} layers sum to the traced figure",
                     abs(share - 1) <= ATTRIBUTION_TOLERANCE,
                     f"share {share:.4f}, tolerance "
                     f"{ATTRIBUTION_TOLERANCE}")
        trace_path = WORKDIR / f"trace-{args.workload}.json"
        events = tracer.write_chrome_trace(
            str(trace_path), {"workload": args.workload, "seed": args.seed})
        print(f"# chrome trace: {events} spans -> {trace_path}")
    else:
        metrics = {name: (value, unit)
                   for name, value, unit, _better, _n in report
                   if name in END_TO_END}
    report.append(("ops_failed_frac",
                   wl.ops_failed / max(wl.ops_attempted, 1), "ratio",
                   "lower", wl.ops_attempted))

    print(f"# workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace} rounds {rounds}")
    for name, value, unit, better, n in report:
        print(f"{name:28s} {value:14.6g} {unit:6s} better={better:6s} "
              f"n={n}")
    for key, value in wl.properties().items():
        print(f"property {key} = {value}")
    if tracer is not None:
        for name, (value, unit) in sorted(metrics.items()):
            print(f"layer {name:42s} {value:14.6g} {unit}")
    failed_checks = [c for c in wl.checks if not c[1]]
    for name, _ok, detail in failed_checks[:20]:
        print(f"FAILED CHECK: {name}: {detail}")
    print(f"# checks: {len(wl.checks)} run, {len(failed_checks)} failed")
    wl.close()

    correct = not failed_checks
    print(json.dumps({
        "correct": correct, "attempted": wl.ops_attempted,
        "failed": wl.ops_failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


def summarize(wl: Any, timer: Timer, round_samples: List[float],
              setup_times: List[float], frames: int,
              wire_bytes: int) -> List[Any]:
    """The issue-level end-to-end figures of this workload, as
    (name, value, unit, better, sample count) rows."""
    rows: List[Any] = [("setup_s", statistics.median(setup_times), "s",
                        "lower", len(setup_times))]
    commits = timer.samples.get("commit", [])
    if commits:
        rows.append(("commit_round_p50_s", statistics.median(commits), "s",
                     "lower", len(commits)))
    bursts = timer.samples.get("announce", [])
    if bursts:
        stored, updates = wl.stored()
        acked = wl.BURST * len(bursts)
        rows += [
            ("announce_acked_per_s", acked / sum(bursts), "1/s",
             "higher", acked),
            ("announce_burst_p50_ms", statistics.median(bursts) * 1e3,
             "ms", "lower", len(bursts)),
            ("announce_burst_p90_ms",
             statistics.quantiles(bursts, n=10)[-1] * 1e3, "ms", "lower",
             len(bursts)),
            ("store_bytes_per_msg", stored / max(updates, 1), "B", "lower",
             updates),
        ]
    verifies = timer.samples.get("verify", [])
    if verifies:
        rows += [
            ("verify_round_p50_s", statistics.median(verifies), "s",
             "lower", len(verifies)),
            ("proof_bytes_per_proof", wl.proof_bytes / max(wl.proofs, 1),
             "B", "lower", wl.proofs),
        ]
    rows += [
        ("round_p50_ms", statistics.median(round_samples) * 1e3, "ms",
         "lower", len(round_samples)),
        ("wire_bytes_per_msg", wire_bytes / max(frames, 1), "B", "lower",
         frames),
    ]
    return rows


if __name__ == "__main__":
    sys.exit(main())
