"""E4 — §7.3 'Labeling time': sequential cost and worker speedup.

The paper labels its 22.3M-node MTT in 13.4 s with c=3 workers and
38.8 s with c=1 (speedup 2.9), concluding that labeling "is highly
scalable" and shorter commitment intervals just need more cores.  We
measure real per-subtree labeling times and the makespan of a greedy
schedule over c workers (the GIL substitution documented in DESIGN.md).
"""

import pytest

from repro.harness.experiments import labeling_experiment
from repro.harness.reporting import render_table

N_PREFIXES = 2000
K = 50


@pytest.fixture(scope="module")
def result():
    return labeling_experiment(n_prefixes=N_PREFIXES, k=K,
                               workers=(1, 2, 3))


def test_labeling_time_and_speedup(benchmark, result, emit):
    # Benchmark the sequential labeling of a fresh tree.
    from repro.crypto.rc4 import Rc4Csprng
    from repro.mtt.labeling import label_tree_with_workers
    from repro.mtt.tree import Mtt
    from repro.traces.workload import generate_prefixes
    entries = {p: [1] * K for p in generate_prefixes(N_PREFIXES, seed=7)}

    def label_fresh():
        return label_tree_with_workers(Mtt.build(entries), Rc4Csprng(b"bench"))

    benchmark.pedantic(label_fresh, rounds=1, iterations=1)

    rows = [
        ("c=1 time (s)", 38.8, result.makespans[1]),
        ("c=3 time (s)", 13.4, result.makespans[3]),
        ("speedup c=3", 2.9, result.speedup(3)),
        ("speedup c=2", "-", result.speedup(2)),
        ("hashes per labeling", "-", result.hash_count),
    ]
    emit(render_table(
        "§7.3 labeling time (paper: 22.3M nodes; here: "
        f"{N_PREFIXES} prefixes × {K} classes)",
        ["quantity", "paper", "measured"], rows))

    # Shape: near-linear speedup, monotone in worker count.
    assert result.speedup(3) > 2.0
    assert result.speedup(2) > 1.5
    assert result.makespans[3] < result.makespans[2] < \
        result.makespans[1] * 1.02


def test_labeling_scales_linearly_in_prefixes(benchmark, emit):
    benchmark.pedantic(lambda: labeling_experiment(n_prefixes=200, k=5,
                                                    workers=(1,)),
                       rounds=1, iterations=1)
    small = labeling_experiment(n_prefixes=500, k=10, workers=(1,))
    large = labeling_experiment(n_prefixes=2000, k=10, workers=(1,))
    ratio = large.sequential_seconds / small.sequential_seconds
    emit(render_table(
        "labeling scaling (k=10)",
        ["prefixes", "seconds"],
        [(500, small.sequential_seconds),
         (2000, large.sequential_seconds),
         ("ratio (expect ≈4)", ratio)]))
    assert 2.0 < ratio < 8.0
