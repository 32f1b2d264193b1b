"""A4 — ablation: proxy-aggregation support (§8).

The paper argues aggregate entries "would greatly increase the
computational overhead" and that origin-side aggregation removes the
need.  This ablation measures the MTT growth from one level of
aggregate support on tables of varying sibling density, and verifies an
aggregate entry proves like any other prefix.
"""

import pytest

from repro.bgp.prefix import Prefix
from repro.crypto.rc4 import Rc4Csprng
from repro.harness.reporting import render_table
from repro.mtt.aggregation import aggregation_overhead, with_aggregates
from repro.mtt.labeling import label_tree_with_workers
from repro.mtt.tree import Mtt
from repro.traces.workload import generate_prefixes

K = 5


def dense_entries(n_pairs):
    """Adjacent /24 pairs: the worst case for aggregate growth."""
    entries = {}
    for i in range(n_pairs):
        base = (10 << 24) | (i << 9)
        entries[Prefix(address=base, length=24)] = (1,) * K
        entries[Prefix(address=base | (1 << 8), length=24)] = (1,) * K
    return entries


def sparse_entries(n):
    return {p: (1,) * K for p in generate_prefixes(n, seed=5)}


def test_aggregation_overhead(benchmark, emit):
    dense = dense_entries(200)
    sparse = sparse_entries(400)

    def extend_dense():
        return with_aggregates(dense)

    extended = benchmark(extend_dense)
    dense_overhead = aggregation_overhead(dense)
    sparse_overhead = aggregation_overhead(sparse)

    dense_census = Mtt.build(extended).census()
    plain_census = Mtt.build(dense).census()
    rows = [
        ("dense table entry growth", f"{dense_overhead:.0%}"),
        ("sparse (DFZ-like) table entry growth",
         f"{sparse_overhead:.1%}"),
        ("dense MTT nodes without aggregates", plain_census.total),
        ("dense MTT nodes with aggregates", dense_census.total),
    ]
    emit(render_table("A4: aggregate-entry overhead (1 level)",
                      ["quantity", "value"], rows))

    # Shape: dense sibling pairs cost the full +50%; realistic sparse
    # tables cost far less — but the paper's point stands: the feature
    # is pure overhead that origin-side aggregation avoids.
    assert dense_overhead == pytest.approx(0.5)
    assert sparse_overhead < dense_overhead
    assert dense_census.total > plain_census.total


def test_aggregate_entries_commit_and_prove(benchmark, emit):
    entries = with_aggregates(dense_entries(20))
    tree = Mtt.build(entries)

    def commit():
        return label_tree_with_workers(tree, Rc4Csprng(b"agg-bench"))

    report = benchmark.pedantic(commit, rounds=1, iterations=1)
    from repro.mtt.proofs import generate_proof, verify_proof
    parent = Prefix(address=(10 << 24), length=23)
    proof = generate_proof(tree, parent, 0)
    assert verify_proof(report.root_label, proof, expected_k=K) == 1
    emit(render_table(
        "A4: aggregate proof",
        ["quantity", "value"],
        [("aggregate prefix", str(parent)),
         ("proof bytes", proof.wire_size())]))
