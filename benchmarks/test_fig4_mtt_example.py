"""E2 — Figure 4: the example MTT with prefixes 0/2, 160/3 and 128/1.

Rebuilds the figure's tree, prints its structure, and checks the node
composition and the prefix-to-path mapping the figure illustrates.
"""

from repro.bgp.prefix import Prefix
from repro.crypto.rc4 import Rc4Csprng
from repro.harness.reporting import render_table
from repro.mtt.labeling import label_tree_with_workers
from repro.mtt.nodes import InnerNode, PrefixNode
from repro.mtt.proofs import generate_proof, verify_proof
from repro.mtt.tree import Mtt

FIGURE4_PREFIXES = ["0.0.0.0/2", "160.0.0.0/3", "128.0.0.0/1"]


def build_figure4(k=1):
    return Mtt.build({Prefix.parse(t): [1] * k
                      for t in FIGURE4_PREFIXES})


def test_figure4_structure(benchmark, emit):
    tree = benchmark(build_figure4)
    census = tree.census()
    emit(render_table(
        "Figure 4: MTT with three prefixes (0/2, 160/3, 128/1)",
        ["node type", "count"],
        [("inner", census.inner), ("prefix", census.prefix),
         ("bit", census.bit), ("dummy", census.dummy)]))
    assert census.prefix == 3
    # The highlighted path of the figure: 160.0.0.0/3 = bits 1,0,1.
    node = tree.root
    for bit in (1, 0, 1):
        assert isinstance(node, InnerNode)
        node = node.children[bit]
    assert isinstance(node.end, PrefixNode)
    assert str(node.end.prefix) == "160.0.0.0/3"


def test_figure4_commit_and_prove(benchmark, emit):
    tree = build_figure4(k=3)

    def commit():
        return label_tree_with_workers(tree, Rc4Csprng(b"fig4"))

    report = benchmark(commit)
    proof = generate_proof(tree, Prefix.parse("160.0.0.0/3"), 1)
    assert verify_proof(report.root_label, proof, expected_k=3) == 1
    emit(render_table(
        "Figure 4 tree: commitment",
        ["quantity", "value"],
        [("root label bytes", len(report.root_label)),
         ("hashes computed", report.hash_count),
         ("single bit proof bytes", proof.wire_size())]))
