"""The array-native MTT against the node-view reference.

``Mtt.build`` emits post-order slot arrays straight from the sorted
prefixes, and labeling, proofs and the pool all read those arrays.  The
node view (``Mtt.nodes``) with pre-order randomness
(``assign_randomness``) and recursive hashing (``compute_label``) is an
independent reference: if the arrays' leaf order drifted from the
CSPRNG draw order, or a child index were off, the labels would differ.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.prefix import Prefix
from repro.crypto.rc4 import Rc4Csprng
from repro.mtt.labeling import assign_randomness, compute_label, \
    label_tree_with_workers
from repro.mtt.nodes import EDGE_END, InnerNode, PrefixNode, \
    validate_structure
from repro.mtt.pool import LabelPool
from repro.mtt.proofs import MttBitProof, PathStep, generate_proof, \
    verify_proof
from repro.mtt.stats import predict_census
from repro.mtt.tree import Mtt

from ..strategies import prefixes


def _truncate(prefix, length):
    mask = ((1 << length) - 1) << (32 - length) if length else 0
    return Prefix(address=prefix.address & mask, length=length)


@st.composite
def prefix_sets(draw):
    """Random prefix sets with nested prefixes, ``/0``, ``/32``, single
    prefixes and the empty set all likely."""
    chosen = set(draw(st.lists(prefixes(), max_size=8)))
    for prefix in list(chosen):
        if draw(st.booleans()):  # nest: add a covering prefix
            chosen.add(_truncate(prefix,
                                 draw(st.integers(0, prefix.length))))
    if draw(st.booleans()):
        chosen.add(Prefix(address=draw(st.integers(0, 2**32 - 1)),
                          length=32))
    if draw(st.booleans()):
        chosen.add(Prefix(address=0, length=0))
    k = draw(st.integers(1, 5))
    return {p: [draw(st.integers(0, 1)) for _ in range(k)]
            for p in sorted(chosen)}


def node_view_proof(root, prefix, class_index):
    """The bit proof read off the node view, for comparison."""
    path = [root]
    for bit in prefix.bits():
        path.append(path[-1].children[bit])
    prefix_node = path[-1].children[EDGE_END]
    assert isinstance(prefix_node, PrefixNode)
    bit_node = prefix_node.bit_nodes[class_index]
    steps = [PathStep(tuple(b.label for b in prefix_node.bit_nodes),
                      class_index)]
    bits = prefix.bits()
    for depth in range(len(path) - 1, -1, -1):
        steps.append(PathStep(
            tuple(c.label for c in path[depth].children),
            EDGE_END if depth == len(path) - 1 else bits[depth]))
    return MttBitProof(prefix=prefix, class_index=class_index,
                       bit=bit_node.bit, blinding=bit_node.blinding,
                       steps=tuple(steps))


@pytest.fixture(scope="module")
def pool():
    pool = LabelPool(2)
    yield pool
    pool.close()


class TestAgainstNodeView:
    @settings(max_examples=40, deadline=None)
    @given(prefix_sets(), st.binary(min_size=1, max_size=8))
    def test_labels_pool_modes_and_proofs(self, pool, entries,
                                          seed):
        tree = Mtt.build(entries)
        k = len(next(iter(entries.values()))) if entries else 1
        assert tree.census() == predict_census(entries, k)
        report = label_tree_with_workers(tree, Rc4Csprng(seed))
        labels = list(tree.labels)

        # Root and every slot label equal the node-view reference.
        nodes = tree.nodes()
        root = nodes[-1]
        validate_structure(root)
        assign_randomness(root, Rc4Csprng(seed))
        assert compute_label(root) == report.root_label
        assert [node.label for node in nodes] == labels

        # Serial and process-pool labels per slot.
        tree.labels = None
        pooled = label_tree_with_workers(tree, Rc4Csprng(seed), pool=pool)
        assert pooled.root_label == report.root_label
        assert tree.labels == labels

        # Every proof verifies and encodes like the node-view proof.
        for prefix, bits in entries.items():
            for class_index, bit in enumerate(bits):
                proof = generate_proof(tree, prefix, class_index)
                assert verify_proof(report.root_label, proof,
                                    expected_k=len(bits)) == bit
                assert proof.encode() == node_view_proof(
                    root, prefix, class_index).encode()


class TestShape:
    def test_leaf_order_is_preorder(self):
        # Figure 4 plus a nested pair: leaves in slot order are the
        # dummies and bit nodes in pre-order (edges 0, 1, E).
        entries = {Prefix.parse(t): [1, 0] for t in
                   ("0.0.0.0/2", "160.0.0.0/3", "128.0.0.0/1",
                    "128.0.0.0/2")}
        tree = Mtt.build(entries)
        nodes = tree.nodes()
        preorder = []
        stack = [nodes[-1]]
        while stack:
            node = stack.pop()
            if isinstance(node, InnerNode):
                stack.extend(reversed(node.children))
            elif isinstance(node, PrefixNode):
                stack.extend(reversed(node.bit_nodes))
            else:
                preorder.append(node)
        leaves = [n for n in nodes
                  if not isinstance(n, (InnerNode, PrefixNode))]
        assert [id(n) for n in leaves] == [id(n) for n in preorder]
        assert len(leaves) == tree.schedule().n_leaves

    def test_subtrees_are_contiguous_blocks(self):
        entries = {Prefix.parse(t): [1] for t in
                   ("10.0.0.0/8", "10.0.0.0/16", "192.168.0.0/16")}
        shape = Mtt.build(entries).schedule()
        for slot in range(shape.n_slots):
            lo = slot + 1 - shape.subtree_sizes[slot]
            for child in shape.children_of(slot):
                assert lo <= child < slot

    def test_non_binary_bits_rejected(self):
        with pytest.raises(ValueError):
            Mtt.build({Prefix.parse("10.0.0.0/8"): [0, 2]})
