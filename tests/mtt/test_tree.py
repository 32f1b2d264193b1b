"""Tests for MTT construction, structure, and the node census."""

import pytest

from repro.bgp.prefix import Prefix
from repro.mtt.nodes import BitNode, DummyNode, InnerNode, PrefixNode, \
    validate_structure
from repro.mtt.stats import PAPER_CENSUS, predict_census, \
    slot_identity_holds
from repro.mtt.tree import Mtt


def entries(prefix_texts, k=2, bit=1):
    return {Prefix.parse(t): [bit] * k for t in prefix_texts}


FIGURE4 = ["0.0.0.0/2", "160.0.0.0/3", "128.0.0.0/1"]


class TestBuild:
    def test_figure4_structure(self):
        """The example MTT of Figure 4: prefixes 0/2, 160/3 and 128/1."""
        tree = Mtt.build(entries(FIGURE4, k=1))
        tree.validate()
        assert set(tree.prefixes) == {Prefix.parse(t) for t in FIGURE4}
        # 160.0.0.0/3 is 101 in binary: root -1-> node -0-> node -1-> node
        # -E-> prefix node.
        node = tree.root
        for bit in (1, 0, 1):
            node = node.children[bit]
            assert isinstance(node, InnerNode)
        assert isinstance(node.end, PrefixNode)
        assert node.end.prefix == Prefix.parse("160.0.0.0/3")

    def test_every_inner_slot_filled(self):
        tree = Mtt.build(entries(FIGURE4))
        for node in tree.nodes():
            if isinstance(node, InnerNode):
                assert all(c is not None for c in node.children)

    def test_bits_stored_per_prefix(self):
        p, q = Prefix.parse("10.0.0.0/8"), Prefix.parse("192.0.0.0/4")
        tree = Mtt.build({p: [1, 0, 1], q: [0, 0, 1]})
        assert tree.bits_for(p) == (1, 0, 1)
        assert tree.bits_for(q) == (0, 0, 1)
        assert tree.bits_for(Prefix.parse("172.16.0.0/12")) is None

    def test_nested_prefixes_coexist(self):
        tree = Mtt.build(entries(["10.0.0.0/8", "10.0.0.0/16",
                                  "10.128.0.0/9"]))
        tree.validate()
        assert len(tree.prefixes) == 3

    def test_default_route_at_root(self):
        tree = Mtt.build(entries(["0.0.0.0/0", "128.0.0.0/1"]))
        tree.validate()
        assert isinstance(tree.root.end, PrefixNode)

    def test_duplicate_prefix_rejected(self):
        with pytest.raises(ValueError):
            Mtt.build({Prefix.parse("10.0.0.0/8"): []})

    def test_empty_tree(self):
        tree = Mtt.build({})
        assert tree.prefixes == ()
        census = tree.census()
        assert census.total == 1 and census.dummy == 1

    def test_path_to(self):
        tree = Mtt.build(entries(FIGURE4))
        path = tree.path_to(Prefix.parse("160.0.0.0/3"))
        assert len(path) == 4  # root + 3 bit levels
        assert tree.path_to(Prefix.parse("10.0.0.0/8")) is None


class TestCensus:
    def test_figure4_counts(self):
        tree = Mtt.build(entries(FIGURE4, k=1))
        census = tree.census()
        assert census.prefix == 3
        assert census.bit == 3
        # Paths: "", 0, 00, 1, 10, 101 → 6 inner nodes.
        assert census.inner == 6
        assert slot_identity_holds(census)

    def test_bit_count_scales_with_k(self):
        for k in (1, 5, 50):
            tree = Mtt.build(entries(FIGURE4, k=k))
            assert tree.census().bit == 3 * k

    def test_slot_identity_matches_paper_census(self):
        # 3·inner = (inner−1) + prefix + dummy holds for the §7.3 numbers
        # (to within the paper's rounding of the dummy count).
        lhs = 3 * PAPER_CENSUS.inner
        rhs = (PAPER_CENSUS.inner - 1) + PAPER_CENSUS.prefix \
            + PAPER_CENSUS.dummy
        assert abs(lhs - rhs) <= 1000

    def test_predict_census_matches_built_tree(self):
        texts = ["10.0.0.0/8", "10.0.0.0/16", "192.168.0.0/16",
                 "192.168.1.0/24", "0.0.0.0/0", "128.0.0.0/2"]
        built = Mtt.build(entries(texts, k=3)).census()
        predicted = predict_census([Prefix.parse(t) for t in texts],
                                   classes_per_prefix=3)
        assert built == predicted

    def test_predict_census_empty(self):
        census = predict_census([], classes_per_prefix=5)
        assert census.prefix == 0 and census.bit == 0

    def test_memory_estimate_positive_and_monotone(self):
        small = Mtt.build(entries(FIGURE4, k=1)).census()
        large = Mtt.build(entries(FIGURE4, k=50)).census()
        assert 0 < small.estimated_bytes() < large.estimated_bytes()


class TestValidation:
    def test_validate_rejects_inner_on_end_edge(self):
        root = InnerNode()
        root.children[0] = DummyNode(label=b"x")
        root.children[1] = DummyNode(label=b"x")
        root.children[2] = InnerNode()
        with pytest.raises(ValueError):
            validate_structure(root)

    def test_validate_rejects_missing_child(self):
        root = InnerNode()
        root.children[0] = DummyNode(label=b"x")
        root.children[1] = DummyNode(label=b"x")
        with pytest.raises(ValueError):
            validate_structure(root)

    def test_validate_rejects_bit_node_under_inner(self):
        root = InnerNode()
        root.children[0] = BitNode(class_index=0, bit=1, blinding=None)
        root.children[1] = DummyNode(label=b"x")
        root.children[2] = DummyNode(label=b"x")
        with pytest.raises(ValueError):
            validate_structure(root)

    def test_prefix_node_requires_bit_nodes(self):
        with pytest.raises(ValueError):
            PrefixNode(prefix=Prefix.parse("10.0.0.0/8"), bit_nodes=[])

    def test_bit_node_requires_binary_bit(self):
        with pytest.raises(ValueError):
            BitNode(class_index=0, bit=2, blinding=None)
