"""Tests for proxy-aggregation support in the MTT (§8)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.prefix import Prefix
from repro.crypto.rc4 import Rc4Csprng
from repro.mtt.aggregation import aggregate_bits, \
    aggregation_candidates, aggregation_overhead, sibling, \
    with_aggregates
from repro.mtt.labeling import label_tree_with_workers
from repro.mtt.proofs import generate_proof, verify_proof
from repro.mtt.tree import Mtt

P_LOW = Prefix.parse("10.0.0.0/24")
P_HIGH = Prefix.parse("10.0.1.0/24")
PARENT = Prefix.parse("10.0.0.0/23")
LONER = Prefix.parse("192.168.0.0/24")


class TestSibling:
    def test_flips_last_bit(self):
        assert sibling(P_LOW) == P_HIGH
        assert sibling(P_HIGH) == P_LOW

    def test_default_route_has_none(self):
        with pytest.raises(ValueError):
            sibling(Prefix.parse("0.0.0.0/0"))

    @settings(max_examples=50)
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=24))
    def test_involution_property(self, bits):
        prefix = Prefix.from_bits(tuple(bits))
        assert sibling(sibling(prefix)) == prefix
        assert sibling(prefix).parent() == prefix.parent()


class TestCandidates:
    def test_complete_pair_found(self):
        triples = aggregation_candidates([P_LOW, P_HIGH, LONER])
        assert triples == [(P_LOW, P_HIGH, PARENT)]

    def test_incomplete_pair_ignored(self):
        assert aggregation_candidates([P_LOW, LONER]) == []

    def test_each_pair_reported_once(self):
        triples = aggregation_candidates([P_HIGH, P_LOW])
        assert len(triples) == 1


class TestAggregateBits:
    def test_and_semantics(self):
        assert aggregate_bits((1, 0, 1), (1, 1, 0)) == (1, 0, 0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            aggregate_bits((1,), (1, 0))


class TestWithAggregates:
    def test_parent_added_for_complete_pairs(self):
        entries = {P_LOW: (1, 0), P_HIGH: (1, 1), LONER: (0, 1)}
        extended = with_aggregates(entries)
        assert extended[PARENT] == (1, 0)
        assert LONER.parent() not in extended

    def test_added_even_when_not_aggregatable(self):
        """The §8 privacy rule: the parent entry exists whether or not
        aggregation occurred — here the halves share no class, so the
        aggregate is all-zeros, but it is still committed."""
        entries = {P_LOW: (1, 0), P_HIGH: (0, 1)}
        extended = with_aggregates(entries)
        assert extended[PARENT] == (0, 0)

    def test_existing_parent_entry_wins(self):
        entries = {P_LOW: (1, 0), P_HIGH: (1, 0), PARENT: (0, 1)}
        extended = with_aggregates(entries)
        assert extended[PARENT] == (0, 1)

    def test_multi_level(self):
        quarter = {Prefix.parse(f"10.0.{i}.0/24"): (1,)
                   for i in range(4)}
        extended = with_aggregates(quarter, levels=2)
        assert Prefix.parse("10.0.0.0/23") in extended
        assert Prefix.parse("10.0.2.0/23") in extended
        assert Prefix.parse("10.0.0.0/22") in extended

    def test_levels_validated(self):
        with pytest.raises(ValueError):
            with_aggregates({}, levels=0)

    def test_aggregate_provable_in_mtt(self):
        """End to end: the aggregate entry commits and proves like any
        other prefix."""
        entries = with_aggregates({P_LOW: (1, 0), P_HIGH: (1, 1)})
        tree = Mtt.build(entries)
        report = label_tree_with_workers(tree, Rc4Csprng(b"agg"))
        proof = generate_proof(tree, PARENT, 0)
        assert verify_proof(report.root_label, proof, expected_k=2) == 1
        proof0 = generate_proof(tree, PARENT, 1)
        assert verify_proof(report.root_label, proof0,
                            expected_k=2) == 0


class TestOverhead:
    def test_overhead_measured(self):
        dense = {Prefix.parse(f"10.0.{i}.0/24"): (1,) for i in range(8)}
        overhead = aggregation_overhead(dense)
        assert overhead == pytest.approx(0.5)  # 4 parents for 8 children

    def test_sparse_tables_cost_little(self):
        sparse = {Prefix.parse("10.0.0.0/24"): (1,),
                  Prefix.parse("172.16.0.0/24"): (1,)}
        assert aggregation_overhead(sparse) == 0.0

    def test_empty(self):
        assert aggregation_overhead({}) == 0.0
