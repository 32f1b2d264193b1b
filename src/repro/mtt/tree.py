"""Construction of the minimal modified ternary tree (Section 5.2).

For a prefix set P and a function ε mapping each prefix to its
indifference-class bits, there is a unique minimal MTT M(P, ε): one inner
node for every bit-path that is a (possibly empty) proper prefix of some
p ∈ P — including the path of p itself, whose E child is p's prefix node —
with every unused child slot filled by a dummy node, one prefix node per
p ∈ P, and one bit node per class of ε(p).

The tree is held as flat post-order slot arrays (:class:`FlatSchedule`),
built in one trie walk straight from the sorted prefixes; node objects
exist only as an on-demand view (:meth:`Mtt.nodes`).  The node counts
reproduce the paper's §7.3 census identity exactly: 3·inner = (inner − 1)
+ prefix + dummy (every child slot of every inner node is an inner node,
a prefix node, or a dummy).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..bgp.prefix import Prefix
from .nodes import BitNode, DummyNode, InnerNode, MttNode, PrefixNode, \
    validate_structure

#: Slot kinds (one byte per slot in :attr:`FlatSchedule.slot_kinds`).
#: Dummy slots take a random label, bit slots hash ``H(b || x)`` over
#: their blinding, inner and prefix slots hash the concatenation of
#: their children's labels.
SLOT_DUMMY, SLOT_BIT, SLOT_INNER, SLOT_PREFIX = 0, 1, 2, 3


class FlatSchedule:
    """One MTT shape as post-order slot arrays (the §5.3 hot path).

    Every node gets a slot id in post-order, children in edge order
    (0, 1, E) and bit nodes in class order, so the root is the last
    slot and each subtree occupies one contiguous slot block.  The
    leaves (dummy and bit slots) therefore come out in exactly the
    pre-order in which the CSPRNG stream is consumed: leaf ``i`` in
    slot order takes the ``i``-th bitstring of the commitment's draw.
    That order must never change — proof generators rebuild past
    blindings from the stored seed by replaying it (Section 6.5).

    * ``slot_kinds`` — one :data:`SLOT_DUMMY`/:data:`SLOT_BIT`/
      :data:`SLOT_INNER`/:data:`SLOT_PREFIX` byte per slot;
    * ``slot_bits`` — the committed bit of each bit slot (0 elsewhere);
    * ``child_offsets``/``child_slots`` — CSR children: slot ``s`` has
      children ``child_slots[child_offsets[s]:child_offsets[s + 1]]``
      (three for an inner slot, the ``k`` bit slots right before it for
      a prefix slot);
    * ``subtree_sizes`` — slots in each subtree, so the subtree rooted
      at ``s`` is the block ``[s + 1 - subtree_sizes[s], s + 1)``;
    * ``prefix_slots`` — prefix → (its prefix slot, the leaf index of
      its first bit slot), for proofs;
    * ``counts`` — the node census.
    """

    __slots__ = ("n_slots", "n_leaves", "slot_kinds", "slot_bits",
                 "child_offsets", "child_slots", "subtree_sizes",
                 "prefix_slots", "counts")

    def __init__(self, entries: Mapping[Prefix, Sequence[int]]):
        # Post-order sorts every extension of p before p itself: order
        # by the last address p covers, longer prefixes first on ties.
        order = sorted(((p.address | ((1 << (32 - p.length)) - 1),
                         -p.length, p) for p in entries))
        last = [key[0] for key in order]
        kinds = bytearray()
        bits = bytearray()
        offsets = array("I", (0,))
        children = array("I")
        sizes = array("I")
        prefix_slots: Dict[Prefix, Tuple[int, int]] = {}
        leaves = inner = 0

        def dummy() -> int:
            nonlocal leaves
            leaves += 1
            kinds.append(SLOT_DUMMY)
            bits.append(0)
            offsets.append(len(children))
            sizes.append(1)
            return len(kinds) - 1

        def prefix_node(prefix: Prefix) -> int:
            nonlocal leaves
            values = bytes(entries[prefix])
            k = len(values)
            if not k:
                raise ValueError(f"no bits supplied for {prefix}")
            if values.strip(b"\x00\x01"):
                raise ValueError(f"bits for {prefix} must be 0 or 1")
            first = len(kinds)
            prefix_slots[prefix] = (first + k, leaves)
            leaves += k
            kinds.extend(repeat(SLOT_BIT, k))
            kinds.append(SLOT_PREFIX)
            bits.extend(values)
            bits.append(0)
            offsets.extend(repeat(len(children), k))
            children.extend(range(first, first + k))
            offsets.append(len(children))
            sizes.extend(repeat(1, k))
            sizes.append(k + 1)
            return first + k

        def walk(depth: int, base: int, lo: int, hi: int) -> int:
            # Prefixes order[lo:hi] all share the path ``base`` of
            # ``depth`` bits; the one equal to it, if any, sorts last.
            nonlocal inner
            if lo == hi:
                return dummy()
            inner += 1
            exact = -order[hi - 1][1] == depth
            end = hi - 1 if exact else hi
            if depth < 32:
                one = base | (1 << (31 - depth))
                mid = bisect_left(last, one, lo, end)
                zero_slot = walk(depth + 1, base, lo, mid)
                one_slot = walk(depth + 1, one, mid, end)
            else:
                zero_slot, one_slot = dummy(), dummy()
            end_slot = prefix_node(order[hi - 1][2]) if exact else dummy()
            kinds.append(SLOT_INNER)
            bits.append(0)
            children.extend((zero_slot, one_slot, end_slot))
            offsets.append(len(children))
            sizes.append(1 + sizes[zero_slot] + sizes[one_slot]
                         + sizes[end_slot])
            return len(kinds) - 1

        walk(0, 0, 0, len(order))
        self.n_slots = len(kinds)
        self.n_leaves = leaves
        self.slot_kinds = bytes(kinds)
        self.slot_bits = bytes(bits)
        self.child_offsets = offsets
        self.child_slots = children
        self.subtree_sizes = sizes
        self.prefix_slots = prefix_slots
        n_bits = len(children) - 3 * inner
        self.counts = NodeCensus(inner=inner, prefix=len(prefix_slots),
                                 bit=n_bits, dummy=leaves - n_bits)

    def children_of(self, slot: int) -> "array[int]":
        """The child slots of ``slot`` in edge (or class) order."""
        offsets = self.child_offsets
        return self.child_slots[offsets[slot]:offsets[slot + 1]]


def subtree_jobs(shape: FlatSchedule,
                 cut_depth: int) -> List[Tuple[int, int, int]]:
    """The subtrees ``cut_depth`` branch levels below the root, as
    ascending ``(lo, hi, first_leaf)`` slot blocks.

    ``first_leaf`` is the leaf (draw) index of the block's first leaf.
    Dummy and prefix slots above the cut are blocks of their own, so
    the slots outside every block (:func:`upper_slots`) are inner slots
    only.  More depth yields more, smaller jobs and therefore a better
    balanced schedule (the paper splits 'the MTT into subtrees that are
    each labeled completely by one of the threads', §7.1).
    """
    kinds, sizes = shape.slot_kinds, shape.subtree_sizes
    roots: List[int] = []
    frontier = [(shape.n_slots - 1, 0)]
    while frontier:
        slot, depth = frontier.pop()
        if depth >= cut_depth or kinds[slot] != SLOT_INNER:
            roots.append(slot)
        else:
            frontier.extend((c, depth + 1) for c in shape.children_of(slot))
    jobs: List[Tuple[int, int, int]] = []
    leaf = 0
    for root in sorted(roots):
        lo, hi = root + 1 - sizes[root], root + 1
        jobs.append((lo, hi, leaf))
        leaf += kinds.count(SLOT_DUMMY, lo, hi) + \
            kinds.count(SLOT_BIT, lo, hi)
    return jobs


def upper_slots(jobs: Sequence[Tuple[int, int, int]],
                n_slots: int) -> List[int]:
    """The slots outside every job block, ascending (children first)."""
    out: List[int] = []
    prev = 0
    for lo, hi, _ in jobs:
        out.extend(range(prev, lo))
        prev = hi
    out.extend(range(prev, n_slots))
    return out


@dataclass(frozen=True)
class NodeCensus:
    """Node counts per type (the §7.3 'MTT size' microbenchmark)."""

    inner: int
    prefix: int
    bit: int
    dummy: int

    @property
    def total(self) -> int:
        return self.inner + self.prefix + self.bit + self.dummy

    def estimated_bytes(self) -> int:
        """Struct-level memory model, mirroring a compact C++ layout.

        inner: 3 child pointers (24 B); prefix: pointer + small header
        (16 B); bit: bit + cached label slot (4 B); dummy: label slot
        reference (4 B).  The paper's 22.3M-node MTT at 137.5 MB implies
        ≈6.2 B/node, dominated by bit nodes — this model lands in the
        same regime.
        """
        return (self.inner * 24 + self.prefix * 16 + self.bit * 4
                + self.dummy * 4)


class Mtt:
    """A modified ternary tree over a set of prefixes.

    Build with :meth:`build`; the result is unlabeled.
    :mod:`repro.mtt.labeling` draws the randomness and computes the
    Merkle labels into :attr:`labels` (one per slot) and :attr:`draws`
    (one bitstring per leaf, in leaf order); :mod:`repro.mtt.proofs`
    generates bit proofs from them.
    """

    __slots__ = ("_schedule", "labels", "draws")

    def __init__(self, schedule: FlatSchedule):
        self._schedule = schedule
        self.labels: Optional[List[bytes]] = None
        self.draws: Optional[List[bytes]] = None

    @classmethod
    def build(cls, entries: Mapping[Prefix, Sequence[int]]) -> "Mtt":
        """Build the minimal MTT for ``entries`` (prefix → input bits).

        Bit values are the VPref input bits for that prefix, one per
        indifference class, as computed by
        :func:`repro.core.bits.compute_bits`.
        """
        return cls(FlatSchedule(entries))

    # ------------------------------------------------------------------
    # Lookup

    def schedule(self) -> FlatSchedule:
        """The tree's slot arrays."""
        return self._schedule

    @property
    def prefixes(self) -> Tuple[Prefix, ...]:
        return tuple(sorted(self._schedule.prefix_slots))

    def __contains__(self, prefix: object) -> bool:
        return prefix in self._schedule.prefix_slots

    def prefix_slot(self, prefix: Prefix) -> Optional[int]:
        entry = self._schedule.prefix_slots.get(prefix)
        return None if entry is None else entry[0]

    def bits_for(self, prefix: Prefix) -> Optional[Tuple[int, ...]]:
        slot = self.prefix_slot(prefix)
        if slot is None:
            return None
        shape = self._schedule
        k = len(shape.children_of(slot))
        return tuple(shape.slot_bits[slot - k:slot])

    def path_to(self, prefix: Prefix) -> Optional[List[int]]:
        """Inner slots from the root down to (and including) the one
        whose E child is the prefix slot; None if absent."""
        if prefix not in self._schedule.prefix_slots:
            return None
        shape = self._schedule
        offsets, children = shape.child_offsets, shape.child_slots
        node = shape.n_slots - 1
        path = [node]
        for bit in prefix.iter_bits():
            node = children[offsets[node] + bit]
            path.append(node)
        return path

    def census(self) -> NodeCensus:
        return self._schedule.counts

    # ------------------------------------------------------------------
    # Node view (Figure 4, structure tests, the compute_label oracle)

    def nodes(self) -> List[MttNode]:
        """Fresh node objects for every slot, in slot order (root last).

        A view for inspection and reference checks only: the nodes
        carry no randomness or labels, and building them costs one
        Python object per slot.
        """
        shape = self._schedule
        names = {slot: p for p, (slot, _) in shape.prefix_slots.items()}
        out: List[MttNode] = []
        run: List[BitNode] = []  # the bit nodes of the next prefix
        for slot, kind in enumerate(shape.slot_kinds):
            if kind == SLOT_DUMMY:
                out.append(DummyNode())
            elif kind == SLOT_BIT:
                bit = BitNode(class_index=len(run),
                              bit=shape.slot_bits[slot])
                run.append(bit)
                out.append(bit)
            elif kind == SLOT_PREFIX:
                out.append(PrefixNode(prefix=names[slot], bit_nodes=run))
                run = []
            else:
                inner = InnerNode()
                inner.children = [out[c] for c in shape.children_of(slot)]
                out.append(inner)
        return out

    @property
    def root(self) -> MttNode:
        """The root of a fresh node view (see :meth:`nodes`)."""
        return self.nodes()[-1]

    def validate(self) -> None:
        validate_structure(self.root)
