"""Deployment plumbing shared by the three workloads.

Every node is a real :class:`~repro.runtime.node_runtime.NodeRuntime`
on one in-process :class:`~repro.runtime.transport.LoopbackHub`, so each
message really crosses the binary codec and framing layers, but no
socket.  All nodes run on one thread with stepped clocks that move in
lockstep, and the benchmark plays the role of BGP: it decides which
routes each AS announces and feeds them in through the public
``announce``/``withdraw`` calls.
"""

from __future__ import annotations

import ctypes
import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.bgp.prefix import Prefix
from repro.bgp.route import Route
from repro.crypto.keys import KeyRegistry, make_identity
from repro.runtime.node_runtime import NodeRuntime
from repro.runtime.transport import LoopbackHub
from repro.spider.config import SpiderConfig
from repro.spider.node import evaluation_scheme
from repro.store.seglog import SegmentedLogStore
from repro.traces.workload import generate_path

#: The elector under test, its two producers, and its consumer.
ELECTOR = 100
PRODUCERS = (201, 202)
CONSUMER = 300
#: Key size ``SpiderDeployment`` uses by default.
KEY_BITS = 512
#: ``evaluation_scheme(50)``: 50 path-length classes, total order.
CLASSES = 50
#: One clock step of :func:`Net.settle`; longer than the default Nagle
#: delay (0.05 s), so each step flushes every queued outbox, and short
#: enough that an ACK (two steps) beats the first retry (>= 0.45 s).
STEP = 0.1
#: Clock step between commitment rounds (the paper's interval).
ROUND = 60.0
#: AS numbers the synthetic paths draw from.
AS_POOL = tuple(range(3000, 5000))
#: statfs(2) magic numbers of common Linux filesystems.
FS_MAGIC = {0xEF53: "ext2/3/4", 0x794C7630: "overlayfs", 0x01021994: "tmpfs",
            0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs",
            0x65735546: "fuse", 0x2FC12FC1: "zfs"}


def derive_seed(seed: int, *labels: object) -> int:
    """A 64-bit seed for one purpose, derived from the workload seed."""
    text = ":".join(str(x) for x in (seed,) + labels)
    return random.Random(text).getrandbits(64)


@dataclass
class Net:
    """The nodes of one workload and the hub between them."""

    hub: LoopbackHub
    nodes: Dict[int, NodeRuntime]
    now: float = 0.0
    #: Routes each producer currently announces to the elector.
    offered: Dict[int, Dict[Prefix, Route]] = field(default_factory=dict)
    #: Routes the elector currently exports to the consumer.
    exported: Dict[Prefix, Route] = field(default_factory=dict)

    @property
    def elector(self) -> NodeRuntime:
        return self.nodes[ELECTOR]

    def advance(self, dt: float) -> None:
        """Move every clock forward together and fire due timers."""
        self.now = round(self.now + dt, 3)
        for rt in self.nodes.values():
            rt.advance_to(self.now)

    def settle(self) -> None:
        """Run the exchange until no message is queued or in flight.

        Each step flushes every Nagle outbox, delivers every frame, and
        processes every inbox; a step that moves nothing ends it.
        """
        while True:
            self.advance(STEP)
            moved = self.hub.deliver_all()
            for rt in self.nodes.values():
                moved += rt.deliver_pending()
            if not moved:
                return

    def frames_and_bytes(self) -> Tuple[int, int]:
        frames = sum(rt.transport.frames_sent for rt in self.nodes.values())
        sent = sum(rt.transport.bytes_sent for rt in self.nodes.values())
        return frames, sent

    def close(self) -> None:
        for rt in self.nodes.values():
            rt.close()


def build_net(seed: int, rep: int, asns: Sequence[int],
              store_dir: Optional[str] = None) -> Net:
    """Nodes for ``asns`` with seeded 512-bit keys.

    ``rep`` varies the key seeds between set-up repetitions, so every
    repetition pays key generation (keypairs are memoized by seed).
    Only the elector gets a durable store, and only when ``store_dir``
    is given.
    """
    registry = KeyRegistry()
    identities = {
        asn: make_identity(asn, registry=registry, bits=KEY_BITS,
                           seed=derive_seed(seed, "key", rep, asn))
        for asn in asns
    }
    hub = LoopbackHub()
    scheme = evaluation_scheme(CLASSES)
    config = SpiderConfig()
    nodes: Dict[int, NodeRuntime] = {}
    for asn in asns:
        if asn == ELECTOR:
            neighbors = tuple(a for a in asns if a != ELECTOR)
        else:
            neighbors = (ELECTOR,)
        store = None
        if asn == ELECTOR and store_dir is not None:
            store = SegmentedLogStore(store_dir, fsync="batch",
                                      node=f"as{asn}")
        nodes[asn] = NodeRuntime(
            identity=identities[asn], registry=registry, scheme=scheme,
            transport=hub.attach(asn), neighbors=neighbors, config=config,
            retry_seed=asn, store=store)
    return Net(hub=hub, nodes=nodes,
               offered={p: {} for p in asns if p in PRODUCERS})


def producer_route(rng: random.Random, producer: int,
                   prefix: Prefix) -> Route:
    """A seeded loop-free path starting at ``producer``."""
    return Route(prefix=prefix,
                 as_path=generate_path(rng, AS_POOL, first_hop=producer),
                 neighbor=producer)


def offer(net: Net, producer: int, route: Route) -> None:
    """``producer`` announces ``route`` to the elector."""
    net.nodes[producer].announce(ELECTOR, route)
    net.offered[producer][route.prefix] = route


def retract(net: Net, producer: int, prefix: Prefix) -> None:
    """``producer`` withdraws ``prefix`` from the elector."""
    net.nodes[producer].withdraw(ELECTOR, prefix)
    del net.offered[producer][prefix]


def reexport(net: Net, prefixes: Sequence[Prefix]) -> None:
    """The elector's honest decision for ``prefixes``.

    It exports the shortest offered route (lowest producer ASN on a
    tie) to the consumer, with its own ASN prepended, and withdraws a
    prefix no producer offers any more.  Under the total-order
    path-length promise this choice is always promise-conforming.
    """
    elector = net.elector
    for prefix in prefixes:
        candidates = [table[prefix]
                      for _p, table in sorted(net.offered.items())
                      if prefix in table]
        current = net.exported.get(prefix)
        if not candidates:
            if current is not None:
                elector.withdraw(CONSUMER, prefix)
                del net.exported[prefix]
            continue
        best = min(candidates, key=lambda r: len(r.as_path))
        route = Route(prefix=prefix, as_path=(ELECTOR,) + best.as_path,
                      neighbor=best.neighbor)
        if current != route:
            elector.announce(CONSUMER, route)
            net.exported[prefix] = route


def filesystem_type(path: str) -> str:
    """The filesystem under ``path``, from statfs(2)'s ``f_type``."""
    buf = ctypes.create_string_buffer(256)
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.statfs(path.encode(), buf) != 0:
        return "unknown"
    magic = ctypes.c_long.from_buffer(buf).value & 0xFFFFFFFF
    return FS_MAGIC.get(magic, hex(magic))
