"""Reproduce the durable-checkpoint defect that keeps commit-steady and
verify-churn on an in-memory log.

An elector with a durable ``SegmentedLogStore`` takes its first
checkpoint at its first commitment.  ``repro.runtime.logdump`` encodes
the checkpoint with a 16-bit length, so once the routing state exceeds
64 KiB (~1,600 routes) the commitment raises
``CodecError: u16 out of range``.

Run from the repository root::

    python3 spiderbench/checkpoint_defect.py

Exit code 1 and a ``defect present`` line while the defect exists; exit
code 0 once a commitment over ``ROUTES`` routes succeeds.
"""

from __future__ import annotations

import random
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROUTES = 2000


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    from repro.runtime.codec import CodecError
    from repro.traces.workload import generate_prefixes

    from harness import ELECTOR, PRODUCERS, ROUND, build_net, offer, \
        producer_route

    store_dir = HERE / "_work" / "defect-store"
    shutil.rmtree(store_dir, ignore_errors=True)
    net = build_net(1, 0, (ELECTOR, PRODUCERS[0]), store_dir=str(store_dir))
    try:
        rng = random.Random(1)
        for prefix in generate_prefixes(ROUTES, seed=1):
            offer(net, PRODUCERS[0], producer_route(rng, PRODUCERS[0],
                                                    prefix))
        net.settle()
        net.advance(ROUND)
        try:
            net.elector.commit()
        except CodecError as exc:
            print(f"defect present: first durable commitment over "
                  f"{ROUTES} routes raised CodecError: {exc}")
            return 1
        print(f"no defect: durable commitment over {ROUTES} routes "
              "succeeded")
        return 0
    finally:
        net.close()
        shutil.rmtree(store_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
