"""E7 — §7.4 'Functionality check': the injected-fault matrix.

The paper injects three faults at AS 5 and reports that each was
detected by one of the ASes: the over-aggressive filter by the upstream
AS (missing bit proof), the wrongly exported route by the downstream AS
(1-proof for the null route), and the tampered bit proof by the
downstream AS (proof/commitment mismatch); the clean run reports no
broken promises.

Each fault is a pinned campaign spec (``SEC74_SPECS``).  ``run_spec``
runs it through a faulty world and through its honest control world —
the paper's clean run, and for the wrongful export the honest export
filter — and checks the differential oracle on both.
"""

import pytest

from repro.core.verdict import FaultKind
from repro.faults.adversaries import SEC74_SPECS, adversary_for
from repro.faults.campaign import run_spec
from repro.faults.oracle import detectors
from repro.harness.reporting import render_table

#: attack → (the paper's detector, its SPIDeR detectors and kinds).
PAPER = {
    "route-drop": ("upstream AS 7: no bit proof for its route",
                   {7: {FaultKind.MISSING_PROOF}}),
    "wrongful-export": ("downstream ASes 7, 8: 1-proof for ⊥ above "
                        "their route",
                        {7: {FaultKind.BROKEN_PROMISE},
                         8: {FaultKind.BROKEN_PROMISE}}),
    "proof-tamper": ("downstream AS 8: proof/commitment mismatch",
                     {8: {FaultKind.INVALID_PROOF}}),
    "equivocation": ("(beyond the paper) AS 8 on receipt, plus a PoM "
                     "from the VERIFY cross-check",
                     {8: {FaultKind.EQUIVOCATION}}),
}


def _run(spec):
    return run_spec(adversary_for(spec.attack), spec)


@pytest.fixture(scope="module")
def runs():
    return {spec.attack: _run(spec) for spec in SEC74_SPECS}


def _detectors(result):
    return ", ".join(
        f"AS{asn}:{'/'.join(sorted(k.value for k in kinds))}"
        for asn, kinds in sorted(detectors(result.spider).items())) \
        or "-"


def test_functionality_matrix(benchmark, runs, emit):
    benchmark.pedantic(_run, args=(SEC74_SPECS[0],), rounds=1,
                       iterations=1)
    rows = []
    for spec in SEC74_SPECS:
        run = runs[spec.attack]
        rows.append((spec.attack, PAPER[spec.attack][0],
                     _detectors(run.faulty), _detectors(run.control),
                     run.faulty.extras.get("equivocation_poms", "-"),
                     "ok" if run.ok else "; ".join(run.problems)))
    emit(render_table(
        "§7.4 functionality check (faults at AS 5)",
        ["attack", "paper's detector", "faulty world", "control world",
         "PoMs", "oracle"], rows))
    for spec in SEC74_SPECS:
        run = runs[spec.attack]
        assert run.ok, (spec.attack, run.problems)
        assert not run.control.spider and not run.control.netreview, \
            spec.attack


def test_detector_identities_match_paper(benchmark, runs):
    benchmark(lambda: None)
    for attack, (_, paper) in PAPER.items():
        assert detectors(runs[attack].faulty.spider) == paper, attack
    assert runs["equivocation"].faulty.extras["equivocation_poms"] >= 1
