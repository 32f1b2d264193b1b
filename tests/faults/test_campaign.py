"""The campaign engine itself: determinism, oracle wiring, CLI.

Tier-1 keeps to a handful of cheap campaigns; the seed-roaming sweep is
behind the ``campaign`` marker and runs in its own CI job.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.verdict import FaultKind
from repro.faults.adversaries import ATTACK_CLASSES, SEC74_SPECS, \
    adversary_for
from repro.faults.campaign import main, run_campaign, run_spec, run_suite
from repro.faults.oracle import detectors
from tests.strategies import campaign_coordinates


def test_run_campaign_is_deterministic():
    first = run_campaign(0, 0)
    second = run_campaign(0, 0)
    assert first == second
    assert json.dumps(first, sort_keys=True) == \
        json.dumps(second, sort_keys=True)


def test_different_indices_give_different_schedules():
    digests = {run_campaign(0, index)["schedule_digest"]
               for index in (0, len(ATTACK_CLASSES))}
    # Same attack class (round-robin wraps), different sampled spec.
    assert len(digests) == 2


def test_run_suite_aggregates():
    report = run_suite(seed=3, campaigns=2)
    assert report["seed"] == 3
    assert report["campaigns"] == 2
    assert len(report["results"]) == 2
    assert report["attack_classes"] == [cls().name
                                        for cls in ATTACK_CLASSES]
    assert report["ok"]
    assert report["total_problems"] == 0


def test_cli_writes_report_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["--seed", "1", "--campaigns", "1",
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["ok"] and report["seed"] == 1
    assert json.loads(capsys.readouterr().out) == report


#: The detectors §7.4 names, per pinned spec: the upstream AS misses
#: its bit proof, the downstream ASes hold a 1-proof for the null route,
#: the tampered proof fails the commitment hash; the equivocation
#: (beyond the paper) is caught by the lied-to AS on receipt.
SEC74_DETECTORS = {
    "route-drop": {7: {FaultKind.MISSING_PROOF}},
    "wrongful-export": {7: {FaultKind.BROKEN_PROMISE},
                        8: {FaultKind.BROKEN_PROMISE}},
    "proof-tamper": {8: {FaultKind.INVALID_PROOF}},
    "equivocation": {8: {FaultKind.EQUIVOCATION}},
}


@pytest.mark.parametrize("spec", SEC74_SPECS,
                         ids=[spec.attack for spec in SEC74_SPECS])
def test_sec74_spec_matches_the_paper(spec):
    """§7.4: each injected fault at AS 5 is detected by the AS the paper
    names, and the honest control world raises nothing."""
    run = run_spec(adversary_for(spec.attack), spec)
    assert run.ok and run.problems == []
    assert detectors(run.faulty.spider) == SEC74_DETECTORS[spec.attack]
    assert run.control.spider == [] and run.control.netreview == []
    if spec.attack == "equivocation":
        assert run.faulty.extras["equivocation_poms"] >= 1


@pytest.mark.campaign
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(campaign_coordinates())
def test_any_coordinate_passes_the_oracle(coordinate):
    """The property behind the whole engine: for ANY (seed, index) the
    sampled attack is detected exactly as expected on both systems and
    the control world stays silent."""
    seed, index = coordinate
    entry = run_campaign(seed, index)
    assert entry["ok"], entry["problems"]


@pytest.mark.campaign
def test_full_round_robin_sweep():
    report = run_suite(seed=11, campaigns=2 * len(ATTACK_CLASSES))
    assert report["ok"], [r["problems"] for r in report["results"]
                          if not r["ok"]]
