"""Golden RecoveryLogs: packet-path optimisations must not move a byte.

The sha256 digests under ``golden/`` were captured on the commit *before*
the scalar noise kernel / header templates landed.  Each replay formats
its :class:`RecoveryLog` with transitions, so every detection time,
quarantine transition and reroute is covered — a single draw that
differs in the last bit shows up here.  ``e17_trust`` and ``e14_journal``
were captured before the controller's transitions moved into its
quarantine and mode machines: they pin the trust-demoted mode log and
the checkpoint/WAL bytes of a crash and warm restore.

Regenerate (only when a change is *meant* to alter replays)::

    PYTHONPATH=src:. python tests/faults/test_golden_replay.py
"""

from pathlib import Path

import pytest

from repro.campaign.plans import (
    generate_adversarial_plans,
    generate_correlated_plans,
)
from repro.campaign.runner import (
    VICTIM,
    CampaignConfig,
    CorrelatedConfig,
    _build_victim,
)
from repro.cli import main
from repro.faults import FaultInjector, RecoveryLog
from tests import golden

REPO = Path(__file__).resolve().parents[2]
PLAN = REPO / "examples" / "faults_blackhole.json"
GOLDEN = Path(__file__).parent / "golden" / "recovery_logs.json"


def cli_replay(tmp_dir: Path, *flags: str) -> str:
    out = tmp_dir / "log.txt"
    code = main(
        ["faults", "run", "--plan", str(PLAN), "--transitions", "--out", str(out)]
        + list(flags)
    )
    assert code == 0
    return out.read_text(encoding="utf-8")


def victim_replay(adv, config, defense: str) -> str:
    """One plan through the defended campaign victim, with transitions
    and the estimation-mode log."""
    deployment, controller, _, _, _ = _build_victim(True, config, defense=defense)
    FaultInjector(deployment, adv.plan).arm()
    deployment.net.run(until=config.horizon_s)
    controllers = {VICTIM: controller}
    text = RecoveryLog.build(adv.plan, controllers).format(controllers)
    return text + "".join(f"{m!r}\n" for m in controller.mode_log)


def journal_replay() -> str:
    """The E14 combined-fault campaign with its controller crash: the
    journal's checkpoint + WAL bytes, then every transition the
    controller and its supervisor logged."""
    from tests.resilience.test_integration import run_campaign

    _, controller, supervisor, journal = run_campaign(with_crash=True)
    records = [
        *controller.quarantine_log,
        *controller.mode_log,
        *supervisor.events,
    ]
    return journal.dump() + "\n" + "".join(f"{r!r}\n" for r in records)


REPLAYS = {
    "blackhole_classic": cli_replay,
    "blackhole_resilient": lambda tmp: cli_replay(tmp, "--resilient"),
    # The mode log stays empty without a degraded config: the srlg
    # digest is the recovery log alone.
    "e18_shared_srlg": lambda tmp: victim_replay(
        generate_correlated_plans(1, 2026)[0], CorrelatedConfig(), "srlg"
    ),
    "e17_trust": lambda tmp: victim_replay(
        generate_adversarial_plans(1, 2026)[0], CampaignConfig(), "trust"
    ),
    "e14_journal": lambda tmp: journal_replay(),
}


@pytest.mark.parametrize("name", sorted(REPLAYS))
def test_recovery_log_is_byte_identical_to_golden(name, tmp_path):
    assert golden.digest(REPLAYS[name](tmp_path)) == golden.load(GOLDEN)[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        golden.regenerate(
            GOLDEN,
            {name: golden.digest(run(Path(tmp))) for name, run in REPLAYS.items()},
        )
