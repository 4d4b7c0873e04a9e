"""Golden RecoveryLogs: packet-path optimisations must not move a byte.

The sha256 digests under ``golden/`` were captured on the commit *before*
the scalar noise kernel / header templates landed.  Each replay formats
its :class:`RecoveryLog` with transitions, so every detection time,
quarantine transition and reroute is covered — a single draw that
differs in the last bit shows up here.

Regenerate (only when a change is *meant* to alter replays)::

    PYTHONPATH=src:. python tests/faults/test_golden_replay.py
"""

from pathlib import Path

import pytest

from repro.campaign.plans import generate_correlated_plans
from repro.campaign.runner import VICTIM, CorrelatedConfig, _build_victim
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


def srlg_replay() -> str:
    """E18 plan 0 (``shared_srlg``) of master seed 2026, defended stack."""
    adv = generate_correlated_plans(1, 2026)[0]
    config = CorrelatedConfig()
    deployment, controller, _, _, _ = _build_victim(True, config, defense="srlg")
    FaultInjector(deployment, adv.plan).arm()
    deployment.net.run(until=config.horizon_s)
    controllers = {VICTIM: controller}
    return RecoveryLog.build(adv.plan, controllers).format(controllers)


REPLAYS = {
    "blackhole_classic": cli_replay,
    "blackhole_resilient": lambda tmp: cli_replay(tmp, "--resilient"),
    "e18_shared_srlg": lambda tmp: srlg_replay(),
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
