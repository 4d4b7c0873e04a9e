"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.lint import check_plan_files

BLACKHOLE_PLAN = Path(__file__).parents[1] / "examples" / "faults_blackhole.json"
CRASH_PLAN = BLACKHOLE_PLAN.with_name("faults_crash.json")
REGRESSIONS = Path(__file__).parent / "regressions" / "faults"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_campaign_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.direction == "ny"
        assert args.start_hour == 25.0

    @pytest.mark.parametrize("argv", [["profile"], ["traffic", "run"]])
    def test_harness_verbs_are_gone(self, argv, capsys):
        # The package does not benchmark itself: E15/E16/E19 are
        # benchmarks/ files, trajectories are `python -m bench run`.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestCommands:
    def test_discover_prints_figure3(self, capsys):
        assert main(["discover"]) == 0
        out = capsys.readouterr().out
        assert "LA -> NY" in out
        assert "NTT Cogent" in out
        assert "20473:6000:2914" in out

    def test_campaign_prints_stats(self, capsys):
        assert (
            main(
                [
                    "campaign",
                    "--hours",
                    "0.02",
                    "--interval",
                    "0.1",
                    "--no-events",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "GTT" in out
        assert "mean_ms" in out

    def test_mesh_prints_sweep(self, capsys):
        assert main(["mesh", "--max-n", "3"]) == 0
        out = capsys.readouterr().out
        assert "Tango of N" in out

    def test_failover_reports_recovery(self, capsys):
        assert main(["failover", "--fail-at", "3.0"]) == 0
        out = capsys.readouterr().out
        assert "tango recovered" in out
        assert "BGP convergence" in out


class TestFaults:
    def test_faults_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["faults"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["faults", "run"])
        assert args.faults_command == "run"
        assert args.plan is None
        assert args.seed is None
        assert args.duration is None
        assert not args.transitions

    def test_sample_plan_roundtrips(self, capsys):
        from repro.faults import FaultPlan

        assert main(["faults", "sample-plan"]) == 0
        out = capsys.readouterr().out
        plan = FaultPlan.from_json(out)
        assert plan.name == "blackhole-demo"
        assert len(plan.events) == 3

    def test_run_parses_resilient_flag(self):
        args = build_parser().parse_args(["faults", "run", "--resilient"])
        assert args.resilient

    def test_supervised_restart_keeps_the_probation_schedule(self, tmp_path):
        # ny's controller dies at 6.5 s with GTT quarantined since 5.7;
        # the warm restore keeps probation due at 6.7 (the first tick
        # on the restarted grid is 6.75), not one fresh backoff later.
        out = tmp_path / "log.txt"
        argv = ["faults", "run", "--resilient", "--plan", str(CRASH_PLAN)]
        assert main(argv + ["--transitions", "--out", str(out)]) == 0
        gtt = [line for line in out.read_text().splitlines() if "GTT " in line]
        assert gtt[1:3] == [
            "ny 5.700000 path=2 label=GTT quarantine cause=stale backoff=1.000000",
            "ny 6.750000 path=2 label=GTT probation cause=- backoff=0.000000",
        ]


class TestFaultsRunBadPlan:
    """Malformed plans must exit non-zero with a message, not traceback."""

    def test_invalid_json_plan(self, tmp_path, capsys):
        plan = tmp_path / "broken.json"
        plan.write_text("{not json", encoding="utf-8")
        assert main(["faults", "run", "--plan", str(plan)]) == 2
        err = capsys.readouterr().err
        assert "invalid fault plan" in err
        assert "Traceback" not in err

    def test_unknown_fault_kind(self, tmp_path, capsys):
        plan = tmp_path / "unknown-kind.json"
        plan.write_text(
            '{"name": "bad", "events": [{"kind": "meteor_strike", "at": 1.0}]}',
            encoding="utf-8",
        )
        assert main(["faults", "run", "--plan", str(plan)]) == 2
        err = capsys.readouterr().err
        assert "meteor_strike" in err

    def test_missing_required_params(self, tmp_path, capsys):
        plan = tmp_path / "missing-params.json"
        plan.write_text(
            '{"name": "bad", "events": '
            '[{"kind": "link_blackhole", "at": 1.0, "duration": 2.0}]}',
            encoding="utf-8",
        )
        assert main(["faults", "run", "--plan", str(plan)]) == 2
        err = capsys.readouterr().err
        assert "missing parameter" in err

    def test_unreadable_plan_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["faults", "run", "--plan", str(missing)]) == 2
        err = capsys.readouterr().err
        assert "cannot read fault plan" in err

    def test_error_names_the_offending_event_index(self, tmp_path, capsys):
        """A 40-event plan with one bad event must say *which* one."""
        plan = tmp_path / "bad-second-event.json"
        plan.write_text(
            '{"name": "bad", "events": ['
            '{"kind": "link_blackhole", "at": 1.0, "duration": 2.0,'
            ' "src": "ny", "path": "GTT"},'
            '{"kind": "gray_loss", "at": 3.0, "duration": 2.0,'
            ' "src": "ny", "path": "GTT"}]}',
            encoding="utf-8",
        )
        assert main(["faults", "run", "--plan", str(plan)]) == 2
        err = capsys.readouterr().err
        assert "event #1:" in err
        assert "missing parameter" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "plan", sorted(REGRESSIONS.glob("*.json")), ids=lambda p: p.stem
    )
    def test_regression_plan_exits_2_in_one_line(self, plan, capsys):
        argv = ["faults", "run", "--plan", str(plan), "--duration", "1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("tango-repro: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", ["relay_outage_on_vultr", "flap_period_zero"])
    def test_run_refuses_what_lint_reports(self, name, capsys):
        """One check behind both commands: the plan lint flags is the
        plan ``faults run`` refuses, with the same problem text."""
        plan = REGRESSIONS / f"{name}.json"
        [finding] = check_plan_files([str(plan)])
        problem = finding.message[finding.message.index("event #0: ") :]
        assert main(["faults", "run", "--plan", str(plan)]) == 2
        assert problem in capsys.readouterr().err


class TestFaultsCampaign:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["faults", "campaign"])
        assert args.faults_command == "campaign"
        assert args.plans == 16
        assert args.workers == 1
        assert args.seed == 2026
        assert args.out == "BENCH_ROBUST.json"

    def test_nonpositive_counts_are_usage_errors(self, capsys):
        assert main(["faults", "campaign", "--plans", "0"]) == 2
        assert "plans" in capsys.readouterr().err
        assert main(["faults", "campaign", "--workers", "0"]) == 2
        assert "workers" in capsys.readouterr().err

    def test_tiny_campaign_writes_report(self, tmp_path, capsys):
        import json

        out = tmp_path / "robust.json"
        code = main(
            ["faults", "campaign", "--plans", "1", "--out", str(out)]
        )
        stdout = capsys.readouterr().out
        assert code == 0
        assert "all E17 gates passed" in stdout
        payload = json.loads(out.read_text())
        assert payload["experiment"] == "E17"
        assert payload["plans"] == 1
        assert payload["results"][0]["archetype"] == "favored_tamper"


class TestUnwritableOut:
    @pytest.mark.parametrize(
        "argv",
        [
            ["faults", "run", "--plan", str(BLACKHOLE_PLAN), "--duration", "1"],
            ["faults", "campaign", "--plans", "1", "--workers", "1"],
            ["federation", "run", "--edges", "3", "--smoke"],
        ],
        ids=["faults-run", "faults-campaign", "federation-run"],
    )
    def test_exit_2_one_line_no_traceback(self, argv, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "x.json"
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"tango-repro: cannot write {out}: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err


class TestFederation:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["federation", "run"])
        assert args.federation_command == "run"
        assert args.edges == 8
        assert args.seed == 42
        assert args.out == "-"
        assert not args.smoke

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["federation"])

    def test_too_few_edges_is_usage_error(self, capsys):
        assert main(["federation", "run", "--edges", "2"]) == 2
        err = capsys.readouterr().err
        assert "--edges must be >= 3" in err

    def test_smoke_run_passes_and_writes_report(self, tmp_path, capsys):
        import json

        out = tmp_path / "fed.json"
        code = main(
            [
                "federation",
                "run",
                "--edges",
                "3",
                "--smoke",
                "--out",
                str(out),
            ]
        )
        printed = capsys.readouterr().out
        assert code == 0
        assert "shared cache hit rate" in printed
        assert "usable routes via relay" in printed
        assert f"wrote {out}" in printed
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["schema"] == "tango-repro/e20-federation/v1"
        assert payload["established_pairs"] == payload["pairs"] == 3
        assert payload["degraded_pair"]["usable_routes"] >= 2
        assert payload["reroute"]["within_budget"] is True
