"""Command-line interface: ``tango-repro <command>``.

Eight subcommands, each a self-contained run of one slice of the system:

* ``discover`` — run Figure 3's iterative suppression discovery and print
  the path/community table per direction.
* ``campaign`` — sample a measurement campaign window and print per-path
  statistics (means, percentiles, rolling-window jitter).
* ``failover`` — packet-level failure-recovery demo (blackhole a path,
  time Tango's reroute, compare with BGP convergence).
* ``mesh`` — the Tango-of-N diversity sweep (E9), one live federation
  per member count.
* ``figures`` — export the Figure 4 data series as CSV.
* ``faults`` — chaos campaigns: ``faults run --plan plan.json --seed N``
  arms a deterministic fault plan against the deployment, runs the
  quarantine-enabled controller, and prints the recovery log (identical
  bytes for identical plan + seed); ``faults sample-plan`` prints a
  template plan; ``faults campaign --plans N --workers W --seed S`` fans
  a generated adversarial-plan population across worker processes, runs
  each plan defended and undefended, and writes the E17-gated
  ``BENCH_ROBUST.json`` (byte-identical for the same seed, regardless
  of worker count); ``faults campaign --correlated`` runs the E18
  correlated-failure family (SRLG cuts, regional outages, maintenance
  drains) against the fate-aware fast-reroute stack instead.
* ``federation`` — ``federation run --edges N`` runs the E20 live N-site
  federation experiment (shared establishment, stitched relay rescue,
  relay failover) and prints the gated report.
* ``lint`` — static determinism & policy-safety analysis: AST rules
  (``TNG001``–``TNG006``) and the whole-program fork-safety pass
  (``TNG202``, ``TNG301``–``TNG303``) over source files, Gao–Rexford
  semantic checks over every shipped scenario, and fault-plan target
  validation.  Examples::

      tango-repro lint src/repro                 # the CI gate
      tango-repro lint src/repro --format json   # machine-readable
      tango-repro lint --select TNG005 src       # one rule only
      tango-repro lint --plan plan.json src      # also validate a plan
      tango-repro lint --write-baseline lint-baseline.json src
                                                 # accept current state

Installed as a console script by ``pip install -e .``; also runnable as
``python -m repro.cli ...``.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .faults.plan import FaultPlan
    from .netsim.packet import Packet

__all__ = ["main", "build_parser"]

#: Float words argparse takes for an option, not a value: they start
#: with ``-`` and are not plain negative numbers.
_SIGNED_FLOAT_WORDS = frozenset({"-inf", "-infinity", "-nan"})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tango-repro",
        description="Tango (HotNets'22) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("discover", help="run Fig. 3 path discovery")

    campaign = sub.add_parser("campaign", help="sample a measurement window")
    campaign.add_argument(
        "--direction", choices=("ny", "la"), default="ny", help="sending edge"
    )
    campaign.add_argument(
        "--start-hour", type=float, default=25.0, help="window start (hours)"
    )
    campaign.add_argument(
        "--hours", type=float, default=1.0, help="window length (hours)"
    )
    campaign.add_argument(
        "--interval", type=float, default=0.01, help="probe interval (s)"
    )
    campaign.add_argument(
        "--no-events", action="store_true", help="disable Fig. 4 events"
    )

    failover = sub.add_parser("failover", help="failure-recovery demo")
    failover.add_argument(
        "--fail-at", type=float, default=5.0, help="failure time (s)"
    )
    failover.add_argument(
        "--path", default="GTT", help="path label to blackhole"
    )

    mesh = sub.add_parser("mesh", help="Tango-of-N diversity sweep")
    mesh.add_argument(
        "--max-n", type=int, default=6, help="largest member count (>= 2)"
    )

    figures = sub.add_parser(
        "figures", help="export Figure 4 data series as CSV"
    )
    figures.add_argument(
        "--out-dir", default="figures", help="output directory for CSVs"
    )

    faults = sub.add_parser(
        "faults", help="deterministic fault-injection campaigns"
    )
    faults_sub = faults.add_subparsers(dest="faults_command", required=True)
    run = faults_sub.add_parser(
        "run", help="arm a fault plan and print the recovery log"
    )
    run.add_argument(
        "--plan",
        help="path to a FaultPlan JSON (default: the built-in demo plan)",
    )
    run.add_argument(
        "--seed", type=int, default=None, help="override the plan's seed"
    )
    run.add_argument(
        "--duration",
        type=float,
        default=None,
        help="simulated run length in seconds (default: plan horizon + 10)",
    )
    run.add_argument(
        "--out", help="also write the recovery log to this file"
    )
    run.add_argument(
        "--transitions",
        action="store_true",
        help="append every quarantine state transition to the log",
    )
    run.add_argument(
        "--resilient",
        action="store_true",
        help="run the resilience stack: reliable telemetry transport, "
        "RTT-probing degraded mode, journaled controllers under "
        "supervision (enables telemetry_loss / controller_crash "
        "recovery)",
    )
    faults_sub.add_parser(
        "sample-plan", help="print a template fault plan as JSON"
    )
    chaos = faults_sub.add_parser(
        "campaign",
        help="multiprocess adversarial chaos campaign gated on the E17 "
        "SLOs (availability, MTTR, OWD regret, steering exposure)",
    )
    chaos.add_argument(
        "--plans",
        type=int,
        default=16,
        help="population size (archetypes interleave; default 16)",
    )
    chaos.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (1 runs in-process; the merged report is "
        "byte-identical either way)",
    )
    chaos.add_argument(
        "--seed", type=int, default=2026, help="campaign master seed"
    )
    chaos.add_argument(
        "--correlated",
        action="store_true",
        help="run the E18 correlated-failure family instead (SRLG "
        "shared-fate cuts, two-group overlaps, regional outages, "
        "maintenance windows) gated on FRR switchover latency, zero "
        "traffic on failed risk groups, and two-group availability",
    )
    chaos.add_argument(
        "--out",
        default="BENCH_ROBUST.json",
        help="report path (default BENCH_ROBUST.json)",
    )

    federation = sub.add_parser(
        "federation",
        help="live N-site federation: shared establishment + relay failover",
        description=(
            "Run the E20 multi-edge federation experiment: establish "
            "all N*(N-1)/2 pairwise Tango sessions over one shared BGP "
            "network (one shared convergence cache), stitch a relay "
            "tunnel for the degraded pair, kill the relay mid-run, and "
            "report dedup/diversity/failover results.  Exit status: 0 "
            "all gates pass, 1 a gate fails, 2 usage errors."
        ),
    )
    federation_sub = federation.add_subparsers(
        dest="federation_command", required=True
    )
    federation_run = federation_sub.add_parser(
        "run",
        help="run the E20 federation experiment and print the report",
        description=(
            "Establish an N-member federation (shared vs independent "
            "snapshot caches), rescue the degraded pair with a stitched "
            "relay tunnel, inject a relay_outage, and verify reroute "
            "within one telemetry horizon."
        ),
    )
    federation_run.add_argument(
        "--edges", type=int, default=8,
        help="federation size N (default: 8)",
    )
    federation_run.add_argument(
        "--seed", type=int, default=42,
        help="scenario seed (default: 42)",
    )
    federation_run.add_argument(
        "--out", default="-",
        help="also write the full JSON report here ('-' to skip, default)",
    )
    federation_run.add_argument(
        "--smoke", action="store_true",
        help="CI mode: skip the N-scaling sweep, same gates",
    )

    lint = sub.add_parser(
        "lint",
        help="static determinism & Gao-Rexford policy-safety analysis",
        description=(
            "Run the TNG determinism rules (wall-clock reads, unseeded/"
            "global RNGs, OS entropy and environment reads, ordered set "
            "iteration, mutable defaults) and the whole-program "
            "fork-safety pass over the given files, the semantic "
            "Gao-Rexford checks over every shipped scenario, and target "
            "validation for any --plan files.  Exit status: 0 clean, "
            "1 findings, 2 usage errors.  Suppress one occurrence with "
            "'# tango: noqa[TNG001]' (with a comment saying why)."
        ),
        epilog=(
            "examples: tango-repro lint src/repro | "
            "tango-repro lint --format json src/repro | "
            "tango-repro lint --select TNG001,TNG301 src | "
            "tango-repro lint --plan examples/faults_blackhole.json src/repro"
        ),
    )
    lint.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files/directories to analyze (default: src/repro)",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    lint.add_argument(
        "--select",
        help="comma-separated rule codes to restrict to, e.g. TNG001,TNG005",
    )
    lint.add_argument(
        "--baseline",
        help="baseline file filtering known findings "
        "(default: lint-baseline.json when it exists)",
    )
    lint.add_argument(
        "--write-baseline", metavar="FILE",
        help="accept the current findings into FILE and exit 0",
    )
    lint.add_argument(
        "--plan", action="append", default=[], metavar="FILE",
        help="also validate this fault-plan JSON against the Vultr "
        "scenario (repeatable)",
    )
    lint.add_argument(
        "--no-semantics", action="store_true",
        help="skip the Gao-Rexford checks over shipped scenarios",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print every rule code with its severity and summary, then exit",
    )
    return parser


def _write_out(path: str, text: str) -> bool:
    """Write a report to an ``--out`` path; on failure, one line on stderr
    and False (the caller exits 2) instead of a traceback after the run."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print(
            f"tango-repro: cannot write {path}: {exc.strerror or exc}",
            file=sys.stderr,
        )
        return False
    print(f"wrote {path}")
    return True


def cmd_discover() -> int:
    from .analysis.report import format_table
    from .core.discovery import PathDiscovery
    from .scenarios.vultr import VULTR_ASN, build_bgp_network

    bgp = build_bgp_network()
    discovery = PathDiscovery(bgp, VULTR_ASN)
    for title, announcer, observer in (
        ("LA -> NY", "tango-ny", "tango-la"),
        ("NY -> LA", "tango-la", "tango-ny"),
    ):
        result = discovery.discover(
            announcer=announcer,
            observer=observer,
            probe_prefix="2001:db8:fff::/48",
        )
        rows = [
            {
                "rank": p.index + 1,
                "path": p.short_label,
                "as_path": p.label,
                "communities": ", ".join(sorted(str(c) for c in p.communities))
                or "(none)",
            }
            for p in result.paths
        ]
        print(format_table(rows, title=title))
        print()
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    from .analysis.report import format_table
    from .analysis.stats import campaign_table
    from .scenarios.vultr import VultrDeployment
    from .validate import finite, positive

    try:
        finite("--start-hour", args.start_hour)
        positive("--hours", args.hours)
        positive("--interval", args.interval)
    except ValueError as exc:
        print(f"tango-repro: {exc}", file=sys.stderr)
        return 2
    deployment = VultrDeployment(include_events=not args.no_events)
    deployment.establish()
    t0 = args.start_hour * 3600.0
    t1 = t0 + args.hours * 3600.0
    _, true = deployment.run_fast_campaign(
        args.direction, t0, t1, interval_s=args.interval
    )
    labels = {
        t.path_id: t.short_label for t in deployment.tunnels(args.direction)
    }
    rows = [s.as_row() for s in campaign_table(true, labels)]
    print(
        format_table(
            rows,
            title=(
                f"{args.direction.upper()} direction, hours "
                f"{args.start_hour:g}-{args.start_hour + args.hours:g}"
            ),
        )
    )
    return 0


def cmd_failover(args: argparse.Namespace) -> int:
    from .bgp.network import CONVERGENCE_DELAY_S
    from .core.policy import LowestDelaySelector
    from .netsim.trace import PacketFactory
    from .scenarios.vultr import VultrDeployment
    from .validate import non_negative

    try:
        non_negative("--fail-at", args.fail_at)
    except ValueError as exc:
        print(f"tango-repro: {exc}", file=sys.stderr)
        return 2
    deployment = VultrDeployment(include_events=False)
    deployment.establish()
    deployment.start_path_probes("ny", interval_s=0.01)
    deployment.set_data_policy(
        "ny", LowestDelaySelector(deployment.gateway_ny.outbound, window_s=1.0)
    )
    factory = PacketFactory(
        src=str(deployment.pairing.a.host_address(4)),
        dst=str(deployment.pairing.b.host_address(4)),
        flow_label=9,
    )
    send = deployment.sender_for("ny")
    deliveries: list[tuple[float, int]] = []

    def on_delivery(packet: Packet, now: float) -> None:
        deliveries.append((packet.meta["sent"], packet.meta["tango_path_id"]))

    deployment.host_la.bind(9, on_delivery)

    def emit_data() -> None:
        packet = factory.build()
        packet.meta["sent"] = deployment.sim.now
        send(packet)

    deployment.sim.call_every(0.02, emit_data)
    deployment.fail_path("ny", args.path, at=args.fail_at)
    deployment.net.run(until=args.fail_at + 7.0)

    after = [t for t, _ in deliveries if t >= args.fail_at]
    if not after:
        print("no recovery observed — is the policy adaptive?")
        return 1
    recovery = min(after) - args.fail_at
    print(f"failed {args.path} at t={args.fail_at:g}s")
    print(f"tango recovered in {recovery:.2f}s")
    print(
        f"BGP convergence would need ~{CONVERGENCE_DELAY_S:.0f}s "
        f"({CONVERGENCE_DELAY_S / recovery:.0f}x slower)"
    )
    return 0


def cmd_mesh(args: argparse.Namespace) -> int:
    from .analysis.report import format_table
    from .federation.experiment import tango_of_n_rows

    if args.max_n < 2:
        print(
            f"tango-repro: --max-n must be >= 2 (Tango pairs two edges), "
            f"got {args.max_n}",
            file=sys.stderr,
        )
        return 2
    rows = tango_of_n_rows(range(2, args.max_n + 1), degraded_pair=False)
    print(format_table(rows, title="Tango of N"))
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    from .analysis.figures import export_all
    from .scenarios.vultr import VultrDeployment

    deployment = VultrDeployment()
    deployment.establish()
    for path in export_all(deployment, args.out_dir):
        print(f"wrote {path}")
    return 0


def _demo_fault_plan() -> FaultPlan:
    from .faults import FaultEvent, FaultPlan

    return FaultPlan(
        name="blackhole-demo",
        seed=7,
        events=(
            FaultEvent(
                "link_blackhole",
                at=5.0,
                duration=5.0,
                params={"src": "ny", "path": "GTT"},
            ),
            FaultEvent(
                "telemetry_drop",
                at=16.0,
                duration=2.0,
                params={"edge": "ny"},
            ),
            FaultEvent(
                "delay_spike",
                at=20.0,
                duration=3.0,
                params={"src": "ny", "path": "Telia", "extra_ms": 25.0},
            ),
        ),
    )


def cmd_faults_sample_plan() -> int:
    import json

    print(json.dumps(json.loads(_demo_fault_plan().to_json()), indent=2))
    return 0


def cmd_faults_run(args: argparse.Namespace) -> int:
    from .core.controller import QuarantinePolicy
    from .core.policy import LowestDelaySelector
    from .faults import FaultInjector, FaultPlan, RecoveryLog
    from .netsim.trace import PacketFactory
    from .scenarios.vultr import VultrDeployment
    from .validate import positive

    if args.duration is not None:
        try:
            positive("--duration", args.duration)
        except ValueError as exc:
            print(f"tango-repro: {exc}", file=sys.stderr)
            return 2
    if args.plan:
        try:
            plan = FaultPlan.from_file(args.plan)
        except OSError as exc:
            print(f"tango-repro: cannot read fault plan: {exc}", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(
                f"tango-repro: invalid fault plan {args.plan}: {exc}",
                file=sys.stderr,
            )
            return 2
    else:
        plan = _demo_fault_plan()
    if args.seed is not None:
        plan = FaultPlan(name=plan.name, events=plan.events, seed=args.seed)

    channel = None
    if args.resilient:
        from .resilience import ChannelConfig

        channel = ChannelConfig(report_interval_s=0.1)
    deployment = VultrDeployment(include_events=False, telemetry_channel=channel)
    deployment.establish()
    controllers = {}
    for edge in (deployment.pairing.a.name, deployment.pairing.b.name):
        deployment.start_path_probes(edge)
        degraded = journal = None
        if args.resilient:
            from .resilience import (
                ControllerJournal,
                DegradedModeConfig,
                RttFallbackEstimator,
            )

            estimator = RttFallbackEstimator.for_deployment(deployment, edge)
            estimator.start()
            degraded = DegradedModeConfig(
                estimates=estimator.estimates, horizon_s=0.5
            )
            journal = ControllerJournal()
        controllers[edge] = deployment.start_controller(
            edge,
            LowestDelaySelector(deployment.gateway(edge).outbound, window_s=1.0),
            interval_s=0.1,
            staleness_s=0.5,
            quarantine=QuarantinePolicy(),
            degraded=degraded,
            journal=journal,
        )

    # Background data stream per edge: reroute timings are about user
    # traffic, and the selector only records choices for packets it sees.
    for edge in (deployment.pairing.a.name, deployment.pairing.b.name):
        peer = deployment.pairing.peer_of(edge)
        factory = PacketFactory(
            src=str(deployment.pairing.edge(edge).host_address(4)),
            dst=str(peer.host_address(4)),
            flow_label=9,
        )
        send = deployment.sender_for(edge)
        deployment.sim.call_every(0.02, lambda f=factory, s=send: s(f.build()))

    injector = FaultInjector(deployment, plan)
    try:
        injector.arm()
    except ValueError as exc:
        print(
            f"tango-repro: cannot arm fault plan {plan.name!r}: {exc}",
            file=sys.stderr,
        )
        return 2
    horizon = (
        args.duration if args.duration is not None else plan.horizon + 10.0
    )
    deployment.net.run(until=horizon)

    log = RecoveryLog.build(plan, controllers)
    text = log.format(controllers if args.transitions else None)
    sys.stdout.write(text)
    if args.out and not _write_out(args.out, text):
        return 2
    return 0


def cmd_faults_campaign(args: argparse.Namespace) -> int:
    from .campaign import run_campaign, run_correlated_campaign

    if args.plans < 1:
        print("tango-repro: --plans must be >= 1", file=sys.stderr)
        return 2
    if args.workers < 1:
        print("tango-repro: --workers must be >= 1", file=sys.stderr)
        return 2
    if args.correlated:
        report = run_correlated_campaign(
            args.plans, args.seed, workers=args.workers
        )
    else:
        report = run_campaign(args.plans, args.seed, workers=args.workers)
    gates = report.gates
    print(
        f"{report.experiment} chaos campaign: {len(report.results)} plans, "
        f"seed {report.master_seed}, {report.workers} worker(s), "
        f"{report.shard_retries} shard retries"
    )
    if args.correlated:
        print(
            f"  defended switchover median "
            f"{gates['defended_switchover_median_s']} s "
            f"(budget {gates['switchover_budget_s']} s), "
            f"frr switchovers {gates['frr_switchovers_total']}, "
            f"two-group availability slo "
            f"{gates['availability_two_group_slo']}"
        )
    else:
        print(
            f"  defended regret median "
            f"{gates['defended_regret_median_ms']} ms "
            f"(budget {gates['regret_budget_ms']} ms), "
            f"mttr median {gates['mttr_median_s']} s "
            f"(slo {gates['mttr_slo_s']} s)"
        )
    for failure in report.failures:
        print(f"  GATE FAIL: {failure}")
    if not _write_out(args.out, report.to_json()):
        return 2
    if not report.passed:
        return 1
    print(f"all {report.experiment} gates passed")
    return 0


def cmd_federation_run(args: argparse.Namespace) -> int:
    import json

    from .federation.experiment import run_federation_experiment

    if args.edges < 3:
        print(
            f"tango-repro: --edges must be >= 3 (a relay needs a third "
            f"member), got {args.edges}",
            file=sys.stderr,
        )
        return 2

    report = run_federation_experiment(
        args.edges, seed=args.seed, smoke=args.smoke
    )

    cache = report["snapshot_cache"]
    baseline = report["independent_baseline"]
    print(
        f"establishment: {report['established_pairs']}/{report['pairs']} "
        f"pairs, shared cache hit rate {cache['hit_rate']:.2f} "
        f"({cache['hits']} hits / {cache['misses']} misses), "
        f"independent baseline {baseline['hit_rate']:.2f}"
    )
    degraded = report["degraded_pair"]
    print(
        f"stitched: {degraded['pair'][0]}->{degraded['pair'][1]} "
        f"({degraded['direct_routes']} direct) now {degraded['usable_routes']} "
        f"usable routes via relay {degraded['relay']} "
        f"[{degraded['stitched_label']}]"
    )
    reroute = report["reroute"]
    detected = (
        f"+{reroute['delay_s']:.2f}s (cause={reroute['cause']})"
        if reroute["detected_at"] is not None
        else "NOT DETECTED"
    )
    print(
        f"failover: relay killed at t={reroute['killed_at']:g} for "
        f"{reroute['kill_duration_s']:g}s, quarantined {detected}, "
        f"budget {reroute['budget_s']:.2f}s, "
        f"restored={reroute['restored_after_clear']}"
    )
    print(f"{'n':>3} {'routes/pair':>12} {'mean gain ms':>13} {'hit rate':>9}")
    for row in report["scaling"]:
        print(
            f"{row['n']:>3} {row['mean_routes_per_pair']:>12.1f} "
            f"{row['mean_gain_ms']:>13.3f} {row['snapshot_hit_rate']:>9.2f}"
        )

    if args.out and args.out != "-":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        if not _write_out(args.out, text):
            return 2

    failures = []
    if report["established_pairs"] != report["pairs"]:
        failures.append("establishment")
    if cache["hit_rate"] < 0.5 or cache["hit_rate"] <= baseline["hit_rate"]:
        failures.append("dedup")
    if degraded["usable_routes"] < 2:
        failures.append("stitched-rescue")
    if not reroute["within_budget"]:
        failures.append("reroute")
    if failures:
        print(
            f"tango-repro: federation gate(s) failed: {', '.join(failures)}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    import os

    from .lint import DEFAULT_BASELINE, list_rules, run_lint

    if args.list_rules:
        return list_rules()
    baseline = args.baseline
    if baseline is None and os.path.exists(DEFAULT_BASELINE):
        baseline = DEFAULT_BASELINE
    return run_lint(
        args.paths,
        fmt=args.format,
        select=args.select,
        baseline_path=baseline,
        write_baseline=args.write_baseline,
        plan_paths=args.plan,
        semantics=not args.no_semantics,
    )


def _float_options(parser: argparse.ArgumentParser) -> set[str]:
    """The option strings of every ``type=float`` flag, subcommands too."""
    options: set[str] = set()
    for action in parser._actions:
        if action.type is float:
            options.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for subparser in action.choices.values():
                options |= _float_options(subparser)
    return options


def _attach_signed_floats(argv: Sequence[str], options: set[str]) -> list[str]:
    """``--flag -inf`` as ``--flag=-inf`` for a float flag, so that the
    value reaches ``repro.validate`` and is refused there in one line."""
    attached: list[str] = []
    for arg in argv:
        if attached and attached[-1] in options and arg.lower() in _SIGNED_FLOAT_WORDS:
            attached[-1] = f"{attached[-1]}={arg}"
        else:
            attached.append(arg)
    return attached


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(_attach_signed_floats(argv, _float_options(parser)))
    if args.command == "discover":
        return cmd_discover()
    if args.command == "campaign":
        return cmd_campaign(args)
    if args.command == "failover":
        return cmd_failover(args)
    if args.command == "mesh":
        return cmd_mesh(args)
    if args.command == "figures":
        return cmd_figures(args)
    if args.command == "lint":
        return cmd_lint(args)
    if args.command == "faults":
        if args.faults_command == "run":
            return cmd_faults_run(args)
        if args.faults_command == "sample-plan":
            return cmd_faults_sample_plan()
        if args.faults_command == "campaign":
            return cmd_faults_campaign(args)
        raise AssertionError(f"unhandled faults command {args.faults_command!r}")
    if args.command == "federation":
        if args.federation_command == "run":
            return cmd_federation_run(args)
        raise AssertionError(
            f"unhandled federation command {args.federation_command!r}"
        )
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
