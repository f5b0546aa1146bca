"""Command-line interface: run FreeRider experiments without writing code.

    python -m repro run    --radio wifi --distances 1,10,20 --jobs 4
    python -m repro run    --spec-json spec.json --checkpoint sweep.jsonl
    python -m repro sweep  --radio wifi --deployment los --distances 1,10,20
    python -m repro mac    --tags 4,8,12,16,20 --rounds 100 --jobs 2
    python -m repro packet --radio zigbee --snr 15
    python -m repro regime
    python -m repro power
    python -m repro bench  # PHY micro-benchmarks -> BENCH_phy.json
    python -m repro lint   # project static analysis (reprolint)

    python -m repro corpus generate              # freeze IQ waveforms
    python -m repro corpus replay --report d.json  # diff vs frozen
    python -m repro corpus fuzz --iterations 200 --seed 7

    python -m repro serve  --root svc --port 8351        # sweep service
    python -m repro submit --radio zigbee --distances 2,6 --wait
    python -m repro status job-000001
    python -m repro fetch  job-000001

Spec-driven commands (``run``, ``submit``) accept either inline radio
flags or ``--spec-json`` — a versioned spec envelope
(:mod:`repro.sim.spec`): ``{"kind": "link"|"mac", "version": 1,
"spec": {...}}``.  ``sweep`` and ``mac`` remain as spec-builder
shorthands over the same execution path.

The flag surface is normalized across subcommands: ``--jobs``,
``--metrics-json``, ``--trace``, and ``--checkpoint`` are spelled and
behave identically everywhere they appear (``run``/``sweep``/``mac``
write them, ``report`` reads them back, ``bench`` writes
``--metrics-json``, ``submit --wait`` writes ``--metrics-json`` from
the fetched result).

Robustness and observability flags (run/sweep/mac):

* ``--failure-policy degrade`` finishes the sweep even when points
  fail (flagged in the table/record instead of aborting), with
  ``--retries`` attempts per point and ``--task-timeout`` seconds per
  attempt;
* ``--checkpoint sweep.jsonl`` journals completed points so a killed
  run resumes bit-identically;
* ``--metrics-json PATH`` (or ``-`` for stdout) writes per-stage PHY
  latency histograms, retry counters, and per-task records;
* ``--metrics-prom PATH`` writes the same aggregates in Prometheus
  text exposition format;
* ``--trace PATH`` writes a JSONL trace (spans, retry/requeue events,
  sampled per-packet decode forensics) keyed by the spec fingerprint,
  with ``--trace-every-n`` / ``--trace-failures-only`` sampling knobs;
* ``repro report`` renders a finished run (metrics record + trace +
  checkpoint journal) into a text or markdown report.

Service commands (``serve``/``submit``/``status``/``fetch``) talk to
the persistent sweep service (:mod:`repro.service`): submissions are
deduplicated by spec fingerprint against a content-addressed result
store, so an identical spec submitted twice returns the cached,
bit-identical result without running the engine.  ``--url`` defaults
to ``$REPRO_SERVICE_URL`` or ``http://127.0.0.1:8351``.

Radio choices come from the session registry
(:mod:`repro.core.registry`) and the calibrated config table, so a
newly registered radio appears here without touching this module.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Dict, List, Optional

from repro.channel.geometry import Deployment
from repro.core.registry import create_session, registered_radios
from repro.sim.config import config_by_name, config_names
from repro.sim.results import format_table

__all__ = ["main", "build_parser"]


def _parse_floats(text: str) -> List[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad number list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def _parse_ints(text: str) -> List[int]:
    return [int(v) for v in _parse_floats(text)]


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


# -- normalized shared flags ----------------------------------------------
# One definition per shared flag: every subcommand that offers --jobs,
# --metrics-json, --trace, or --checkpoint registers it from this table,
# so spelling, type and metavar cannot drift between subcommands.  Help
# text may be overridden where the flag is an input rather than an
# output (repro report), but never the rest.

_SHARED_FLAGS: Dict[str, Dict[str, Any]] = {
    "jobs": {
        "flag": "--jobs",
        "kwargs": {"type": _positive_int, "default": 1,
                   "help": "worker processes (results are identical "
                           "for any value)"},
    },
    "metrics-json": {
        "flag": "--metrics-json",
        "kwargs": {"metavar": "PATH", "default": None,
                   "help": "write stage histograms / retry counters / "
                           "task records as JSON ('-' for stdout)"},
    },
    "trace": {
        "flag": "--trace",
        "kwargs": {"metavar": "PATH", "default": None,
                   "help": "write a JSONL trace (spans, retry events, "
                           "sampled per-packet forensics) keyed by the "
                           "spec fingerprint"},
    },
    "checkpoint": {
        "flag": "--checkpoint",
        "kwargs": {"metavar": "PATH", "default": None,
                   "help": "JSONL journal of completed points; an "
                           "interrupted run resumes from it "
                           "bit-identically"},
    },
}


def _add_shared(parser: argparse.ArgumentParser, name: str,
                **overrides: Any) -> None:
    entry = _SHARED_FLAGS[name]
    kwargs = dict(entry["kwargs"])
    kwargs.update(overrides)
    parser.add_argument(entry["flag"], **kwargs)


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    _add_shared(parser, "jobs")
    parser.add_argument("--json", action="store_true",
                        help="emit a JSON record (points + timing) "
                             "instead of a table")
    parser.add_argument("--failure-policy", choices=["fail-fast", "degrade"],
                        default="fail-fast",
                        help="abort on the first exhausted point, or "
                             "flag it and finish the sweep")
    parser.add_argument("--retries", type=_positive_int, default=1,
                        metavar="N",
                        help="attempts per point (retries reuse the "
                             "point's seed, so results are unchanged)")
    parser.add_argument("--task-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-attempt time limit")
    _add_shared(parser, "checkpoint")
    _add_shared(parser, "metrics-json")
    parser.add_argument("--metrics-prom", metavar="PATH", default=None,
                        help="write the same counters/histograms/spans in "
                             "Prometheus text exposition format")
    _add_shared(parser, "trace")
    parser.add_argument("--trace-every-n", type=_positive_int, default=1,
                        metavar="N",
                        help="sample every Nth packet event (default: "
                             "all); stage counters stay exact")
    parser.add_argument("--trace-failures-only", action="store_true",
                        help="only record packet events for failed "
                             "decode stages")


def _add_link_spec_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--radio", default="wifi", choices=config_names())
    parser.add_argument("--deployment", default="los",
                        choices=["los", "nlos"])
    parser.add_argument("--distances", type=_parse_floats,
                        default=[1, 5, 10, 20, 30, 40])
    parser.add_argument("--packets", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--payload-bytes", type=int, default=None,
                        help="override the calibrated excitation payload")
    parser.add_argument("--repetition", type=int, default=None,
                        help="override the calibrated symbol repetition")


def _add_spec_source(parser: argparse.ArgumentParser) -> None:
    """Flags that select *what* to run: an enveloped spec file, or the
    inline link/MAC builder flags."""
    parser.add_argument("--spec-json", metavar="PATH", default=None,
                        help="read a versioned spec envelope "
                             '({"kind","version","spec"}) from PATH '
                             "('-' for stdin); overrides the inline "
                             "spec flags")
    _add_link_spec_options(parser)
    parser.add_argument("--mac", action="store_true",
                        help="build a MAC tag-count sweep instead of a "
                             "link distance sweep")
    parser.add_argument("--tags", type=_parse_ints,
                        default=[4, 8, 12, 16, 20],
                        help="tag counts for --mac")
    parser.add_argument("--rounds", type=int, default=100,
                        help="simulated rounds for --mac")


def _add_url_option(parser: argparse.ArgumentParser) -> None:
    from repro.service.client import DEFAULT_URL

    parser.add_argument("--url", metavar="URL",
                        default=os.environ.get("REPRO_SERVICE_URL",
                                               DEFAULT_URL),
                        help="sweep service base URL (default: "
                             "$REPRO_SERVICE_URL or %(default)s)")


# -- spec construction and execution (shared by run/sweep/mac/submit) -----

def _link_spec_from_args(args: argparse.Namespace):
    from repro.sim.engine import ExperimentSpec

    cfg = config_by_name(args.radio)
    overrides = {}
    if args.payload_bytes is not None:
        overrides["payload_bytes"] = args.payload_bytes
    if args.repetition is not None:
        overrides["repetition"] = args.repetition
    if overrides:
        cfg = cfg.replace(**overrides)
    dep = (Deployment.los(1.0) if args.deployment == "los"
           else Deployment.nlos(1.0))
    return ExperimentSpec(config=cfg, deployment=dep,
                          distances_m=tuple(args.distances),
                          packets_per_point=args.packets, seed=args.seed)


def _mac_spec_from_args(args: argparse.Namespace):
    from repro.sim.engine import MacExperimentSpec

    return MacExperimentSpec(tag_counts=tuple(args.tags),
                             measured_rounds=12,
                             simulated_rounds=args.rounds,
                             seed=args.seed)


def _spec_from_args(args: argparse.Namespace):
    """Build the spec a ``run``/``submit`` invocation describes."""
    if args.spec_json is not None:
        from repro.sim.spec import loads_spec

        text = (sys.stdin.read() if args.spec_json == "-"
                else open(args.spec_json).read())
        return loads_spec(text)
    if args.mac:
        return _mac_spec_from_args(args)
    return _link_spec_from_args(args)


def _run_options_from_args(args: argparse.Namespace):
    """The engine's :class:`~repro.sim.engine.RunOptions` for a
    run/sweep/mac invocation — the CLI half of the shared
    run-orchestration layer."""
    from repro.obs import TraceConfig
    from repro.sim.engine import FailurePolicy, RunOptions

    policy = FailurePolicy(mode=args.failure_policy.replace("-", "_"),
                           max_attempts=args.retries,
                           timeout_s=args.task_timeout)
    trace = None
    if (args.trace is not None or args.trace_every_n != 1
            or args.trace_failures_only):
        trace = TraceConfig(every_n=args.trace_every_n,
                            failures_only=args.trace_failures_only)
    return RunOptions(n_jobs=args.jobs, failure_policy=policy, trace=trace,
                      checkpoint=args.checkpoint, trace_path=args.trace)


def _emit_metrics(result, dest: Optional[str],
                  prom_dest: Optional[str] = None) -> None:
    """Write a run's metrics record to *dest* ('-' = stdout)."""
    if prom_dest is not None:
        from repro.obs import prometheus_text

        with open(prom_dest, "w") as fh:
            fh.write(prometheus_text(result.metrics))
    if dest is None:
        return
    import json

    payload = {
        "metrics": result.metrics,
        "tasks": [t.to_dict() for t in result.tasks],
        "timing": {
            "wall_time_s": result.wall_time_s,
            "n_jobs": result.n_jobs,
            "n_tasks": result.n_tasks,
            "n_failed": result.n_failed,
            "packets_simulated": result.packets_simulated,
            "packets_per_second": result.packets_per_second,
        },
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if dest == "-":
        print(text)
    else:
        with open(dest, "w") as fh:
            fh.write(text + "\n")


def _print_result_table(result, title: str) -> None:
    """Render a finished RunResult as the classic results table."""
    from repro.sim.engine import MacExperimentSpec

    rows = []
    if isinstance(result.spec, MacExperimentSpec):
        for record, p in zip(result.tasks, result.points):
            if p is None:  # degraded point: flagged, not dropped
                rows.append([record.task, f"FAILED ({record.status})",
                             "n/a", "n/a", "n/a"])
                continue
            rows.append([p.n_tags, p.measured_kbps, p.simulated_kbps,
                         p.tdm_kbps, p.fairness])
        print(format_table(
            ["tags", "measured (kb/s)", "simulated (kb/s)", "TDM bound",
             "fairness"], rows, title=title))
        return
    for record, p in zip(result.tasks, result.points):
        if p is None:  # degraded point: flagged, not dropped
            rows.append([record.task, f"FAILED ({record.status})", "n/a",
                         "n/a", "n/a"])
            continue
        rows.append([p.distance_m, p.throughput_kbps,
                     p.ber if p.ber_valid else "n/a", p.rssi_dbm,
                     p.delivery_ratio])
    print(format_table(
        ["distance (m)", "throughput (kb/s)", "tag BER", "RSSI (dBm)",
         "delivery"], rows, title=title))


def _execute_spec(args: argparse.Namespace, spec, title: str) -> int:
    """Run one spec through the shared orchestration layer and report."""
    from repro.sim.engine import execute_run

    result = execute_run(spec, _run_options_from_args(args))
    _emit_metrics(result, args.metrics_json, args.metrics_prom)
    if args.json:
        print(result.to_json(indent=2))
        return 0 if result.ok else 2
    _print_result_table(result, title)
    return 0 if result.ok else 2


# -- parser ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FreeRider (CoNEXT'17) reproduction experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run one spec (inline flags or --spec-json envelope)")
    _add_spec_source(run)
    _add_engine_options(run)

    sweep = sub.add_parser("sweep", help="distance sweep (Figures 10-13)")
    _add_link_spec_options(sweep)
    _add_engine_options(sweep)

    packet = sub.add_parser("packet", help="one end-to-end packet")
    packet.add_argument("--radio", default="wifi",
                        choices=registered_radios())
    packet.add_argument("--snr", type=float, default=20.0)
    packet.add_argument("--seed", type=int, default=0)

    mac = sub.add_parser("mac", help="multi-tag MAC (Figure 17)")
    mac.add_argument("--tags", type=_parse_ints, default=[4, 8, 12, 16, 20])
    mac.add_argument("--rounds", type=int, default=100)
    mac.add_argument("--seed", type=int, default=0)
    _add_engine_options(mac)

    sub.add_parser("regime", help="operational regime (Figure 14)")
    sub.add_parser("power", help="tag power budget (section 3.3)")

    bench = sub.add_parser(
        "bench", help="PHY micro-benchmarks (scalar vs batched kernels)")
    bench.add_argument("--smoke", action="store_true",
                       help="reduced work sizes for CI (seconds, not "
                            "minutes; tracked separately in the history)")
    bench.add_argument("--repeats", type=_positive_int, default=None,
                       help="timed repeats per kernel (default 3; best "
                            "of N is reported)")
    bench.add_argument("--history", metavar="PATH", default="BENCH_phy.json",
                       help="perf-trajectory file to append to and "
                            "compare against (default: %(default)s)")
    bench.add_argument("--tolerance", type=float, default=0.20,
                       help="fractional slowdown vs the previous "
                            "comparable run that counts as a regression "
                            "(default: %(default)s)")
    bench.add_argument("--no-history", action="store_true",
                       help="measure and print only; skip the history "
                            "file entirely")
    bench.add_argument("--require-batch-wins", action="store_true",
                       help="exit 5 unless the batched packet loop is at "
                            "least as fast as the scalar loop on every "
                            "radio")
    _add_shared(bench, "metrics-json",
                help="write the kernel timings / speedups record as "
                     "JSON ('-' for stdout)")

    report = sub.add_parser(
        "report", help="render a finished run (metrics record, trace "
                       "file, checkpoint journal) as text or markdown")
    _add_shared(report, "metrics-json",
                help="record written by a run's --metrics-json")
    _add_shared(report, "trace",
                help="JSONL trace written by a run's --trace")
    _add_shared(report, "checkpoint",
                help="checkpoint journal for the per-point "
                     "stage breakdown")
    report.add_argument("--format", dest="format",
                        choices=["text", "markdown"], default="text")
    report.add_argument("--top", type=_positive_int, default=10,
                        help="spans shown in the slowest-spans table "
                             "(default: %(default)s)")
    report.add_argument("-o", "--output", metavar="PATH", default=None,
                        help="write the report here instead of stdout")

    serve = sub.add_parser(
        "serve", help="run the persistent sweep service (job queue + "
                      "result cache + HTTP API)")
    serve.add_argument("--root", metavar="DIR", default=".repro-service",
                       help="durable state directory: queue journal, "
                            "result store, checkpoints (default: "
                            "%(default)s)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8351)
    _add_shared(serve, "jobs",
                help="engine worker processes per job")
    serve.add_argument("--workers", type=_positive_int, default=1,
                       help="concurrent job worker threads")
    serve.add_argument("--failure-policy", choices=["fail-fast", "degrade"],
                       default="fail-fast")
    serve.add_argument("--retries", type=_positive_int, default=1,
                       metavar="N")
    serve.add_argument("--task-timeout", type=float, default=None,
                       metavar="SECONDS")
    serve.add_argument("--verbose", action="store_true",
                       help="log one line per HTTP request to stderr")

    submit = sub.add_parser(
        "submit", help="submit a spec to a running sweep service "
                       "(deduplicated by spec fingerprint)")
    _add_spec_source(submit)
    _add_url_option(submit)
    submit.add_argument("--wait", action="store_true",
                        help="poll until the job finishes, then print "
                             "the result")
    submit.add_argument("--follow", action="store_true",
                        help="stream live progress rows while the job "
                             "runs, then print the result (implies "
                             "--wait)")
    submit.add_argument("--timeout", type=float, default=300.0,
                        metavar="SECONDS",
                        help="--wait budget (default: %(default)s)")
    submit.add_argument("--json", action="store_true",
                        help="emit the job record (and with --wait the "
                             "result record) as JSON")
    _add_shared(submit, "metrics-json",
                help="with --wait: write the fetched result's metrics "
                     "record as JSON ('-' for stdout), exactly like "
                     "run's --metrics-json")

    top = sub.add_parser(
        "top", help="live dashboard for a running sweep service "
                    "(queue, jobs, progress bars, latency percentiles)")
    _add_url_option(top)
    top.add_argument("--once", action="store_true",
                     help="render one frame and exit (no screen "
                          "clearing; what tests and CI capture)")
    top.add_argument("--interval", type=float, default=1.0,
                     metavar="SECONDS",
                     help="refresh period (default: %(default)s)")

    status = sub.add_parser(
        "status", help="show one job's state (or list all jobs)")
    status.add_argument("job_id", nargs="?", default=None,
                        help="job id from submit; omit to list every job")
    _add_url_option(status)
    status.add_argument("--json", action="store_true")

    fetch = sub.add_parser(
        "fetch", help="download a completed job's result")
    fetch.add_argument("job_id", help="job id from submit")
    _add_url_option(fetch)
    fetch.add_argument("--json", action="store_true",
                       help="emit the full stored record instead of the "
                            "results table")
    fetch.add_argument("-o", "--output", metavar="PATH", default=None,
                       help="write the stored record's exact bytes here")

    corpus = sub.add_parser(
        "corpus", help="frozen IQ capture corpus (generate/replay/fuzz)")
    corpus_sub = corpus.add_subparsers(dest="corpus_command", required=True)

    def _add_corpus_dir(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dir", dest="corpus_dir", metavar="PATH",
                       default=None,
                       help="corpus directory (default: the committed "
                            "tests/phy/corpus)")

    cgen = corpus_sub.add_parser(
        "generate", help="freeze the impairment-grid waveforms")
    _add_corpus_dir(cgen)
    cgen.add_argument("--radios", metavar="A,B", default=None,
                      help="comma-separated radios (default: all)")

    crep = corpus_sub.add_parser(
        "replay", help="decode every capture, diff against expectations")
    _add_corpus_dir(crep)
    crep.add_argument("--mode", choices=["scalar", "batched", "both"],
                      default="both",
                      help="receiver path(s) to exercise (default both)")
    crep.add_argument("--report", metavar="PATH", default=None,
                      help="write the JSON diff report here (CI artifact)")

    cfuzz = corpus_sub.add_parser(
        "fuzz", help="seeded mutation fuzz of the decode seam")
    _add_corpus_dir(cfuzz)
    cfuzz.add_argument("--iterations", type=_positive_int, default=200,
                       help="mutations per radio (default 200)")
    cfuzz.add_argument("--seed", type=int, default=0,
                       help="fuzz seed (default 0)")
    cfuzz.add_argument("--radios", metavar="A,B", default=None,
                       help="comma-separated radios (default: all)")
    cfuzz.add_argument("--report", metavar="PATH", default=None,
                       help="write the JSON fuzz report here")

    lint = sub.add_parser(
        "lint", help="project static analysis (reprolint rules R001-R012)")
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files or directories "
                           "(default: src tests benchmarks examples)")
    lint.add_argument("--format", dest="format",
                      choices=["text", "json", "sarif"], default="text")
    lint.add_argument("--sarif", dest="sarif_path", metavar="PATH",
                      help="additionally write a SARIF 2.1.0 report")
    lint.add_argument("--show-suppressed", action="store_true",
                      help="also print suppressed findings")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalogue and exit")
    lint.add_argument("--no-cache", action="store_true",
                      help="disable the result cache")
    lint.add_argument("--changed", action="store_true",
                      help="only report findings in git-changed files")
    lint.add_argument("--stats", action="store_true",
                      help="print cache hit statistics")
    lint.add_argument("--update-baseline", action="store_true",
                      help="rewrite reprolint-baseline.json from "
                           "current findings")
    return parser


# -- one-shot commands -----------------------------------------------------

def _cmd_run(args) -> int:
    from repro.sim.engine import MacExperimentSpec

    spec = _spec_from_args(args)
    if isinstance(spec, MacExperimentSpec):
        title = "multi-tag MAC"
    else:
        title = (f"{spec.config.name} backscatter, "
                 f"{spec.deployment.name} deployment")
    return _execute_spec(args, spec, title)


def _cmd_sweep(args) -> int:
    spec = _link_spec_from_args(args)
    return _execute_spec(
        args, spec, f"{args.radio} backscatter, {args.deployment} deployment")


def _cmd_packet(args) -> int:
    session = create_session(args.radio, seed=args.seed)
    result = session.run_packet(snr_db=args.snr)
    print(f"radio={args.radio} snr={args.snr:.1f} dB: "
          f"delivered={result.delivered} "
          f"tag_bits={result.tag_bits_sent} "
          f"errors={result.tag_bit_errors} "
          f"ber={result.tag_ber:.2e} "
          f"airtime={result.duration_us:.0f} us")
    return 0 if result.delivered else 1


def _cmd_mac(args) -> int:
    spec = _mac_spec_from_args(args)
    return _execute_spec(args, spec, "multi-tag MAC")


def _cmd_regime(_args) -> int:
    configs = [config_by_name(r) for r in config_names()]
    rows = []
    for d_tx in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 4.5):
        rows.append([d_tx] + [c.budget().max_range_m(d_tx, c.sensitivity_dbm())
                              for c in configs])
    print(format_table(["tx-to-tag (m)"] + [c.name for c in configs], rows,
                       title="operational regime: max RX-to-tag distance (m)"))
    return 0


def _cmd_power(_args) -> int:
    from repro.tag.power import TagPowerModel

    model = TagPowerModel()
    rows = []
    for radio, shift in (("wifi", 20e6), ("zigbee", 5e6),
                         ("bluetooth", 2e6)):
        b = model.breakdown(radio, shift)
        rows.append([radio, shift / 1e6, b.clock_uw, b.rf_switch_uw,
                     b.control_uw, b.total_uw])
    print(format_table(
        ["radio", "shift (MHz)", "clock (uW)", "switch (uW)",
         "control (uW)", "total (uW)"], rows, title="tag power budget"))
    return 0


def _cmd_bench(args) -> int:
    from repro.bench import (
        compare_runs,
        format_report,
        load_history,
        require_batch_wins,
        run_benchmarks,
        update_history,
    )

    report = run_benchmarks(smoke=args.smoke, repeats=args.repeats)
    print(format_report(report))
    if args.metrics_json is not None:
        import json

        record = {"smoke": report.smoke,
                  "kernels": {r.name: r.to_dict() for r in report.results},
                  "speedups": report.speedups}
        text = json.dumps(record, indent=2, sort_keys=True)
        if args.metrics_json == "-":
            print(text)
        else:
            with open(args.metrics_json, "w") as fh:
                fh.write(text + "\n")
    violations = (require_batch_wins(report)
                  if args.require_batch_wins else [])
    if args.no_history:
        if violations:
            print("\nBATCH-WIN VIOLATION:", file=sys.stderr)
            for line in violations:
                print(f"  {line}", file=sys.stderr)
            return 5
        return 0
    history = load_history(args.history)
    notes: list = []
    regressions = compare_runs(history, report, tolerance=args.tolerance,
                               notes=notes)
    update_history(args.history, report)
    for line in notes:
        print(f"note: {line}")
    if regressions:
        print(f"\nPERF REGRESSION vs {args.history}:", file=sys.stderr)
        for line in regressions:
            print(f"  {line}", file=sys.stderr)
        return 4
    print(f"\nhistory: appended run #{len(history['runs']) + 1} "
          f"to {args.history} (no regressions)")
    if violations:
        print("\nBATCH-WIN VIOLATION:", file=sys.stderr)
        for line in violations:
            print(f"  {line}", file=sys.stderr)
        return 5
    return 0


def _cmd_report(args) -> int:
    from repro.obs.report import (
        load_journal_rows,
        load_metrics_record,
        render_report,
    )
    from repro.obs.trace import read_trace

    if not (args.metrics_json or args.trace or args.checkpoint):
        print("error: report needs at least one of --metrics-json, "
              "--trace, --checkpoint", file=sys.stderr)
        return 2
    record = (load_metrics_record(args.metrics_json)
              if args.metrics_json else None)
    trace = read_trace(args.trace) if args.trace else None
    journal = (load_journal_rows(args.checkpoint)
               if args.checkpoint else None)
    text = render_report(record, trace, journal,
                         fmt=args.format, top=args.top)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


# -- service commands ------------------------------------------------------

def _cmd_serve(args) -> int:
    from repro.service import SweepService
    from repro.service.http import serve
    from repro.sim.engine import FailurePolicy

    policy = FailurePolicy(mode=args.failure_policy.replace("-", "_"),
                           max_attempts=args.retries,
                           timeout_s=args.task_timeout)
    service = SweepService(args.root, n_jobs=args.jobs,
                           n_workers=args.workers, failure_policy=policy)
    print(f"sweep service: root={args.root} "
          f"listening on http://{args.host}:{args.port} "
          f"(jobs={args.jobs}, workers={args.workers})", flush=True)
    serve(service, host=args.host, port=args.port, verbose=args.verbose)
    return 0


def _print_job(job: Dict[str, Any]) -> None:
    line = (f"{job['job_id']}  state={job['state']}"
            f"{' (cached)' if job.get('cached') else ''}  "
            f"spec={job['fingerprint']}")
    if job.get("error"):
        line += f"  error={job['error']}"
    if "stage_counts" in job:
        stages = ", ".join(f"{k}={v}" for k, v in
                           sorted(job["stage_counts"].items()))
        line += f"\n  forensics: {stages or 'none'}"
    print(line)


def _render_progress_row(row: Dict[str, Any]) -> str:
    """One human line per progress-journal row (submit --follow)."""
    kind = row.get("kind")
    if kind == "run_start":
        line = (f"run started: {row.get('n_tasks', '?')} tasks, "
                f"n_jobs={row.get('n_jobs', '?')}")
        if row.get("n_resumed"):
            line += f", {row['n_resumed']} resumed from checkpoint"
        return line
    if kind == "task":
        line = (f"  [{row.get('tasks_done', '?')}/{row.get('n_tasks', '?')}]"
                f" task {row.get('index', '?')}: {row.get('status', '?')}")
        duration = row.get("duration_s")
        if duration is not None:
            line += f" ({float(duration) * 1e3:.1f} ms)"
        if row.get("resumed"):
            line += " [resumed]"
        return line
    if kind == "run_end":
        return (f"run finished: {row.get('tasks_done', '?')}/"
                f"{row.get('n_tasks', '?')} tasks, "
                f"{'ok' if row.get('ok') else 'FAILED'}")
    return f"  {row}"


def _cmd_submit(args) -> int:
    import json

    from repro.service.client import ServiceClient

    spec = _spec_from_args(args)
    client = ServiceClient(args.url)
    job = client.submit(spec)
    if not (args.wait or args.follow):
        if args.json:
            print(json.dumps(job, indent=2, sort_keys=True))
        else:
            _print_job(job)
        return 0
    if args.follow:
        if job.get("cached"):
            print("cache hit: no progress stream (the job never ran)")
        else:
            for row in client.follow(job["job_id"], timeout_s=args.timeout):
                print(_render_progress_row(row), flush=True)
        status = client.status(job["job_id"])
    else:
        status = client.wait(job["job_id"], timeout_s=args.timeout)
    if status["state"] != "done":
        _print_job(status)
        return 2
    result = client.fetch(job["job_id"])
    _emit_metrics(result, args.metrics_json)
    if args.json:
        print(json.dumps(client.fetch_record(job["job_id"]),
                         indent=2, sort_keys=True))
        return 0
    _print_job(status)
    _print_result_table(result, f"job {job['job_id']} "
                                f"(spec {job['fingerprint']})")
    return 0


def _cmd_top(args) -> int:
    from repro.service.top import run_top

    return run_top(args.url, once=args.once, interval_s=args.interval)


def _cmd_status(args) -> int:
    import json

    from repro.service.client import ServiceClient

    client = ServiceClient(args.url)
    if args.job_id is None:
        jobs = client.jobs()
        if args.json:
            print(json.dumps(jobs, indent=2, sort_keys=True))
        else:
            for job in jobs:
                _print_job(job)
        return 0
    status = client.status(args.job_id)
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
    else:
        _print_job(status)
    return 0 if status.get("state") != "failed" else 2


def _cmd_fetch(args) -> int:
    import json

    from repro.service.client import ServiceClient

    client = ServiceClient(args.url)
    if args.output is not None:
        raw = client.fetch_raw(args.job_id)
        with open(args.output, "wb") as fh:
            fh.write(raw)
        print(f"wrote {len(raw)} bytes to {args.output}")
        return 0
    if args.json:
        print(json.dumps(client.fetch_record(args.job_id),
                         indent=2, sort_keys=True))
        return 0
    status = client.status(args.job_id)
    result = client.fetch(args.job_id)
    _print_result_table(result, f"job {args.job_id} "
                                f"(spec {status['fingerprint']})")
    return 0


def _cmd_lint(args) -> int:
    from repro.tools.lint import main as lint_main

    argv: List[str] = []
    for flag in ("list_rules", "show_suppressed", "no_cache", "changed",
                 "stats", "update_baseline"):
        if getattr(args, flag):
            argv.append("--" + flag.replace("_", "-"))
    if args.sarif_path:
        argv += ["--sarif", args.sarif_path]
    argv += ["--format", args.format]
    argv += list(args.paths)
    return lint_main(argv)


def _cmd_corpus(args) -> int:
    import json as json_mod
    from pathlib import Path

    from repro.iq.corpus import default_corpus_dir, generate_corpus
    from repro.iq.format import IQFormatError

    directory = (Path(args.corpus_dir) if args.corpus_dir
                 else default_corpus_dir())
    try:
        if args.corpus_command == "generate":
            radios = (args.radios.split(",") if args.radios else None)
            names = generate_corpus(directory, radios=radios)
            print(f"wrote {len(names)} captures to {directory}")
            return 0
        if args.corpus_command == "replay":
            from repro.iq.replay import MODES, replay_corpus

            modes = MODES if args.mode == "both" else (args.mode,)
            report = replay_corpus(directory, modes=modes)
            if args.report:
                Path(args.report).write_text(
                    json_mod.dumps(report.to_dict(), indent=2) + "\n")
            print(f"replayed {report.entries} captures "
                  f"({report.decodes} decodes): "
                  f"{'ok' if report.ok else f'{len(report.diffs)} diffs'}")
            for diff in report.diffs:
                print(f"  {diff.name} [{diff.mode}] {diff.field}: "
                      f"expected {diff.expected!r}, got {diff.actual!r}",
                      file=sys.stderr)
            return 0 if report.ok else 6
        from repro.iq.fuzz import fuzz_corpus

        radios = (args.radios.split(",") if args.radios else None)
        report_f = fuzz_corpus(directory, iterations=args.iterations,
                               seed=args.seed, radios=radios)
        if args.report:
            Path(args.report).write_text(
                json_mod.dumps(report_f.to_dict(), indent=2) + "\n")
        total = sum(report_f.iterations.values())
        print(f"fuzzed {total} iterations over "
              f"{len(report_f.iterations)} radios (seed {args.seed}): "
              f"{'ok' if report_f.ok else f'{len(report_f.violations)} violations'}")
        for violation in report_f.violations:
            print(f"  {violation.radio}/{violation.base} "
                  f"i={violation.iteration} [{violation.mode}] "
                  f"{'+'.join(violation.mutations)}: {violation.error}",
                  file=sys.stderr)
        return 0 if report_f.ok else 6
    except IQFormatError as exc:
        print(f"error: corpus format: {exc}", file=sys.stderr)
        print("hint: regenerate the corpus with `repro corpus generate`",
              file=sys.stderr)
        return 2


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "packet": _cmd_packet,
    "mac": _cmd_mac,
    "regime": _cmd_regime,
    "power": _cmd_power,
    "bench": _cmd_bench,
    "report": _cmd_report,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "top": _cmd_top,
    "status": _cmd_status,
    "fetch": _cmd_fetch,
    "corpus": _cmd_corpus,
    "lint": _cmd_lint,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    import urllib.error

    from repro.sim.engine import TaskFailure

    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except TaskFailure as exc:
        # fail-fast policy: surface the failed point and a hint.
        print(f"error: {exc}", file=sys.stderr)
        print("hint: rerun with --failure-policy degrade to finish the "
              "sweep with failed points flagged, or --retries N to retry",
              file=sys.stderr)
        return 3
    except urllib.error.URLError as exc:
        print(f"error: cannot reach the sweep service: {exc}",
              file=sys.stderr)
        print("hint: start one with `repro serve`, or point --url / "
              "$REPRO_SERVICE_URL at a running instance", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
