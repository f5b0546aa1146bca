"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.radio == "wifi"
        assert args.deployment == "los"

    def test_distance_list_parsing(self):
        args = build_parser().parse_args(["sweep", "--distances", "1,5,10"])
        assert args.distances == [1.0, 5.0, 10.0]

    def test_bad_distance_list_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--distances", "a,b"])

    def test_unknown_radio_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--radio", "lora"])


class TestCommands:
    def test_packet_wifi(self, capsys):
        code = main(["packet", "--radio", "wifi", "--snr", "20",
                     "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "delivered=True" in out

    def test_packet_exit_code_on_loss(self, capsys):
        code = main(["packet", "--radio", "bluetooth", "--snr", "-15",
                     "--seed", "1"])
        assert code == 1

    def test_power(self, capsys):
        assert main(["power"]) == 0
        out = capsys.readouterr().out
        assert "19.00" in out and "12.00" in out

    def test_regime(self, capsys):
        assert main(["regime"]) == 0
        out = capsys.readouterr().out
        assert "wifi" in out and "bluetooth" in out

    def test_mac(self, capsys):
        assert main(["mac", "--tags", "4", "--rounds", "20",
                     "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "fairness" in out

    def test_sweep_zigbee(self, capsys):
        assert main(["sweep", "--radio", "zigbee", "--distances", "2,6",
                     "--packets", "2", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "zigbee backscatter" in out


class TestEngineOptions:
    def test_packet_radio_choices_come_from_registry(self):
        from repro.core.registry import registered_radios

        parser = build_parser()
        for radio in registered_radios():
            args = parser.parse_args(["packet", "--radio", radio])
            assert args.radio == radio

    def test_sweep_jobs_output_is_worker_count_invariant(self, capsys):
        argv = ["sweep", "--radio", "zigbee", "--distances", "2,6",
                "--packets", "2", "--seed", "3"]
        assert main(argv + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_sweep_json_record(self, capsys):
        import json

        assert main(["sweep", "--radio", "zigbee", "--distances", "2",
                     "--packets", "2", "--seed", "3", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["spec"]["kind"] == "link_sweep"
        assert record["timing"]["n_jobs"] == 1
        assert record["timing"]["packets_simulated"] == 2
        assert record["timing"]["packets_per_second"] > 0
        assert len(record["points"]) == 1

    def test_mac_json_record(self, capsys):
        import json

        assert main(["mac", "--tags", "4", "--rounds", "10", "--seed", "2",
                     "--jobs", "2", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["spec"]["kind"] == "mac_sweep"
        assert record["timing"]["n_jobs"] == 2
        assert len(record["points"]) == 1

    def test_sweep_payload_override(self, capsys):
        assert main(["sweep", "--radio", "bluetooth", "--distances", "2",
                     "--packets", "1", "--seed", "1",
                     "--payload-bytes", "60", "--repetition", "18"]) == 0
        assert "bluetooth backscatter" in capsys.readouterr().out


class TestRobustnessOptions:
    def test_failure_policy_flags_parse(self):
        args = build_parser().parse_args(
            ["sweep", "--failure-policy", "degrade", "--retries", "3",
             "--task-timeout", "2.5", "--checkpoint", "ckpt.jsonl",
             "--metrics-json", "-"])
        assert args.failure_policy == "degrade"
        assert args.retries == 3
        assert args.task_timeout == 2.5
        assert args.checkpoint == "ckpt.jsonl"
        assert args.metrics_json == "-"

    def test_zero_retries_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--retries", "0"])

    @pytest.mark.parametrize("radio,extra", [
        ("zigbee", []),
        ("wifi", ["--payload-bytes", "24"]),  # shrunk PSDU keeps it fast
    ])
    def test_metrics_json_emits_stage_timers(self, tmp_path, capsys,
                                             radio, extra):
        path = tmp_path / "metrics.json"
        assert main(["sweep", "--radio", radio, "--distances", "2",
                     "--packets", "1", "--seed", "3",
                     "--metrics-json", str(path)] + extra) == 0
        import json

        record = json.loads(path.read_text())
        counters = record["metrics"]["counters"]
        histograms = record["metrics"]["histograms"]
        assert "timers" not in record["metrics"]
        assert counters[f"phy.{radio}.packets"] == 1
        assert counters["engine.tasks.ok"] == 1
        for stage in ("engine.task", f"phy.{radio}.encode",
                      f"phy.{radio}.rng", f"phy.{radio}.channel",
                      f"phy.{radio}.decode"):
            assert histograms[f"{stage}.seconds"]["count"] > 0
        assert record["timing"]["n_failed"] == 0
        assert record["tasks"][0]["status"] == "ok"

    def test_metrics_json_to_stdout(self, capsys):
        assert main(["sweep", "--radio", "zigbee", "--distances", "2",
                     "--packets", "1", "--seed", "3",
                     "--metrics-json", "-"]) == 0
        out = capsys.readouterr().out
        assert '"engine.tasks.ok"' in out

    def test_mac_metrics_json(self, tmp_path):
        path = tmp_path / "metrics.json"
        assert main(["mac", "--tags", "4", "--rounds", "10", "--seed", "2",
                     "--metrics-json", str(path)]) == 0
        import json

        record = json.loads(path.read_text())
        assert record["metrics"]["counters"]["engine.tasks.ok"] == 1

    def test_checkpoint_resume_reproduces_table(self, tmp_path, capsys):
        path = tmp_path / "sweep.jsonl"
        argv = ["sweep", "--radio", "zigbee", "--distances", "2,6",
                "--packets", "2", "--seed", "3",
                "--checkpoint", str(path)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0  # all points come from the journal
        assert capsys.readouterr().out == cold


class TestTracingOptions:
    def test_trace_flags_parse(self):
        args = build_parser().parse_args(
            ["sweep", "--trace", "t.jsonl", "--trace-every-n", "4",
             "--trace-failures-only", "--metrics-prom", "m.prom"])
        assert args.trace == "t.jsonl"
        assert args.trace_every_n == 4
        assert args.trace_failures_only
        assert args.metrics_prom == "m.prom"

    def test_trace_file_written(self, tmp_path, capsys):
        import json

        path = tmp_path / "trace.jsonl"
        assert main(["sweep", "--radio", "zigbee", "--distances", "2",
                     "--packets", "2", "--seed", "3",
                     "--trace", str(path)]) == 0
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        kinds = {r["kind"] for r in records}
        assert {"span", "packet"} <= kinds
        assert all("spec" in r for r in records)

    def test_tracing_does_not_change_table(self, tmp_path, capsys):
        argv = ["sweep", "--radio", "zigbee", "--distances", "2,6",
                "--packets", "2", "--seed", "3"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--trace", str(tmp_path / "t.jsonl")]) == 0
        assert capsys.readouterr().out == plain

    def test_metrics_prom_written(self, tmp_path, capsys):
        path = tmp_path / "metrics.prom"
        assert main(["sweep", "--radio", "zigbee", "--distances", "2",
                     "--packets", "1", "--seed", "3",
                     "--metrics-prom", str(path)]) == 0
        text = path.read_text()
        assert "repro_engine_tasks_ok_total 1" in text
        assert "repro_phy_zigbee_packets_total 1" in text


class TestReportCommand:
    def test_report_without_inputs_exits_2(self, capsys):
        assert main(["report"]) == 2
        assert "at least one" in capsys.readouterr().err

    def _run_sweep(self, tmp_path, capsys, packets=3):
        paths = {name: tmp_path / name
                 for name in ("m.json", "trace.jsonl", "ck.jsonl")}
        assert main(["sweep", "--radio", "zigbee", "--distances", "2,30",
                     "--packets", str(packets), "--seed", "3",
                     "--metrics-json", str(paths["m.json"]),
                     "--trace", str(paths["trace.jsonl"]),
                     "--checkpoint", str(paths["ck.jsonl"])]) == 0
        capsys.readouterr()
        return paths

    def test_report_per_point_stages_sum_to_packet_count(self, tmp_path,
                                                         capsys):
        packets = 3
        paths = self._run_sweep(tmp_path, capsys, packets=packets)
        assert main(["report", "--metrics-json", str(paths["m.json"]),
                     "--trace", str(paths["trace.jsonl"]),
                     "--checkpoint", str(paths["ck.jsonl"])]) == 0
        out = capsys.readouterr().out
        assert "Per-point breakdown (checkpoint journal)" in out
        # Every point row's stage counts sum to packets_per_point,
        # shown in the trailing "total" column.
        section = out.split("Per-point breakdown")[1]
        rows = [line.split() for line in section.splitlines()
                if line and line[0].isdigit()]
        assert len(rows) == 2
        for row in rows:
            assert int(row[-1]) == packets

    def test_report_markdown_to_file(self, tmp_path, capsys):
        paths = self._run_sweep(tmp_path, capsys)
        out_path = tmp_path / "report.md"
        assert main(["report", "--metrics-json", str(paths["m.json"]),
                     "--format", "markdown", "-o", str(out_path)]) == 0
        text = out_path.read_text()
        assert text.startswith("# Run report")
        assert "| radio" in text

    def test_report_from_trace_only(self, tmp_path, capsys):
        paths = self._run_sweep(tmp_path, capsys)
        assert main(["report", "--trace", str(paths["trace.jsonl"]),
                     "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "Slowest spans" in out
        assert "Traced packets" in out


class TestUnifiedRun:
    """The `run` subcommand: one spec source, one execution path."""

    def test_run_inline_link_flags(self, capsys):
        assert main(["run", "--radio", "zigbee", "--distances", "2,6",
                     "--packets", "2", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "zigbee backscatter" in out
        assert "throughput" in out

    def test_run_mac_flag(self, capsys):
        assert main(["run", "--mac", "--tags", "4", "--rounds", "10",
                     "--seed", "2"]) == 0
        assert "fairness" in capsys.readouterr().out

    def test_run_spec_json_envelope(self, tmp_path, capsys):
        from repro.channel.geometry import Deployment
        from repro.sim.config import config_by_name
        from repro.sim.engine import ExperimentSpec
        from repro.sim.spec import dumps_spec

        spec = ExperimentSpec(config=config_by_name("zigbee"),
                              deployment=Deployment.los(1.0),
                              distances_m=(2.0,), packets_per_point=1,
                              seed=3)
        path = tmp_path / "spec.json"
        path.write_text(dumps_spec(spec))
        assert main(["run", "--spec-json", str(path)]) == 0
        assert "zigbee backscatter" in capsys.readouterr().out

    def test_run_matches_sweep_output(self, capsys):
        # `sweep` is a thin wrapper: same spec, same table.
        argv = ["--radio", "zigbee", "--distances", "2,6",
                "--packets", "2", "--seed", "3"]
        assert main(["sweep"] + argv) == 0
        via_sweep = capsys.readouterr().out.splitlines()[1:]  # skip title
        assert main(["run"] + argv) == 0
        via_run = capsys.readouterr().out.splitlines()[1:]
        assert via_run == via_sweep

    def test_run_shares_engine_flags(self):
        args = build_parser().parse_args(
            ["run", "--jobs", "2", "--metrics-json", "-",
             "--trace", "t.jsonl", "--checkpoint", "ck.jsonl",
             "--failure-policy", "degrade"])
        assert args.jobs == 2
        assert args.metrics_json == "-"
        assert args.trace == "t.jsonl"
        assert args.checkpoint == "ck.jsonl"


class TestDeprecatedAliases:
    """The removed old spellings stay gone; canonical flags are silent."""

    def test_aliases_hidden_from_help(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--help"])
        help_text = capsys.readouterr().out
        assert "--jobs" in help_text
        for hidden in ("--n-jobs", "--metrics ", "--trace-file",
                       "--resume"):
            assert hidden not in help_text
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--n-jobs", "3"])

    def test_canonical_spelling_is_silent(self, capsys):
        build_parser().parse_args(["sweep", "--jobs", "2",
                                   "--metrics-json", "m.json"])
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["run", "sweep", "mac", "bench",
                                         "submit"])
    def test_metrics_json_spelled_identically_everywhere(self, command):
        args = build_parser().parse_args([command, "--metrics-json", "-"])
        assert args.metrics_json == "-"


class TestBenchMetricsJson:
    def test_flag_parses(self):
        args = build_parser().parse_args(["bench", "--smoke",
                                          "--metrics-json", "-"])
        assert args.metrics_json == "-"
        assert args.smoke


class TestServiceSubcommands:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.root == ".repro-service"
        assert args.port == 8351
        assert args.workers == 1
        assert args.jobs == 1

    def test_submit_spec_flags_match_run(self):
        args = build_parser().parse_args(
            ["submit", "--radio", "zigbee", "--distances", "2,6",
             "--wait", "--timeout", "30"])
        assert args.radio == "zigbee"
        assert args.wait and args.timeout == 30.0

    def test_url_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_URL", "http://example:1234")
        args = build_parser().parse_args(["status"])
        assert args.url == "http://example:1234"

    def test_url_flag_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_URL", "http://example:1234")
        args = build_parser().parse_args(
            ["fetch", "job-000001", "--url", "http://other:9"])
        assert args.url == "http://other:9"

    def test_unreachable_service_exit_code(self, capsys):
        # Nothing listens on this port: exit 5 plus a hint, not a
        # traceback.
        code = main(["status", "--url", "http://127.0.0.1:9"])
        err = capsys.readouterr().err
        assert code == 5
        assert "repro serve" in err


class TestServiceRoundTripViaCli:
    """submit/status/fetch mains against a real in-process server."""

    @pytest.fixture
    def server(self, tmp_path):
        import threading

        from repro.service import ServiceHTTPServer, SweepService

        service = SweepService(tmp_path / "svc")
        http_server = ServiceHTTPServer(service, port=0)
        thread = threading.Thread(target=http_server.serve_forever,
                                  daemon=True)
        thread.start()
        service.start()
        try:
            yield http_server
        finally:
            http_server.shutdown()
            http_server.server_close()
            service.stop()
            thread.join(timeout=10)

    def test_submit_wait_status_fetch(self, server, capsys, tmp_path):
        import json

        argv = ["--radio", "zigbee", "--distances", "2,6",
                "--packets", "2", "--seed", "3", "--url", server.url]
        assert main(["submit"] + argv + ["--wait", "--timeout", "60"]) == 0
        out = capsys.readouterr().out
        assert "state=done" in out
        assert "throughput" in out  # the result table rides along

        # Duplicate submission: answered from the cache.
        assert main(["submit"] + argv + ["--json"]) == 0
        job = json.loads(capsys.readouterr().out)
        assert job["state"] == "done" and job["cached"]

        assert main(["status", job["job_id"], "--url", server.url]) == 0
        assert "(cached)" in capsys.readouterr().out

        out_path = tmp_path / "record.json"
        assert main(["fetch", job["job_id"], "--url", server.url,
                     "-o", str(out_path)]) == 0
        record = json.loads(out_path.read_text())
        assert record["fingerprint"] == job["fingerprint"]

    def test_submit_follow_streams_progress(self, server, capsys):
        argv = ["submit", "--radio", "zigbee", "--distances", "2,6",
                "--packets", "2", "--seed", "11", "--url", server.url,
                "--follow", "--timeout", "60"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "run started: 2 tasks" in out
        assert "[1/2] task 0: ok" in out
        assert "[2/2] task 1: ok" in out
        assert "run finished: 2/2 tasks, ok" in out
        assert "throughput" in out  # result table after the stream

    def test_submit_follow_cache_hit_has_no_stream(self, server, capsys):
        argv = ["--radio", "zigbee", "--distances", "2,6",
                "--packets", "2", "--seed", "12", "--url", server.url]
        assert main(["submit"] + argv + ["--wait", "--timeout", "60"]) == 0
        capsys.readouterr()
        assert main(["submit"] + argv + ["--follow",
                                         "--timeout", "60"]) == 0
        out = capsys.readouterr().out
        assert "cache hit: no progress stream" in out
        assert "run started" not in out
        assert "throughput" in out

    def test_top_once_renders_dashboard(self, server, capsys):
        assert main(["submit", "--radio", "zigbee", "--distances", "2,6",
                     "--packets", "2", "--seed", "13", "--url", server.url,
                     "--wait", "--timeout", "60"]) == 0
        capsys.readouterr()
        assert main(["top", "--once", "--url", server.url]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "queue: depth=0" in out
        assert "engine_task_seconds" in out

    def test_top_unreachable_service_exits_5(self, capsys):
        assert main(["top", "--once", "--url", "http://127.0.0.1:9"]) == 5
        assert "repro serve" in capsys.readouterr().err
