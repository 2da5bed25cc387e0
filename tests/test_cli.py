"""CLI tests: serve + query over a real socket, models, plan, observability."""

import json
import threading
import time

import pytest

from repro.cli import main


class TestModels:
    def test_lists_all_seven(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        for app in ("imc", "dig", "face", "asr", "pos", "chk", "ner"):
            assert app in out
        assert "AlexNet" in out and "DeepFace" in out


class TestPlan:
    def test_prints_capacity_and_tco(self, capsys):
        assert main(["plan"]) == 0
        out = capsys.readouterr().out
        assert "QPS/GPU" in out
        assert "cpu_only" in out and "disaggregated" in out


class TestServeAndQuery:
    @pytest.fixture
    def live_server(self):
        """Run `djinn serve` on a free port in a thread; stop it afterwards."""
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        thread = threading.Thread(
            target=main, args=(["serve", "--models", "dig,pos", "--port", str(port)],),
            daemon=True,
        )
        thread.start()
        # wait for the port to accept connections
        deadline = time.time() + 10
        while time.time() < deadline:
            try:
                socket.create_connection(("127.0.0.1", port), timeout=0.2).close()
                break
            except OSError:
                time.sleep(0.05)
        else:
            pytest.fail("server never came up")
        yield port
        from repro.core import DjinnClient
        DjinnClient("127.0.0.1", port).shutdown_server()
        thread.join(timeout=5)

    def test_query_dig(self, live_server, capsys):
        assert main(["query", "--port", str(live_server), "--app", "dig",
                     "--count", "3"]) == 0
        out = capsys.readouterr().out
        assert "predictions:" in out
        assert "dnn" in out

    def test_query_pos(self, live_server, capsys):
        assert main(["query", "--port", str(live_server), "--app", "pos"]) == 0
        out = capsys.readouterr().out
        assert "/" in out  # word/TAG pairs

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit, match="unknown model"):
            main(["serve", "--models", "bert"])

    def test_metrics_json_is_machine_readable(self, live_server, capsys):
        """`djinn metrics --json` emits the raw dump as parseable JSON."""
        assert main(["query", "--port", str(live_server), "--app", "dig",
                     "--count", "1"]) == 0
        capsys.readouterr()  # drop the query's human output
        assert main(["metrics", "--port", str(live_server), "--json"]) == 0
        dump = json.loads(capsys.readouterr().out)
        entry = dump["metrics"]["djinn_requests_total"]
        assert entry["type"] == "counter"
        assert any(s["labels"].get("model") == "dig"
                   for s in entry["samples"])

    def test_load_flag_serves_saved_models(self, tmp_path, capsys):
        """`djinn serve --load path=name` serves a save_net archive."""
        import socket

        from repro.core import DjinnClient
        from repro.models import senna
        from repro.nn import Net, save_net

        path = tmp_path / "trained_pos.npz"
        save_net(Net(senna("pos")).materialize(7), path)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        thread = threading.Thread(
            target=main,
            args=(["serve", "--models", "", "--load", f"{path}=mypos",
                   "--port", str(port)],),
            daemon=True,
        )
        thread.start()
        deadline = time.time() + 10
        client = None
        while time.time() < deadline:
            try:
                client = DjinnClient("127.0.0.1", port, timeout_s=1.0)
                break
            except OSError:
                time.sleep(0.05)
        assert client is not None, "server never came up"
        try:
            assert client.list_models() == ["mypos"]
        finally:
            client.shutdown_server()
            thread.join(timeout=5)

    def test_load_flag_rejects_malformed_entry(self):
        with pytest.raises(SystemExit, match="PATH=NAME"):
            main(["serve", "--models", "", "--load", "nonsense"])


class TestTraceCommand:
    def test_trace_json_emits_parseable_trace(self, tmp_path, capsys):
        """`djinn trace --json` prints one span tree as JSON on stdout;
        progress chatter moves to stderr so the payload stays parseable."""
        out_path = tmp_path / "trace.json"
        assert main(["trace", "--backends", "1", "--models", "pos",
                     "--requests", "2", "--batch", "4", "--json",
                     "--out", str(out_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"trace_id", "coverage", "spans"}
        assert payload["coverage"] >= 0.95
        names = {span["name"] for span in payload["spans"]}
        assert {"client.infer", "gateway.infer", "backend.infer",
                "net.forward"} <= names
        # every span round-trips its ids as 16-hex-digit strings
        for span in payload["spans"]:
            assert span["trace_id"] == payload["trace_id"]
            int(span["span_id"], 16)
        assert json.loads(out_path.read_text())["traceEvents"]


class TestSlowCommand:
    def test_slow_reports_cost_ledger_for_tail_exemplars(self, capsys):
        """`djinn slow` resolves the latency histogram's tail exemplars to
        full span trees and cost ledgers."""
        assert main(["slow", "--backends", "1", "--models", "pos",
                     "--requests", "8", "--batch", "4", "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "=== #1 slowest:" in out
        assert "client.infer" in out  # span tree
        assert "net.forward" in out and "unattributed" in out  # ledger
        assert "coverage" in out

    def test_slow_json(self, capsys):
        assert main(["slow", "--backends", "1", "--models", "pos",
                     "--requests", "6", "--batch", "4", "--top", "1",
                     "--json"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert reports and reports[0]["rank"] == 1
        ledger = reports[0]["ledger"]
        assert ledger["trace_id"] == reports[0]["trace_id"]
        assert set(ledger["shares"]) > {"net.forward", "unattributed"}
        assert sum(ledger["shares"].values()) == pytest.approx(1.0)
        assert reports[0]["spans"]


class TestTopCommand:
    def test_top_renders_fleet_frame(self, capsys):
        """`djinn top --iterations 1` polls a live server twice and renders
        one frame: per-model qps/percentiles/burn plus stage breakdown."""
        import socket

        from repro.core import DjinnClient

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        thread = threading.Thread(
            target=main,
            args=(["serve", "--models", "pos", "--port", str(port),
                   "--batch", "4"],),
            daemon=True,
        )
        thread.start()
        deadline = time.time() + 10
        client = None
        while time.time() < deadline:
            try:
                client = DjinnClient("127.0.0.1", port, timeout_s=5.0)
                break
            except OSError:
                time.sleep(0.05)
        assert client is not None, "server never came up"
        try:
            import numpy as np

            for _ in range(4):
                client.infer("pos", np.zeros((1, 300), np.float32))
            assert main(["top", "--port", str(port), "--interval", "0.2",
                         "--iterations", "1"]) == 0
        finally:
            client.shutdown_server()
            thread.join(timeout=5)
        out = capsys.readouterr().out
        assert f"djinn top — 127.0.0.1:{port}" in out
        assert "qps" in out and "p99ms" in out
        assert "pos" in out
        assert "stage breakdown" in out and "net.forward" in out

    def test_top_unreachable_host_fails_cleanly(self, capsys):
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]  # nothing listens here
        assert main(["top", "--port", str(port), "--iterations", "1"]) == 1
        assert "cannot reach" in capsys.readouterr().err


class TestGatewayCommand:
    def test_gateway_fronts_fleet_and_serves_queries(self):
        """`djinn gateway --backends 2` serves unchanged clients."""
        import socket

        import numpy as np

        from repro.core import DjinnClient

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        thread = threading.Thread(
            target=main,
            args=(["gateway", "--backends", "2", "--models", "pos",
                   "--port", str(port), "--policy", "round_robin"],),
            daemon=True,
        )
        thread.start()
        deadline = time.time() + 15
        client = None
        while time.time() < deadline:
            try:
                client = DjinnClient("127.0.0.1", port, timeout_s=1.0)
                break
            except OSError:
                time.sleep(0.05)
        assert client is not None, "gateway never came up"
        try:
            assert client.list_models() == ["pos"]
            out = client.infer("pos", np.zeros((1, 300), np.float32))
            assert out.shape == (1, 45)
            stats = client.stats()
            assert stats["pos"]["requests"] == 1.0
        finally:
            client.shutdown_server()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_gateway_qos_flags(self):
        """`djinn gateway --sched adaptive --admission ...` arms QoS
        end-to-end: deadline-stamped queries serve, doomed ones come back
        as a typed refusal and are never served."""
        import socket

        import numpy as np

        from repro.core import (DjinnClient, DjinnDeadlineError,
                                DjinnOverloadedError)

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        thread = threading.Thread(
            target=main,
            args=(["gateway", "--backends", "1", "--models", "pos",
                   "--port", str(port), "--batch", "4",
                   "--sched", "adaptive", "--admission",
                   "--tenant-qps", "100"],),
            daemon=True,
        )
        thread.start()
        deadline = time.time() + 15
        client = None
        while time.time() < deadline:
            try:
                client = DjinnClient("127.0.0.1", port, timeout_s=10.0)
                break
            except OSError:
                time.sleep(0.05)
        assert client is not None, "gateway never came up"
        try:
            out = client.infer("pos", np.zeros((1, 300), np.float32),
                               deadline_ms=30000.0, priority=2, tenant="cli")
            assert out.shape == (1, 45)
            # a 0.1 µs budget is usually spent by the time the admission
            # gate reads the clock (DEADLINE_EXCEEDED); when it is not, the
            # gate predicts it late and sheds it (OVERLOADED).  Either way
            # the refusal is typed and the fleet never ran it.
            with pytest.raises((DjinnDeadlineError,
                                DjinnOverloadedError)) as refused:
                client.infer("pos", np.zeros((1, 300), np.float32),
                             deadline_ms=0.0001)
            if isinstance(refused.value, DjinnOverloadedError):
                assert refused.value.reason == "predicted_late"
            stats = client.stats()
            assert stats["gateway:pos"]["requests"] == 1
            assert stats["pos"]["requests"] == 1
        finally:
            client.shutdown_server()
            thread.join(timeout=10)
        assert not thread.is_alive()


class TestChaosCommand:
    def test_every_scenario_runs_from_the_cli(self, capsys):
        """`djinn chaos` serves each scenario the model its own harness
        dict names — the app and cache scenarios are not `pos`."""
        from repro.faults import SCENARIOS

        for name in SCENARIOS:
            # 4 is the load every ordinal-triggered rule set is written for
            assert main(["chaos", "--scenario", name, "--requests", "4"]) == 0
            assert f"{name:26s} OK" in capsys.readouterr().out
