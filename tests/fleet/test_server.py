"""Fleet server/client protocol over a real socket (ephemeral port)."""

import json
import socket
import threading

import pytest

from repro.fleet import FleetClient, FleetClientError, FleetServer
from repro.fleet import server as server_module

JOBS = [
    {
        "model": "strongarm",
        "workload": {"kind": "source", "text": """
    .text
_start:
    mov r0, #3
    swi #0
"""},
        "config": {"perfect_memory": True},
        "seed": seed,
    }
    for seed in (1, 2, 3)
]


@pytest.fixture(scope="module")
def client():
    server = FleetServer(host="127.0.0.1", port=0, workers=0)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    host, port = server.address
    try:
        yield FleetClient(host=host, port=port, timeout=60.0)
    finally:
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()


def _raw_request(client, data: bytes):
    """Send *data* as is and return every reply line, decoded."""
    with socket.create_connection((client.host, client.port), timeout=10) as conn:
        conn.sendall(data)
        with conn.makefile("rb") as stream:
            return [json.loads(line) for line in stream]


class TestProtocol:
    def test_ping(self, client):
        pong = client.ping()
        assert pong["type"] == "pong"
        assert pong["workers"] == 0

    def test_submit_streams_results_then_summary(self, client):
        messages = list(client.submit([dict(j) for j in JOBS]))
        assert [m["type"] for m in messages] == \
               ["result", "result", "result", "summary"]
        for done, message in enumerate(messages[:-1], start=1):
            assert message["progress"] == {"completed": done, "total": 3}
        summary = messages[-1]
        assert summary["jobs"] == 3 and summary["errors"] == 0

    def test_resubmit_hits_cache(self, client):
        first, _ = client.run_sweep([dict(j) for j in JOBS])
        second, summary = client.run_sweep([dict(j) for j in JOBS])
        assert summary["cache_hit_rate"] >= 0.9
        assert all(r["cached"] for r in second)
        assert [r["result"] for r in second] == [r["result"] for r in first]

    def test_stats_reports_pool_and_cache(self, client):
        client.run_sweep([dict(JOBS[0])])
        stats = client.stats()
        assert stats["type"] == "stats"
        assert stats["executed"] >= 1
        assert stats["cache"]["entries"] >= 1
        assert stats["cache"]["persistent"] is False

    def test_bad_submit_reports_error(self, client):
        with pytest.raises(FleetClientError, match="jobs"):
            list(client.submit([]))
        with pytest.raises(FleetClientError, match="unknown fleet model"):
            list(client.submit([{"model": "cray1",
                                 "workload": {"kind": "source", "text": "x"}}]))

    def test_unknown_op_reports_error(self, client):
        with pytest.raises(FleetClientError, match="unknown op"):
            client._one({"op": "dance"})


class TestShutdown:
    def test_shutdown_stops_the_server(self):
        server = FleetServer(host="127.0.0.1", port=0, workers=0)
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05}, daemon=True)
        thread.start()
        host, port = server.address
        bye = FleetClient(host=host, port=port, timeout=10.0).shutdown()
        assert bye["type"] == "bye"
        thread.join(timeout=5)
        assert not thread.is_alive()
        server.server_close()


class TestMalformedRequests:
    @pytest.mark.parametrize("line", [b"[1,2]", b'"x"', b"null", b"3"])
    def test_non_object_request_gets_an_error_reply(self, client, line):
        replies = _raw_request(client, line + b"\n")
        assert [r["type"] for r in replies] == ["error"]
        assert "JSON object" in replies[0]["message"]
        assert client.ping()["type"] == "pong"  # the server lives on

    def test_non_object_job_gets_an_error_reply(self, client):
        with pytest.raises(FleetClientError, match="JSON object"):
            list(client.submit([dict(JOBS[0]), 1]))

    def test_oversized_request_gets_an_error_reply(self, client, monkeypatch):
        monkeypatch.setattr(server_module, "MAX_REQUEST_BYTES", 1024)
        line = json.dumps({"op": "ping", "pad": "x" * 2000}).encode() + b"\n"
        replies = _raw_request(client, line)
        assert [r["type"] for r in replies] == ["error"]
        assert "exceeds 1024 bytes" in replies[0]["message"]
        assert client.ping()["type"] == "pong"

    def test_request_at_the_cap_is_served(self, client, monkeypatch):
        monkeypatch.setattr(server_module, "MAX_REQUEST_BYTES", 1024)
        line = json.dumps({"op": "ping"}).encode()
        line = line[:-1] + b" " * (1023 - len(line)) + b"}\n"
        assert len(line) == 1024
        assert [r["type"] for r in _raw_request(client, line)] == ["pong"]
