"""The protocol table is consistent; WIRE003 guards the report schema."""

from __future__ import annotations

from analysis_helpers import check_paths, findings_for

from repro.gateway.server import GatewayServer
from repro.serve.agent import NodeAgent
from repro.serve.client import ServiceClient, ServiceError
from repro.serve.protocol import GATEWAY, NODE, Route, path
from repro.serve.scheduler import Scheduler
from repro.serve.server import ServiceServer


def _record_requests(client: ServiceClient, calls) -> list[tuple[str, str]]:
    """``(method, path)`` of every request ``calls`` make through ``client``."""
    seen: list[tuple[str, str]] = []

    def exchange(method, url_path, body=None, headers=None):
        seen.append((method, url_path))
        return 200, b"{}", {}

    client._exchange = exchange
    for call in calls:
        try:
            call()
        except ServiceError:
            pass  # canned replies break contracts; only the URL matters
    return seen


def _route_of(method: str, url_path: str) -> Route:
    matches = [r for r in Route if r.match(method, url_path) is not None]
    assert len(matches) == 1, (method, url_path, matches)
    return matches[0]


def test_protocol_table_consistency():
    node_routes = set(ServiceServer.handler.routes)
    gateway_routes = set(GatewayServer.handler.routes)

    # Each server serves exactly the table's routes for its role.
    assert node_routes == {r for r in Route if NODE in r.roles}
    assert gateway_routes == {r for r in Route if GATEWAY in r.roles}

    # path() and matching invert each other for every route.
    for route in Route:
        arg = "x-1" if route.template.endswith("{}") else ""
        assert route.match(route.method, path(route, arg)) == arg

    # Every request the client makes is a table route the node serves.
    client = ServiceClient("http://127.0.0.1:1")
    client_used = {_route_of(m, p) for m, p in _record_requests(client, [
        lambda: client.submit(kind="tune", input="/x.npy", target_ratio=4.0),
        lambda: client.cancel("j-1"),
        lambda: client.poll_status("j-1"),
        lambda: client.poll_result("j-1"),
        lambda: client.status("j-1"),
        lambda: client.result("j-1", wait=False),
        lambda: client.trace("j-1"),
        lambda: client.stats(),
        lambda: client.health(),
        lambda: client.metrics_text(),
    ])}
    assert client_used <= node_routes

    # Every request the agent makes is a table route the gateway serves.
    agent = NodeAgent(Scheduler(workers=1, cache=False, metrics=False),
                      gateway_url="http://127.0.0.1:1", node_id="n0",
                      advertise_url="http://127.0.0.1:2")
    agent_used = {_route_of(m, p) for m, p in _record_requests(agent._client, [
        agent._try_register, agent._try_heartbeat, agent.stop])}
    assert agent_used == {Route.REGISTER, Route.HEARTBEAT, Route.UNREGISTER}
    assert agent_used <= gateway_routes

    # A ServiceClient works unchanged against a gateway: both servers
    # share the client's GET surface and both accept POST /submit.
    client_get = {r for r in client_used if r.method == "GET"}
    assert ({r for r in node_routes if r.method == "GET"}
            == {r for r in gateway_routes if r.method == "GET"} == client_get)
    assert Route.SUBMIT in node_routes & gateway_routes & client_used


def test_report_schema_agreement_on_real_tree(tmp_path):
    """WIRE003 is quiet on api/report.py and loud when a field is dropped."""
    from analysis_helpers import SRC

    report = check_paths(SRC / "api" / "report.py")
    assert findings_for("WIRE003", report) == []

    broken = tmp_path / "api" / "report.py"
    broken.parent.mkdir(parents=True)
    broken.write_text(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class TinyReport:\n"
        "    ratio: float\n"
        "    error_bound: float\n"
        "    def to_dict(self):\n"
        '        return {"kind": "tiny", "ratio": self.ratio}\n'
    )
    from repro.analysis.engine import run_checks

    broken_report = run_checks([str(tmp_path)], root=str(tmp_path),
                               use_cache=False)
    wire3 = [f for f in broken_report.findings if f.rule == "WIRE003"]
    assert len(wire3) == 1
    assert "error_bound" in wire3[0].message
