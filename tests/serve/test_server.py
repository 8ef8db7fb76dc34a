"""The HTTP surface: lifecycle, status codes, error bodies."""

import pytest

from repro.api import scenario_fingerprint
from repro.api.registry import default_registry
from repro.serve import scenario_from_dict


class TestHealthAndStats:
    def test_healthz(self, harness):
        status, body, _ = harness.request("GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert "version" in body and body["uptime_s"] >= 0

    def test_stats_reports_config_and_sessions(self, harness, scenario_doc):
        created = harness.create(scenario_doc)
        harness.request(
            "POST",
            f"/sessions/{created['session']}/route_pairs",
            {"count": 2},
        )
        status, body, _ = harness.request("GET", "/stats")
        assert status == 200
        assert body["config"]["max_batch"] >= 1
        per_session = body["sessions"][created["session"]]
        assert per_session["queries"]["route_pairs"] >= 1
        assert per_session["routes_answered"] >= 1
        assert per_session["latency"]["count"] >= 1
        assert set(per_session["latency"]) >= {
            "p50_ms",
            "p90_ms",
            "p99_ms",
            "buckets",
        }


class TestSessionLifecycle:
    def test_create_reports_the_materialised_network(self, harness, scenario_doc):
        body = harness.create(scenario_doc)
        assert body["nodes"] == scenario_doc["node_count"]
        assert len(body["node_ids"]) == scenario_doc["node_count"]
        assert body["routers"] == ["GF", "SLGF2"]
        assert isinstance(body["connected"], bool)

    def test_session_id_is_the_scenario_fingerprint(self, harness, scenario_doc):
        body = harness.create(scenario_doc)
        expected = scenario_fingerprint(
            scenario_from_dict(scenario_doc), default_registry
        )
        assert body["session"] == expected

    def test_create_is_idempotent(self, harness, scenario_doc):
        status1, body1, _ = harness.request(
            "POST", "/sessions", {"scenario": scenario_doc}
        )
        status2, body2, _ = harness.request(
            "POST", "/sessions", {"scenario": scenario_doc}
        )
        assert status2 == 200 and body2["created"] is False
        assert body1["session"] == body2["session"]

    def test_sessions_listing(self, harness, scenario_doc):
        created = harness.create(scenario_doc)
        status, body, _ = harness.request("GET", "/sessions")
        assert status == 200
        listed = {entry["session"] for entry in body["sessions"]}
        assert created["session"] in listed

    def test_delete_evicts(self, harness, scenario_doc):
        scenario = dict(scenario_doc, seed=77)
        created = harness.create(scenario)
        session_id = created["session"]
        status, body, _ = harness.request(
            "DELETE", f"/sessions/{session_id}"
        )
        assert status == 200 and body["evicted"] == session_id
        status, body, _ = harness.request(
            "POST",
            f"/sessions/{session_id}/route_pairs",
            {"count": 1},
        )
        assert status == 404

    def test_delete_unknown_is_404(self, harness):
        status, _, _ = harness.request("DELETE", "/sessions/" + "ab" * 16)
        assert status == 404


class TestRequestValidation:
    def test_unknown_path_404(self, harness):
        status, body, _ = harness.request("GET", "/nope")
        assert status == 404 and "error" in body

    def test_wrong_method_405_with_allow(self, harness):
        status, _, headers = harness.request("POST", "/healthz", {})
        assert status == 405
        assert headers.get("Allow") == "GET"

    def test_malformed_json_body_400(self, harness):
        import http.client

        conn = http.client.HTTPConnection(
            "127.0.0.1", harness.port, timeout=10
        )
        try:
            conn.request(
                "POST",
                "/sessions",
                body="{not json",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            response.read()
            assert response.status == 400
        finally:
            conn.close()

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_literal_is_a_located_400(self, harness, literal):
        import http.client
        import json

        # The same literal inside a string is fine; the bare one is not.
        body = (
            '{"scenario": {"deployment_model": "IA", "note": "NaN",\n'
            f' "radius": {literal}}}}}'
        )
        conn = http.client.HTTPConnection(
            "127.0.0.1", harness.port, timeout=10
        )
        try:
            conn.request(
                "POST",
                "/sessions",
                body=body,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            error = json.loads(response.read())["error"]
        finally:
            conn.close()
        assert response.status == 400
        assert literal in error
        assert "line 2 column 12" in error

    def test_create_requires_scenario_key(self, harness):
        status, body, _ = harness.request("POST", "/sessions", {})
        assert status == 400 and "scenario" in body["error"]

    def test_bad_scenario_names_the_key(self, harness):
        status, body, _ = harness.request(
            "POST", "/sessions", {"scenario": {"node_cuont": 5}}
        )
        assert status == 400 and "node_cuont" in body["error"]

    def test_unknown_router_rejected_at_create(self, harness, scenario_doc):
        status, body, _ = harness.request(
            "POST",
            "/sessions",
            {"scenario": dict(scenario_doc, routers=["WARP"])},
        )
        assert status == 400 and "WARP" in body["error"]

    def test_mobile_scenario_rejected(self, harness, scenario_doc):
        scenario = dict(scenario_doc, mobility={"epochs": 2})
        status, body, _ = harness.request(
            "POST", "/sessions", {"scenario": scenario}
        )
        assert status == 400 and "topology" in body["error"]

    def test_unknown_session_404(self, harness):
        status, body, _ = harness.request(
            "POST", "/sessions/" + "cd" * 16 + "/route_pairs", {}
        )
        assert status == 404


class TestRouteValidation:
    @pytest.fixture()
    def session_id(self, harness, scenario_doc):
        return harness.create(scenario_doc)["session"]

    def test_missing_source(self, harness, session_id):
        status, body, _ = harness.request(
            "POST", f"/sessions/{session_id}/route", {"destination": 1}
        )
        assert status == 400 and "source" in body["error"]

    def test_bool_node_id_rejected(self, harness, session_id):
        status, body, _ = harness.request(
            "POST",
            f"/sessions/{session_id}/route",
            {"source": True, "destination": 1},
        )
        assert status == 400

    def test_source_equals_destination(self, harness, session_id):
        status, body, _ = harness.request(
            "POST",
            f"/sessions/{session_id}/route",
            {"source": 3, "destination": 3, "router": "GF"},
        )
        assert status == 400 and "equals" in body["error"]

    def test_node_not_in_topology(self, harness, session_id):
        status, body, _ = harness.request(
            "POST",
            f"/sessions/{session_id}/route",
            {"source": 0, "destination": 10_000, "router": "GF"},
        )
        assert status == 400 and "topology" in body["error"]

    def test_unknown_router_names_the_residents(self, harness, session_id):
        status, body, _ = harness.request(
            "POST",
            f"/sessions/{session_id}/route",
            {"source": 0, "destination": 1, "router": "LGF9"},
        )
        assert status == 400
        assert "LGF9" in body["error"] and "GF" in body["error"]

    def test_ambiguous_router_choice_is_a_client_error(
        self, harness, session_id
    ):
        # Two resident routers, none named: the facade's ValueError
        # must surface as 400, not 500.
        status, body, _ = harness.request(
            "POST",
            f"/sessions/{session_id}/route",
            {"source": 0, "destination": 1},
        )
        assert status == 400

    def test_unknown_body_key_rejected(self, harness, session_id):
        status, body, _ = harness.request(
            "POST",
            f"/sessions/{session_id}/route",
            {"source": 0, "destination": 1, "rooter": "GF"},
        )
        assert status == 400 and "rooter" in body["error"]


class TestRoutePairsValidation:
    @pytest.fixture()
    def session_id(self, harness, scenario_doc):
        return harness.create(scenario_doc)["session"]

    def test_count_must_be_positive(self, harness, session_id):
        status, body, _ = harness.request(
            "POST", f"/sessions/{session_id}/route_pairs", {"count": 0}
        )
        assert status == 400 and "count" in body["error"]

    def test_routers_must_be_resident(self, harness, session_id):
        status, body, _ = harness.request(
            "POST",
            f"/sessions/{session_id}/route_pairs",
            {"routers": ["GF", "LGF9"]},
        )
        assert status == 400 and "LGF9" in body["error"]

    def test_unknown_backend_rejected(self, harness, session_id):
        status, body, _ = harness.request(
            "POST",
            f"/sessions/{session_id}/route_pairs",
            {"backend": "cuda"},
        )
        assert status == 400 and "cuda" in body["error"]

    def test_energy_must_be_boolean(self, harness, session_id):
        status, body, _ = harness.request(
            "POST",
            f"/sessions/{session_id}/route_pairs",
            {"energy": 1},
        )
        assert status == 400 and "energy" in body["error"]

    def test_timeout_ms_must_be_positive(self, harness, session_id):
        status, body, _ = harness.request(
            "POST",
            f"/sessions/{session_id}/route_pairs",
            {"timeout_ms": -5},
        )
        assert status == 400 and "timeout_ms" in body["error"]


class TestTopologyEndpoint:
    def test_fail_event_updates_and_summarises(self, harness, scenario_doc):
        scenario = dict(scenario_doc, seed=91)
        created = harness.create(scenario)
        session_id = created["session"]
        victim = created["node_ids"][7]
        status, body, _ = harness.request(
            "POST",
            f"/sessions/{session_id}/topology",
            {"events": [{"op": "fail", "nodes": [victim]}]},
        )
        assert status == 200
        assert body["applied_events"] == 1
        assert body["nodes_alive"] == scenario["node_count"] - 1
        assert body["nodes_down"] == 1

    def test_state_conflict_is_409_with_applied_count(self, harness, scenario_doc):
        scenario = dict(scenario_doc, seed=92)
        created = harness.create(scenario)
        session_id = created["session"]
        victim = created["node_ids"][3]
        harness.request(
            "POST",
            f"/sessions/{session_id}/topology",
            {"events": [{"op": "fail", "nodes": [victim]}]},
        )
        # Failing an already-down node: first event (a valid move)
        # applies, the second conflicts; 409 reports the split.
        other = created["node_ids"][4]
        status, body, _ = harness.request(
            "POST",
            f"/sessions/{session_id}/topology",
            {
                "events": [
                    {"op": "move", "node": other, "x": 50.0, "y": 50.0},
                    {"op": "fail", "nodes": [victim]},
                ]
            },
        )
        assert status == 409
        assert "1 earlier event(s) applied" in body["error"]

    def test_restore_brings_the_node_back(self, harness, scenario_doc):
        scenario = dict(scenario_doc, seed=93)
        created = harness.create(scenario)
        session_id = created["session"]
        victim = created["node_ids"][11]
        harness.request(
            "POST",
            f"/sessions/{session_id}/topology",
            {"events": [{"op": "fail", "nodes": [victim]}]},
        )
        status, body, _ = harness.request(
            "POST",
            f"/sessions/{session_id}/topology",
            {"events": [{"op": "restore", "nodes": [victim]}]},
        )
        assert status == 200
        assert body["nodes_up"] == 1
        assert body["nodes_alive"] == scenario["node_count"]

    def test_malformed_events_400(self, harness, scenario_doc):
        created = harness.create(scenario_doc)
        status, body, _ = harness.request(
            "POST",
            f"/sessions/{created['session']}/topology",
            {"events": [{"op": "explode"}]},
        )
        assert status == 400 and "op" in body["error"]
