"""Tests for the observability dashboard: query parsing, pagination,
the router against both sources (live service and offline .zperf), the
standalone trace server, and the startup ready-line protocol.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.service.stats import ServiceStats
from repro.harness.runner import Runner
from repro.service import ZatelService
from repro.service.dashboard import (
    DASHBOARD_MARKER,
    DashboardRouter,
    MAX_TIMELINE_WINDOWS,
    QueryError,
    RawBody,
    TraceSource,
    _lane_matches,
    _paginate,
    make_trace_server,
    parse_timeline_query,
    structure_counters,
    timeline_payload,
)
from repro.service.protocol import (
    READY_PREFIX,
    format_ready_line,
    parse_ready_line,
)

DATA = Path(__file__).parent / "data"
ZPERF_FIXTURE = DATA / "sprng_24.zperf"


def _window(component, kind, start, end):
    return {"component": component, "kind": kind, "start": start, "end": end}


def _query(**overrides):
    parsed = parse_timeline_query("")
    parsed.update(overrides)
    return parsed


# ---------------------------------------------------------------------------
# query parsing
# ---------------------------------------------------------------------------


class TestParseTimelineQuery:
    def test_empty_query_defaults(self):
        parsed = parse_timeline_query("")
        assert parsed == {
            "trace": None, "start": None, "end": None,
            "lanes": None, "max_windows": None, "max_per_lane": None,
        }

    def test_full_query(self):
        parsed = parse_timeline_query(
            "trace=t1&start=10&end=20.5&lanes=g0.,issue_stall&"
            "max_windows=100&max_per_lane=4"
        )
        assert parsed == {
            "trace": "t1", "start": 10.0, "end": 20.5,
            "lanes": ["g0.", "issue_stall"],
            "max_windows": 100, "max_per_lane": 4,
        }

    @pytest.mark.parametrize(
        "query",
        [
            "start=abc",
            "end=xyz",
            "start=-1",
            "start=50&end=10",
            "start=10&end=10",
            "end=0",  # end <= implicit start 0
            "max_windows=0",
            "max_per_lane=-2",
            "max_windows=many",
            "bogus=1",
        ],
    )
    def test_malformed_queries_raise(self, query):
        with pytest.raises(QueryError):
            parse_timeline_query(query)

    def test_unknown_parameter_named_in_error(self):
        with pytest.raises(QueryError, match="bogus"):
            parse_timeline_query("bogus=1&start=0")

    def test_blank_values_are_absent(self):
        parsed = parse_timeline_query("start=&end=&lanes=")
        assert parsed["start"] is None
        assert parsed["end"] is None
        assert parsed["lanes"] is None


# ---------------------------------------------------------------------------
# lane filtering and pagination
# ---------------------------------------------------------------------------


class TestLaneMatches:
    def test_exact_pair_kind_and_prefix(self):
        assert _lane_matches("g0.sm1", "issue_stall", ["g0.sm1:issue_stall"])
        assert _lane_matches("g3.sm0", "issue_stall", ["issue_stall"])
        assert _lane_matches("g0.sm1", "busy", ["g0."])
        assert not _lane_matches("g1.sm1", "busy", ["g0."])
        assert not _lane_matches("g0.sm1", "busy", ["issue_stall"])


class TestPaginate:
    def test_under_limit_is_whole_page(self):
        events = [_window("a", "busy", float(i), float(i) + 0.5) for i in range(5)]
        page, next_start = _paginate(events, 5)
        assert page == events
        assert next_start is None

    def test_cuts_at_window_start_boundary(self):
        events = [_window("a", "busy", float(i), float(i) + 0.5) for i in range(10)]
        page, next_start = _paginate(events, 4)
        assert [e["start"] for e in page] == [0.0, 1.0, 2.0, 3.0]
        assert next_start == 4.0
        # the next page picks up exactly where this one stopped
        rest = [e for e in events if e["start"] >= next_start]
        page2, next2 = _paginate(rest, 4)
        assert [e["start"] for e in page2] == [4.0, 5.0, 6.0, 7.0]
        assert next2 == 8.0

    def test_co_started_batch_exceeds_budget_but_advances(self):
        # 6 windows share start 0.0: a budget of 4 must return all 6,
        # otherwise next_start would never move and clients would loop.
        events = [_window(f"c{i}", "busy", 0.0, 1.0) for i in range(6)]
        events.append(_window("late", "busy", 9.0, 10.0))
        page, next_start = _paginate(events, 4)
        assert len(page) == 6
        assert all(e["start"] == 0.0 for e in page)
        assert next_start == 9.0

    def test_co_started_final_batch_has_no_next(self):
        events = [_window(f"c{i}", "busy", 0.0, 1.0) for i in range(6)]
        page, next_start = _paginate(events, 4)
        assert len(page) == 6
        assert next_start is None


class TestTimelinePayload:
    EVENTS = [
        _window("g0.sm0", "busy", 0.0, 40.0),
        _window("g0.sm0", "busy", 60.0, 100.0),
        _window("g1.sm0", "issue_stall", 20.0, 30.0),
    ]

    def test_slices_then_filters_then_counts(self):
        payload = timeline_payload(
            self.EVENTS, 100.0, _query(start=0.0, end=50.0, lanes=["g0."])
        )
        assert payload["lane_count"] == 1
        lane = payload["lanes"][0]
        assert lane["component"] == "g0.sm0"
        assert lane["windows"] == [[0.0, 40.0]]
        assert payload["window_count"] == 1
        assert payload["range"] == {"start": 0.0, "end": 50.0}
        assert payload["next_start"] is None

    def test_pagination_reports_next_start(self):
        events = [_window("a", "busy", float(i), i + 0.5) for i in range(10)]
        payload = timeline_payload(events, 10.0, _query(max_windows=3))
        assert payload["window_count"] == 3
        assert payload["next_start"] == 3.0

    def test_max_windows_is_capped(self):
        events = [_window("a", "busy", float(i), i + 0.5) for i in range(10)]
        payload = timeline_payload(
            events, 10.0, _query(max_windows=MAX_TIMELINE_WINDOWS * 10)
        )
        assert payload["window_count"] == 10

    def test_activity_rows_only_with_deltas(self):
        no_deltas = timeline_payload(self.EVENTS, 100.0, _query())
        assert "activity" not in no_deltas
        with_deltas = timeline_payload(
            self.EVENTS, 100.0, _query(),
            deltas=[{"core.instructions": 4}, {"core.instructions": 2}],
        )
        rows = {row["label"]: row for row in with_deltas["activity"]}
        assert rows["instructions"]["series"] == [4, 2]
        assert rows["instructions"]["total"] == 6
        # all-zero rows are dropped from the payload
        assert "DRAM requests" not in rows

    def test_payload_is_json_serializable(self):
        payload = timeline_payload(self.EVENTS, 100.0, _query(max_per_lane=1))
        assert payload == json.loads(json.dumps(payload))


# ---------------------------------------------------------------------------
# structured metrics helpers
# ---------------------------------------------------------------------------


def test_structure_counters_nests_by_component():
    nested = structure_counters(
        {"service.requests": 3.0, "service.cache_hits": 1.0, "dram.0.requests": 9.0}
    )
    assert nested == {
        "service": {"requests": 3.0, "cache_hits": 1.0},
        "dram.0": {"requests": 9.0},
    }


def test_structure_counters_handles_dotless_names():
    assert structure_counters({"uptime": 2.0}) == {"uptime": {"uptime": 2.0}}


# ---------------------------------------------------------------------------
# the router against the offline trace source
# ---------------------------------------------------------------------------


class TestRouterOffline:
    @pytest.fixture()
    def router(self):
        return DashboardRouter(TraceSource(ZPERF_FIXTURE), stats=ServiceStats())

    def test_handles_only_dashboard_paths(self, router):
        assert router.handles("/dashboard")
        assert router.handles("/api/timeline")
        assert not router.handles("/predict")
        assert not router.handles("/metrics")

    def test_dashboard_page_carries_marker(self, router):
        status, payload = router.route("GET", "/dashboard")
        assert status == 200
        assert isinstance(payload, RawBody)
        assert DASHBOARD_MARKER in payload.body.decode()
        assert payload.content_type.startswith("text/html")
        assert router.stats.dashboard_hits == 1
        assert router.stats.api_hits == 0

    def test_timeline_serves_fixture_lanes(self, router):
        status, payload = router.route("GET", "/api/timeline")
        assert status == 200
        assert payload["total_cycles"] == 646.0
        assert payload["lane_count"] == 24
        assert payload["trace"] == "sprng_24.zperf"
        assert payload["traces"][0]["id"] == "sprng_24.zperf"
        assert router.stats.api_hits == 1

    def test_timeline_unknown_trace_404s(self, router):
        status, payload = router.route("GET", "/api/timeline", "trace=nope")
        assert status == 404
        assert payload["traces"] == ["sprng_24.zperf"]

    def test_timeline_bad_query_400s(self, router):
        status, payload = router.route("GET", "/api/timeline", "start=50&end=10")
        assert status == 400
        assert "error" in payload

    def test_metrics_view_is_trace_mode(self, router):
        status, payload = router.route("GET", "/api/metrics")
        assert status == 200
        assert payload["mode"] == "trace"
        assert "counters" in payload

    def test_jobs_campaigns_404_offline(self, router):
        for path in ("/api/jobs", "/api/campaigns"):
            status, payload = router.route("GET", path)
            assert status == 404, path
            assert "error" in payload

    def test_unknown_api_path_404s(self, router):
        status, payload = router.route("GET", "/api/nope")
        assert status == 404

    def test_non_get_405s(self, router):
        status, payload = router.route("POST", "/api/timeline")
        assert status == 405


# ---------------------------------------------------------------------------
# the standalone trace server (zatel trace --serve)
# ---------------------------------------------------------------------------


def _get_raw(base: str, path: str) -> tuple[int, bytes]:
    try:
        with urllib.request.urlopen(f"{base}{path}", timeout=30) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


class TestTraceServer:
    @pytest.fixture()
    def base(self):
        server = make_trace_server(ZPERF_FIXTURE)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        yield f"http://{host}:{port}"
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)

    def test_root_redirects_to_dashboard(self, base):
        request = urllib.request.Request(f"{base}/")
        with urllib.request.urlopen(request, timeout=30) as response:
            # urllib follows the 302; we land on the page itself
            assert response.status == 200
            assert DASHBOARD_MARKER.encode() in response.read()

    def test_timeline_json_over_http(self, base):
        status, body = _get_raw(base, "/api/timeline?max_per_lane=2")
        assert status == 200
        payload = json.loads(body)
        assert payload["lane_count"] == 24
        assert all(len(lane["windows"]) <= 2 for lane in payload["lanes"])

    def test_bad_range_400s_over_http(self, base):
        status, body = _get_raw(base, "/api/timeline?start=-5")
        assert status == 400
        assert b"error" in body

    def test_unknown_path_404s(self, base):
        status, _ = _get_raw(base, "/definitely/not/here")
        assert status == 404


# ---------------------------------------------------------------------------
# ready-line protocol (the flaky-port fix)
# ---------------------------------------------------------------------------


class TestReadyLine:
    def test_format_is_pinned(self):
        # The smoke harness greps for this exact shape; changing it is a
        # breaking change to every CI smoke job.
        assert format_ready_line("127.0.0.1", 8321) == (
            "ZATEL_SERVE_READY host=127.0.0.1 port=8321"
        )
        assert format_ready_line("0.0.0.0", 80).startswith(READY_PREFIX)

    def test_round_trip(self):
        line = format_ready_line("127.0.0.1", 43210)
        assert parse_ready_line(line) == ("127.0.0.1", 43210)
        assert parse_ready_line(line + "\n") == ("127.0.0.1", 43210)

    def test_tolerates_extra_fields(self):
        parsed = parse_ready_line(
            "ZATEL_SERVE_READY host=10.0.0.2 port=9000 workers=4 queue=16"
        )
        assert parsed == ("10.0.0.2", 9000)

    @pytest.mark.parametrize(
        "line",
        [
            "",
            "zatel service listening on http://127.0.0.1:8321",
            "ZATEL_SERVE_READY",
            "ZATEL_SERVE_READY host=127.0.0.1",
            "ZATEL_SERVE_READY port=8321",
            "ZATEL_SERVE_READY host=127.0.0.1 port=notaport",
            "NOT_THE_PREFIX host=127.0.0.1 port=8321",
        ],
    )
    def test_rejects_non_ready_lines(self, line):
        assert parse_ready_line(line) is None


# ---------------------------------------------------------------------------
# the live service end to end
# ---------------------------------------------------------------------------


def _get_json(base: str, path: str) -> tuple[int, dict]:
    status, body = _get_raw(base, path)
    return status, json.loads(body)


def _post_json(base: str, path: str, body: dict) -> tuple[int, dict]:
    request = urllib.request.Request(
        f"{base}{path}", data=json.dumps(body).encode(), method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=300) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestServiceDashboard:
    @pytest.fixture()
    def service(self, tmp_path):
        service = ZatelService(
            port=0,
            runner=Runner(cache_dir=tmp_path / "cache"),
            workers=1,
            queue_capacity=4,
        )
        with service.background():
            yield service, f"http://127.0.0.1:{service.port}"

    def test_dashboard_and_timeline_after_real_predict(self, service):
        svc, base = service

        status, page = _get_raw(base, "/dashboard")
        assert status == 200
        assert DASHBOARD_MARKER.encode() in page

        # no prediction yet: the timeline is honestly absent
        status, missing = _get_json(base, "/api/timeline")
        assert status == 404
        assert missing["traces"] == []

        request = {
            "scene": "SPRNG", "size": 16, "spp": 1, "seed": 0, "gpu": "mobile",
        }
        status, served = _post_json(base, "/predict", request)
        assert status == 200, served

        status, timeline = _get_json(base, "/api/timeline")
        assert status == 200
        assert timeline["lane_count"] > 0
        assert timeline["total_cycles"] > 0
        assert timeline["traces"][0]["id"] == "t1"
        # lanes carry the per-group prefix of the live capture path
        assert all(
            lane["component"].startswith("g") for lane in timeline["lanes"]
        )
        for lane in timeline["lanes"]:
            starts = [start for start, _ in lane["windows"]]
            assert starts == sorted(starts)

        # lane filtering over HTTP
        status, filtered = _get_json(base, "/api/timeline?lanes=g0.")
        assert status == 200
        assert 0 < filtered["lane_count"] <= timeline["lane_count"]
        assert all(
            lane["component"].startswith("g0.") for lane in filtered["lanes"]
        )

        status, error = _get_json(base, "/api/timeline?start=9&end=3")
        assert status == 400

    def test_metrics_jobs_campaign_views(self, service):
        svc, base = service

        status, metrics = _get_json(base, "/api/metrics")
        assert status == 200
        assert metrics["mode"] == "service"
        assert "service" in metrics["counters"]
        assert "queue" in metrics and "histograms" in metrics

        status, jobs = _get_json(base, "/api/jobs")
        assert status == 200
        assert jobs["tracked"] == 0

        status, campaigns = _get_json(base, "/api/campaigns")
        assert status == 200
        assert campaigns["campaigns"] == []

        # the dashboard observes itself on the bus
        status, metrics = _get_json(base, "/api/metrics")
        service_counters = metrics["counters"]["service"]
        assert service_counters["api_hits"] >= 4
        assert svc.stats.api_hits >= 4

    def test_trace_ring_evicts_oldest(self, service):
        svc, base = service
        for i in range(svc.trace_history + 2):
            svc._record_trace(f"label {i}", [_window("sm0", "busy", 0.0, 1.0)], 1.0, [])
        status, timeline = _get_json(base, "/api/timeline")
        assert status == 200
        traces = timeline["traces"]
        assert len(traces) == svc.trace_history
        # oldest entries evicted: t1/t2 gone, newest kept
        ids = [entry["id"] for entry in traces]
        assert "t1" not in ids and "t2" not in ids
        assert timeline["trace"] == ids[-1]
