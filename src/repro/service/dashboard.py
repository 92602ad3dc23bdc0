"""The observability dashboard: ``GET /dashboard`` + the ``/api/*`` JSON views.

One stdlib-only module gives the service (and the offline trace
explorer) a browser surface over everything PRs 4-9 made observable:

* ``GET /dashboard`` — a single static HTML/JS page (no external
  assets, no frameworks — the service layer's stdlib-only rule applies
  to the browser side too) rendering canvas timeline lanes, live
  stat tiles and the job table;
* ``GET /api/timeline`` — coalesced ``.zperf`` windows through the
  shared :mod:`repro.viz.timeline_model`, with lane filtering,
  time-range slicing and ``next_start`` pagination;
* ``GET /api/metrics`` — a *structured* view over the telemetry bus
  (counters nested per component, derived rates, latency histograms)
  instead of ``/metrics``' literal flat dump;
* ``GET /api/jobs`` / ``/api/campaigns`` — job states, queue depth,
  per-point QC verdicts.

The router is transport-agnostic: :class:`ZatelService` calls it from
its asyncio front-end, and :func:`make_trace_server` mounts the same
router on a ``ThreadingHTTPServer`` so ``zatel trace --serve file.zperf``
explores an offline trace with no service at all.  Both sides feed it a
*source* object (duck-typed, see :class:`TraceSource` for the offline
one) so the route logic exists exactly once.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, NamedTuple
from urllib.parse import parse_qsl

from ..gpu.telemetry import downsample_events, load_zperf, slice_events
from ..viz.timeline_model import activity_series, lanes_payload
from .stats import SERVICE_LATENCY_EDGES

__all__ = [
    "DASHBOARD_MARKER",
    "RawBody",
    "DashboardRouter",
    "TraceSource",
    "structure_counters",
    "parse_timeline_query",
    "timeline_payload",
    "make_trace_server",
    "serve_trace",
]

#: Marker the smoke test greps for in the served page.
DASHBOARD_MARKER = 'id="zatel-dashboard"'

#: Hard ceiling on windows per timeline response, so one request can
#: never serialize an unbounded trace; clients page via ``next_start``.
MAX_TIMELINE_WINDOWS = 5000


class RawBody(NamedTuple):
    """A non-JSON response body (the dashboard page itself)."""

    body: bytes
    content_type: str


class QueryError(ValueError):
    """A malformed query parameter; maps to a 400."""


def _float_param(params: dict[str, str], name: str) -> float | None:
    raw = params.get(name)
    if raw is None or raw == "":
        return None
    try:
        value = float(raw)
    except ValueError:
        raise QueryError(f"query parameter {name}={raw!r} is not a number")
    return value


def _int_param(params: dict[str, str], name: str) -> int | None:
    raw = params.get(name)
    if raw is None or raw == "":
        return None
    try:
        value = int(raw)
    except ValueError:
        raise QueryError(f"query parameter {name}={raw!r} is not an integer")
    if value <= 0:
        raise QueryError(f"query parameter {name} must be positive, got {value}")
    return value


def parse_timeline_query(query: str) -> dict[str, Any]:
    """Validate ``/api/timeline`` query parameters.

    Returns ``{trace, start, end, lanes, max_windows, max_per_lane}``
    with ``None`` for absent parameters.

    Raises:
        QueryError: on non-numeric ``start``/``end``, negative ``start``,
            ``end <= start``, non-positive limits, or unknown parameters.
    """
    params: dict[str, str] = {}
    for name, value in parse_qsl(query, keep_blank_values=True):
        params[name] = value
    known = {"trace", "start", "end", "lanes", "max_windows", "max_per_lane"}
    unknown = sorted(set(params) - known)
    if unknown:
        raise QueryError(
            f"unknown query parameter(s) {unknown}; known: {sorted(known)}"
        )
    start = _float_param(params, "start")
    end = _float_param(params, "end")
    if start is not None and start < 0:
        raise QueryError(f"start must be >= 0, got {start:g}")
    if end is not None and end <= (start or 0.0):
        raise QueryError(
            f"end ({end:g}) must be greater than start ({start or 0.0:g})"
        )
    lanes_raw = params.get("lanes", "")
    lanes = [part.strip() for part in lanes_raw.split(",") if part.strip()]
    return {
        "trace": params.get("trace"),
        "start": start,
        "end": end,
        "lanes": lanes or None,
        "max_windows": _int_param(params, "max_windows"),
        "max_per_lane": _int_param(params, "max_per_lane"),
    }


def _lane_matches(component: str, kind: str, filters: list[str]) -> bool:
    """Whether a lane passes the ``lanes=`` filter list.

    A filter hits on the exact ``component:kind`` pair, on the bare
    window kind (``issue_stall`` selects it across every SM), or as a
    component prefix (``g0.`` selects one shard's lanes, ``dram`` every
    channel).
    """
    for item in filters:
        if item == f"{component}:{kind}" or item == kind:
            return True
        if component.startswith(item):
            return True
    return False


def _paginate(
    events: list[dict], max_windows: int
) -> tuple[list[dict], float | None]:
    """Cut a time-sorted event list at a window-start boundary.

    The page holds at most ``max_windows`` events unless more events
    than that *share* one start cycle — then the whole co-started batch
    is returned so ``next_start`` always advances and a paging client
    can never loop.  ``next_start`` is the cycle to pass as ``start`` on
    the next request (``None`` when this page is the last).
    """
    if len(events) <= max_windows:
        return events, None
    cut = events[max_windows]["start"]
    page = [event for event in events if event["start"] < cut]
    if page:
        return page, cut
    page = [event for event in events if event["start"] == cut]
    later = [event["start"] for event in events if event["start"] > cut]
    return page, later[0] if later else None


def timeline_payload(
    events,
    total_cycles: float,
    query: dict[str, Any],
    deltas: list[dict] | None = None,
) -> dict:
    """The ``/api/timeline`` response body for one trace.

    Applies the validated ``query`` (see :func:`parse_timeline_query`):
    time-range slice, lane filter, global ``max_windows`` pagination
    (cut at a window-start boundary, ``next_start`` resumes), then
    per-lane downsampling — in that order, so pagination counts the
    windows the client actually receives.  Lane grouping/ordering comes
    from :func:`repro.viz.timeline_model.lanes_payload`, the same model
    the terminal renderer draws from.
    """
    start = query.get("start") or 0.0
    end = query.get("end")
    sliced = slice_events(events, start=start, end=end)
    filters = query.get("lanes")
    if filters:
        sliced = [
            event
            for event in sliced
            if _lane_matches(event["component"], event["kind"], filters)
        ]
    max_windows = min(
        query.get("max_windows") or MAX_TIMELINE_WINDOWS, MAX_TIMELINE_WINDOWS
    )
    page, next_start = _paginate(sliced, max_windows)
    max_per_lane = query.get("max_per_lane")
    if max_per_lane:
        page = downsample_events(page, max_per_lane)
    payload = lanes_payload(page, total_cycles)
    payload["range"] = {"start": start, "end": end}
    payload["window_count"] = len(page)
    payload["next_start"] = next_start
    if deltas is not None:
        payload["activity"] = [
            {"label": label, "series": series, "total": sum(series)}
            for label, series in activity_series(deltas)
            if any(series)
        ]
    return payload


def structure_counters(counters: dict[str, float]) -> dict[str, dict[str, float]]:
    """Nest flat ``component.statistic`` counters per component.

    ``{"service.requests": 3, "dram.0.requests": 9}`` becomes
    ``{"service": {"requests": 3}, "dram.0": {"requests": 9}}`` — the
    structured shape ``/api/metrics`` serves in place of ``/metrics``'
    literal flat dump.
    """
    nested: dict[str, dict[str, float]] = {}
    for name, value in counters.items():
        component, _, statistic = name.rpartition(".")
        nested.setdefault(component or statistic, {})[statistic] = value
    return nested


def histogram_views(histograms: dict[str, list[int]]) -> dict[str, dict]:
    """Latency histograms with their bucket edges, JSON-ready."""
    edges = [
        None if edge == float("inf") else edge
        for edge in SERVICE_LATENCY_EDGES
    ]
    return {
        name: {"edges": edges, "counts": list(counts), "total": sum(counts)}
        for name, counts in histograms.items()
    }


# ----------------------------------------------------------------------
# the router
# ----------------------------------------------------------------------


class DashboardRouter:
    """Maps dashboard paths to responses against a duck-typed source.

    The source provides whichever of these it can:

    * ``timeline_traces() -> list[dict]`` — available trace summaries,
      newest last (each ``{"id", "label", "cycles", "events"}``);
    * ``timeline_trace(trace_id | None) -> tuple | None`` — one trace as
      ``(events, total_cycles, deltas | None)``; ``None`` id means the
      newest;
    * ``metrics_view() -> dict``, ``jobs_view() -> dict | None``,
      ``campaigns_view() -> dict | None``.

    Missing capabilities (an offline trace has no jobs) answer 404
    with a machine-readable error, so one page serves both modes.
    ``stats`` (optional) is a :class:`~repro.service.stats.ServiceStats`
    receiving ``dashboard_hits`` / ``api_hits``.
    """

    def __init__(self, source, stats=None) -> None:
        self.source = source
        self.stats = stats

    def handles(self, path: str) -> bool:
        return path == "/dashboard" or path.startswith("/api/")

    def route(self, method: str, path: str, query: str = "") -> tuple[int, Any]:
        """Handle one request; payloads are JSON dicts or a RawBody."""
        if method != "GET":
            return 405, {"error": f"{method} not supported on {path}"}
        if path == "/dashboard":
            if self.stats is not None:
                self.stats.dashboard_hits += 1
            return 200, RawBody(
                DASHBOARD_HTML.encode(), "text/html; charset=utf-8"
            )
        if self.stats is not None:
            self.stats.api_hits += 1
        if path == "/api/timeline":
            return self._timeline(query)
        if path == "/api/metrics":
            return self._view("metrics_view", "metrics")
        if path == "/api/jobs":
            return self._view("jobs_view", "jobs")
        if path == "/api/campaigns":
            return self._view("campaigns_view", "campaigns")
        return 404, {"error": f"unknown API path {path!r}"}

    def _timeline(self, query: str) -> tuple[int, Any]:
        try:
            parsed = parse_timeline_query(query)
        except QueryError as error:
            return 400, {"error": str(error)}
        trace = self.source.timeline_trace(parsed["trace"])
        if trace is None:
            available = [t["id"] for t in self.source.timeline_traces()]
            return 404, {
                "error": (
                    f"no timeline trace {parsed['trace']!r} available"
                    if parsed["trace"]
                    else "no timeline traces captured yet; run a predict "
                    "with telemetry enabled"
                ),
                "traces": available,
            }
        events, total_cycles, deltas = trace
        payload = timeline_payload(events, total_cycles, parsed, deltas)
        payload["trace"] = parsed["trace"] or (
            self.source.timeline_traces()[-1]["id"]
            if self.source.timeline_traces()
            else None
        )
        payload["traces"] = self.source.timeline_traces()
        return 200, payload

    def _view(self, attr: str, label: str) -> tuple[int, Any]:
        view_fn = getattr(self.source, attr, None)
        view = view_fn() if view_fn is not None else None
        if view is None:
            return 404, {"error": f"no {label} view available in this mode"}
        return 200, view


# ----------------------------------------------------------------------
# offline mode: explore a .zperf file with no service running
# ----------------------------------------------------------------------


class TraceSource:
    """A parsed ``.zperf`` file as a dashboard source (offline mode)."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.data = load_zperf(self.path)

    def timeline_traces(self) -> list[dict]:
        header = self.data["header"]
        return [
            {
                "id": self.path.name,
                "label": f"{self.path.name} ({header.get('config', '?')})",
                "cycles": header.get("cycles", 0.0),
                "events": len(self.data["events"]),
            }
        ]

    def timeline_trace(self, trace_id: str | None):
        if trace_id is not None and trace_id != self.path.name:
            return None
        return (
            self.data["events"],
            float(self.data["header"].get("cycles", 0.0)),
            [row["d"] for row in self.data["intervals"]],
        )

    def metrics_view(self) -> dict:
        summary = self.data["summary"]
        return {
            "mode": "trace",
            "trace": self.path.name,
            "header": self.data["header"],
            "counters": structure_counters(summary.get("counters", {})),
            "metrics": summary.get("metrics", {}),
        }

    def jobs_view(self) -> None:
        return None

    def campaigns_view(self) -> None:
        return None


class _TraceHandler(BaseHTTPRequestHandler):
    """Serves a DashboardRouter from a ThreadingHTTPServer (offline)."""

    router: DashboardRouter  # set on the subclass by make_trace_server
    protocol_version = "HTTP/1.1"

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        path, _, query = self.path.partition("?")
        if path == "/":
            self.send_response(302)
            self.send_header("Location", "/dashboard")
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        if not self.router.handles(path):
            status, payload = 404, {"error": f"unknown path {path!r}"}
        else:
            status, payload = self.router.route("GET", path, query)
        if isinstance(payload, RawBody):
            body, content_type = payload.body, payload.content_type
        else:
            body = json.dumps(payload, sort_keys=True).encode()
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # quiet: the CLI prints the one line that matters


def make_trace_server(
    path: str | Path, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """A ready-to-serve HTTP server exploring one ``.zperf`` offline.

    Binds immediately (``port=0`` picks an ephemeral port; read the real
    one off ``server.server_address``) but does not serve until the
    caller runs ``serve_forever()`` — tests drive it from a thread.
    """
    router = DashboardRouter(TraceSource(path))
    handler = type("TraceHandler", (_TraceHandler,), {"router": router})
    return ThreadingHTTPServer((host, port), handler)


def serve_trace(path: str | Path, host: str = "127.0.0.1", port: int = 0) -> None:
    """Blocking entry point of ``zatel trace --serve``: serve until ^C."""
    from .protocol import format_ready_line

    server = make_trace_server(path, host, port)
    bound_host, bound_port = server.server_address[:2]
    print(format_ready_line(str(bound_host), int(bound_port)), flush=True)
    print(
        f"exploring {Path(path).name} at "
        f"http://{bound_host}:{bound_port}/dashboard (Ctrl-C to stop)",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()


# ----------------------------------------------------------------------
# the page (inline: one file, zero assets, zero dependencies)
# ----------------------------------------------------------------------

DASHBOARD_HTML = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>zatel dashboard</title>
<style>
  :root { color-scheme: dark; }
  body { margin: 0; background: #0d1117; color: #c9d1d9;
         font: 13px/1.5 ui-monospace, SFMono-Regular, Menlo, monospace; }
  main#zatel-dashboard { max-width: 1180px; margin: 0 auto; padding: 16px; }
  h1 { font-size: 16px; color: #e6edf3; margin: 4px 0 12px; }
  h2 { font-size: 13px; color: #8b949e; text-transform: uppercase;
       letter-spacing: .08em; margin: 20px 0 8px; }
  .tiles { display: flex; flex-wrap: wrap; gap: 10px; }
  .tile { background: #161b22; border: 1px solid #30363d; border-radius: 6px;
          padding: 10px 14px; min-width: 128px; }
  .tile .v { font-size: 20px; color: #e6edf3; }
  .tile .k { color: #8b949e; font-size: 11px; }
  canvas { background: #161b22; border: 1px solid #30363d; border-radius: 6px;
           width: 100%; display: block; }
  table { border-collapse: collapse; width: 100%; background: #161b22;
          border: 1px solid #30363d; border-radius: 6px; }
  th, td { text-align: left; padding: 5px 10px; border-bottom: 1px solid #21262d; }
  th { color: #8b949e; font-weight: normal; }
  #status { color: #8b949e; font-size: 11px; }
  .muted { color: #484f58; }
</style>
</head>
<body>
<main id="zatel-dashboard">
  <h1>zatel dashboard <span id="status"></span></h1>
  <section><h2>Service</h2><div class="tiles" id="tiles"></div></section>
  <section><h2>Timeline lanes</h2>
    <canvas id="timeline" height="320"></canvas>
    <div id="timeline-note" class="muted"></div></section>
  <section><h2>Jobs</h2><div id="jobs"></div></section>
</main>
<script>
"use strict";
const LANE_COLORS = {
  issue_stall: "#f85149", busy: "#3fb950", wait: "#d29922",
  bank_contention: "#bc8cff", queue_contention: "#58a6ff",
};
const $ = (id) => document.getElementById(id);
async function getJSON(path) {
  const res = await fetch(path);
  const body = await res.json().catch(() => ({}));
  return { ok: res.ok, status: res.status, body };
}
function tile(label, value) {
  return `<div class="tile"><div class="v">${value}</div>` +
         `<div class="k">${label}</div></div>`;
}
function fmt(x) {
  if (x === null || x === undefined) return "–";
  if (typeof x !== "number") return String(x);
  return x >= 1000 ? x.toLocaleString("en-US") : String(Math.round(x * 1000) / 1000);
}
async function refreshMetrics() {
  const { ok, body } = await getJSON("/api/metrics");
  if (!ok) { $("tiles").innerHTML = tile("metrics", "offline trace"); return; }
  const svc = (body.counters && body.counters.service) || {};
  const q = body.queue || {};
  const tiles = [
    tile("requests", fmt(svc.requests)),
    tile("predicts", fmt(svc.predicts)),
    tile("queue depth", `${fmt(q.depth)} / ${fmt(q.capacity)}`),
    tile("cache hit rate", body.derived && body.derived.cache_hit_rate !== undefined
         ? (100 * body.derived.cache_hit_rate).toFixed(1) + "%" : "–"),
    tile("coalesced", fmt(svc.coalesced)),
    tile("failed", fmt(svc.failed)),
    tile("uptime", fmt(body.uptime_seconds) + " s"),
  ];
  $("tiles").innerHTML = tiles.join("");
}
function drawTimeline(data) {
  const canvas = $("timeline");
  const dpr = window.devicePixelRatio || 1;
  const cssWidth = canvas.clientWidth || 1100;
  const laneH = 18, labelW = 230, top = 8;
  const lanes = data.lanes || [];
  canvas.height = (top * 2 + Math.max(1, lanes.length) * laneH) * dpr;
  canvas.width = cssWidth * dpr;
  const ctx = canvas.getContext("2d");
  ctx.scale(dpr, dpr);
  ctx.clearRect(0, 0, cssWidth, canvas.height);
  const total = data.total_cycles || 1;
  const plotW = cssWidth - labelW - 70;
  ctx.font = "11px ui-monospace, monospace";
  lanes.forEach((lane, i) => {
    const y = top + i * laneH;
    ctx.fillStyle = "#8b949e";
    const label = lane.component + " " + lane.kind;
    ctx.fillText(label.length > 34 ? label.slice(0, 33) + "…" : label, 6, y + 12);
    ctx.fillStyle = "#21262d";
    ctx.fillRect(labelW, y + 3, plotW, laneH - 7);
    ctx.fillStyle = LANE_COLORS[lane.kind] || "#58a6ff";
    for (const [s, e] of lane.windows) {
      const x = labelW + (s / total) * plotW;
      const w = Math.max(1, ((e - s) / total) * plotW);
      ctx.fillRect(x, y + 3, w, laneH - 7);
    }
    ctx.fillStyle = "#8b949e";
    ctx.fillText((100 * lane.busy_fraction).toFixed(1) + "%",
                 labelW + plotW + 8, y + 12);
  });
}
async function refreshTimeline() {
  const { ok, body } = await getJSON("/api/timeline?max_per_lane=400");
  if (!ok) {
    $("timeline-note").textContent =
      body.error || "no timeline captured yet";
    return;
  }
  drawTimeline(body);
  $("timeline-note").textContent =
    `trace ${body.trace} · ${fmt(body.total_cycles)} cycles · ` +
    `${body.lane_count} lanes · ${body.window_count} windows` +
    (body.next_start !== null ? ` · paged (next_start=${body.next_start})` : "");
}
async function refreshJobs() {
  const { ok, body } = await getJSON("/api/jobs");
  if (!ok) { $("jobs").innerHTML = `<p class="muted">${body.error}</p>`; return; }
  const rows = (body.jobs || []).slice(-12).reverse().map((j) =>
    `<tr><td>${j.job}</td><td>${j.status}</td>` +
    `<td>${fmt(j.queue_seconds)} s</td><td>${fmt(j.total_seconds)} s</td>` +
    `<td>${j.error || ""}</td></tr>`).join("");
  $("jobs").innerHTML =
    `<table><tr><th>job</th><th>status</th><th>queued</th>` +
    `<th>total</th><th>error</th></tr>${rows}</table>` +
    `<p>depth ${fmt(body.queue && body.queue.depth)} · ` +
    `tracked ${fmt(body.tracked)}</p>`;
}
async function tick() {
  try {
    await Promise.all([refreshMetrics(), refreshTimeline(), refreshJobs()]);
    $("status").textContent = "· live " + new Date().toLocaleTimeString();
  } catch (err) {
    $("status").textContent = "· unreachable (" + err + ")";
  }
}
tick();
setInterval(tick, 2000);
</script>
</body>
</html>
"""
