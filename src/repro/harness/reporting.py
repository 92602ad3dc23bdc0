"""Plain-text tables and result persistence for the benchmark harness.

Each benchmark prints the rows/series the corresponding paper table or
figure reports, and also writes them under ``results/`` so EXPERIMENTS.md
can reference stable artifacts.
"""

from __future__ import annotations

from pathlib import Path

__all__ = [
    "campaign_report",
    "format_table",
    "format_value",
    "save_result",
    "results_dir",
]


def format_value(value, precision: int = 3) -> str:
    """Human-friendly cell rendering: floats trimmed, the rest ``str``-ed."""
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    headers: list[str],
    rows: list[list],
    title: str | None = None,
    precision: int = 3,
) -> str:
    """Fixed-width table with a rule under the header."""
    rendered = [[format_value(cell, precision) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rendered)) if rendered
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(row[i].rjust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)


def campaign_report(result) -> dict:
    """JSON-able report artifact for one campaign execution.

    Everything a CI job or reviewer needs to audit the run: per-point QC
    verdicts with their violations, the predicted metrics (plus coverage
    and confidence intervals when the result carries them), the
    stage-node dedup accounting and the stage counters.  Pure data —
    safe to ``json.dumps`` and diff across runs.
    """
    points = []
    for outcome in result.outcomes:
        point = outcome.point
        entry: dict = {
            "scene": point.spec.label(),
            "scene_payload": point.spec.payload(),
            "scene_fingerprint": point.spec.fingerprint(),
            "gpu": point.gpu.name,
            "mode": point.mode,
            "size": point.size,
            "spp": point.spp,
            "seed": point.seed,
            "row": point.row,
            "verdict": outcome.verdict,
            "violations": list(outcome.violations),
        }
        if point.fraction is not None:
            entry["fraction"] = point.fraction
        if outcome.error is not None:
            entry["error"] = outcome.error
        value = outcome.value
        if value is not None:
            metrics = getattr(value, "metrics", None)
            if metrics:
                entry["metrics"] = {
                    name: float(metric) for name, metric in metrics.items()
                }
            coverage = getattr(value, "coverage", None)
            if coverage is not None:
                entry["coverage"] = float(coverage)
            intervals_fn = getattr(value, "confidence_intervals", None)
            intervals = intervals_fn() if callable(intervals_fn) else {}
            if intervals:
                entry["confidence_intervals"] = {
                    name: [float(lo), float(hi)]
                    for name, (lo, hi) in intervals.items()
                }
        points.append(entry)
    return {
        "campaign": result.campaign.name,
        "fingerprint": result.campaign.fingerprint(),
        "succeeded": result.succeeded,
        "waves": result.waves,
        "verdicts": result.verdict_counts(),
        "points": points,
        "dag": {
            "total_nodes": result.total_nodes,
            "unique_nodes": result.unique_nodes,
            "deduplicated_nodes": result.total_nodes - result.unique_nodes,
        },
        "stages": {
            "executions": dict(result.counters.executions),
            "cache_hits": dict(result.counters.cache_hits),
        },
    }


def results_dir() -> Path:
    """``results/`` at the repository root (created on demand)."""
    path = Path(__file__).resolve().parents[3] / "results"
    path.mkdir(parents=True, exist_ok=True)
    return path


def save_result(name: str, content: str) -> Path:
    """Persist a benchmark's printed output to ``results/<name>.txt``."""
    path = results_dir() / f"{name}.txt"
    path.write_text(content + "\n")
    return path
