"""Gate a benchmark run against its committed baseline.

Dispatches on the payload's ``benchmark`` field:

* ``tracer_backends`` (``bench_tracer.py``) — CI's ``bench-regression``
  job runs::

      PYTHONPATH=src python benchmarks/bench_tracer.py --quick --out BENCH_tracer.json
      python benchmarks/check_bench_regression.py --current BENCH_tracer.json

* ``cycle_sim`` (``bench_sim.py``) — CI's ``sim-bench`` job runs the
  same pattern against
  ``benchmarks/baselines/BENCH_sim.baseline.json``; each scene's serial
  ``cycles`` and ``work_units`` must match the baseline exactly, and
  wall-clock only ever warns.  Each scene's ``serial_vs_baseline``
  (baseline serial seconds over the run's) is printed on a PASS line, or
  a WARN line below 0.7x.

For the tracer payload the build fails only on what cannot be timing
noise:

**Gating (exit 1):**

* prediction-metric drift — the end-to-end prediction metrics change
  from the baseline's (the model is deterministic: same spec, same
  numbers, on any machine);
* ray-count drift — the traced workload itself changed size;
* frame-memory growth — a scene's ``frame_bytes_per_entry`` (the bytes
  a traced frame retains per record entry, tracemalloc) or its
  ``trace_peak_bytes_per_entry`` (the tracemalloc peak while the frame
  is traced, per entry) exceeds :data:`FRAME_BYTES_LIMIT` times the
  baseline's.  tracemalloc counts repeat exactly on one interpreter; the
  slack covers other Python and NumPy builds, not a return of
  per-segment objects (about 7x the frame bytes) or of the per-path
  generator states and int64 record temporaries a trace once held
  (about 2.3x BUNNY's trace peak; SPRNG's peak is the packet kernels'
  per-ray columns and barely moves with its few records).

**Non-gating (warning only):** each scene's ``build_vs_baseline``
(baseline ``build_bvh`` seconds over the run's; a WARN line below
0.7x), its ``scene_vs_baseline`` (baseline ``scene_seconds``, a whole
scene build plus its packed BVH, over the run's, likewise) and its
``trace_vs_baseline`` (baseline ``trace_frame`` seconds over the run's,
likewise).  Absolute seconds are never gated on — they measure the
runner, not the code.  Byte identity of the tracer with its scalar
reference is a test, not a benchmark gate.

The baseline is regenerated on purpose (never silently) with::

    PYTHONPATH=src python benchmarks/bench_tracer.py --quick \
        --out benchmarks/baselines/BENCH_tracer.baseline.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BASELINE_DIR = Path(__file__).parent / "baselines"
DEFAULT_BASELINE = BASELINE_DIR / "BENCH_tracer.baseline.json"

#: Largest allowed ratio of a run's ``frame_bytes_per_entry`` or
#: ``trace_peak_bytes_per_entry`` to the baseline's.
FRAME_BYTES_LIMIT = 1.25

#: Gated per-entry memory fields, with how a report line names each.
_MEMORY_FIELDS = (
    ("frame_bytes_per_entry", "frame retains"),
    ("trace_peak_bytes_per_entry", "trace peaks at"),
)

#: ``benchmark`` field -> committed baseline for that payload kind.
BASELINES_BY_KIND = {
    "tracer_backends": BASELINE_DIR / "BENCH_tracer.baseline.json",
    "cycle_sim": BASELINE_DIR / "BENCH_sim.baseline.json",
}


class _Report:
    """Collects PASS/WARN/FAIL lines; FAIL is what gates."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.failed = False
        self.warned = False

    def ok(self, message: str) -> None:
        self.lines.append(f"PASS  {message}")

    def warn(self, message: str) -> None:
        self.warned = True
        self.lines.append(f"WARN  {message}")

    def fail(self, message: str) -> None:
        self.failed = True
        self.lines.append(f"FAIL  {message}")


def compare(current: dict, baseline: dict) -> _Report:
    """All checks for one current-vs-baseline payload pair."""
    report = _Report()
    base_scenes = {e["scene"]: e for e in baseline.get("scenes", [])}
    for entry in current.get("scenes", []):
        name = entry["scene"]
        base = base_scenes.get(name)
        if base is None:
            report.warn(f"{name}: no baseline entry; skipping comparison")
            continue
        rays, base_rays = entry["packet"]["rays"], base["packet"]["rays"]
        if rays != base_rays:
            report.fail(
                f"{name}: traced {rays} rays, baseline {base_rays} "
                "— workload drifted"
            )
        else:
            report.ok(f"{name}: {rays} rays (unchanged)")
        if "build_seconds" in entry and "build_seconds" in base:
            _warn_ratio(
                report, f"{name} build_vs_baseline",
                base["build_seconds"] / entry["build_seconds"], 1.0,
            )
        if "scene_seconds" in entry and "scene_seconds" in base:
            _warn_ratio(
                report, f"{name} scene_vs_baseline",
                base["scene_seconds"] / entry["scene_seconds"], 1.0,
            )
        trace = entry["packet"].get("trace_seconds")
        base_trace = base["packet"].get("trace_seconds")
        if trace and base_trace:
            _warn_ratio(
                report, f"{name} trace_vs_baseline", base_trace / trace, 1.0
            )
        for field, label in _MEMORY_FIELDS:
            if field not in entry or field not in base:
                continue
            ours = entry[field]
            limit = FRAME_BYTES_LIMIT * base[field]
            if ours > limit:
                report.fail(
                    f"{name}: {label} {ours:.2f} B/entry, above "
                    f"{limit:.2f} ({FRAME_BYTES_LIMIT}x baseline)"
                )
            else:
                report.ok(f"{name}: {label} {ours:.2f} B/entry "
                          f"(limit {limit:.2f})")

    predict, base_predict = current.get("predict"), baseline.get("predict")
    if predict and base_predict:
        if predict["metrics"] != base_predict["metrics"]:
            drifted = sorted(
                k for k in predict["metrics"]
                if predict["metrics"].get(k) != base_predict["metrics"].get(k)
            )
            report.fail(
                f"predict: metrics drifted from baseline ({', '.join(drifted)})"
            )
        else:
            report.ok("predict: metrics match the committed baseline exactly")
    return report


def _warn_ratio(
    report: _Report, label: str, current: float, baseline: float
) -> None:
    """Wall-clock or memory ratio drift: informational only, never gates.

    Wall-clock numbers measure the runner, and retained bytes the Python
    build; exact deterministic outputs (counts, metrics, identities) are
    what gate instead.
    """
    if current < baseline * 0.7:
        report.warn(
            f"{label}: {current:.2f}x well below baseline {baseline:.2f}x "
            f"(non-gating: wall clock measures the runner)"
        )
    else:
        report.ok(f"{label}: {current:.2f}x (baseline {baseline:.2f}x)")


def compare_sim(current: dict, baseline: dict) -> _Report:
    """Checks for a ``bench_sim.py`` payload pair.

    Everything the simulator computes is deterministic, so ``cycles`` and
    ``work_units`` must match the committed baseline *exactly* (JSON
    round-trips binary64 exactly); only wall-clock entries are treated
    as noise.
    """
    report = _Report()
    base_scenes = {e["scene"]: e for e in baseline.get("scenes", [])}
    for entry in current.get("scenes", []):
        name = entry["scene"]
        base = base_scenes.get(name)
        if base is None:
            report.warn(f"{name}: no baseline entry; skipping comparison")
            continue
        for field in ("cycles", "work_units"):
            ours, theirs = entry["serial"][field], base["serial"][field]
            if ours != theirs:
                report.fail(
                    f"{name}/serial: {field} {ours} != baseline {theirs} "
                    f"— simulator output drifted"
                )
            else:
                report.ok(f"{name}/serial: {field} unchanged")
        if entry.get("serial_vs_baseline") is not None:
            _warn_ratio(
                report, f"{name} serial_vs_baseline",
                entry["serial_vs_baseline"], 1.0,
            )
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--current", required=True,
        help="fresh bench_tracer.py output JSON to check",
    )
    parser.add_argument(
        "--baseline", default=None,
        help=(
            "committed baseline JSON (default: picked from baselines/ by "
            "the current payload's 'benchmark' field)"
        ),
    )
    args = parser.parse_args(argv)

    current = json.loads(Path(args.current).read_text())
    kind = current.get("benchmark", "tracer_backends")
    baseline_path = (
        Path(args.baseline)
        if args.baseline
        else BASELINES_BY_KIND.get(kind, DEFAULT_BASELINE)
    )
    baseline = json.loads(baseline_path.read_text())
    if baseline.get("benchmark", kind) != kind:
        print(
            f"baseline {baseline_path} is for "
            f"{baseline.get('benchmark')!r}, current payload is {kind!r}",
            file=sys.stderr,
        )
        return 2
    if kind == "cycle_sim":
        report = compare_sim(current, baseline)
    else:
        report = compare(current, baseline)
    print("\n".join(report.lines))
    if report.failed:
        print("\nbench-regression: FAILED (see FAIL lines above)",
              file=sys.stderr)
        return 1
    suffix = " (with warnings)" if report.warned else ""
    print(f"\nbench-regression: OK{suffix}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
