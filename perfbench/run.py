"""The repository benchmark: one workload per run, checked, with its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload predict --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a
separate traced run that prints the per-layer metrics.  The last line
of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
give workload detail and the quartiles of every metric over the runs
recorded in ``.bench_runs/history.jsonl``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import common  # noqa: E402
from perfbench.common import log  # noqa: E402

WORKLOADS = ("predict", "validate", "serve")
#: Metrics whose run-to-run spread sank an earlier benchmark; the
#: steadiness summary calls them out.
WATCHED = ("setup_s", "ops_per_s", "warm_p50_ms")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# in-process workloads
# ----------------------------------------------------------------------


def run_inprocess(args, src: Path, run_dir: Path, clock_start: float) -> dict:
    from perfbench import inproc

    shape = inproc.PREDICT if args.workload == "predict" else inproc.VALIDATE
    common.import_repro(src)
    import repro.core.pipeline  # noqa: F401 - import time belongs to set-up
    import repro.harness.metrics  # noqa: F401
    import repro.harness.runner  # noqa: F401

    workload = inproc.InProcess(shape, args.seed, args.seconds, run_dir)
    if not args.trace:
        import_s = time.perf_counter() - clock_start
        tally, reps = workload.run_interleaved()
        setup_s = import_s + statistics.median(reps)
        out = {"tally": tally, "setup_reps_s": reps, "import_s": import_s}
        complete = tally.op_s and tally.warm_s
        out["metrics"] = (
            inproc.end_to_end(tally, setup_s, common.peak_rss_mb()) if complete else None
        )
    else:
        from perfbench.spans import Tracer

        tracer = Tracer()
        with tracer, tracer.recorder.op("setup"):
            workload.setup_once()
        untraced = workload.run_pass(warm=False)
        workload.recorder = tracer.recorder
        with tracer:
            tally = workload.run_pass()
        out = {"tally": tally, "untraced": untraced, "recorder": tracer.recorder}
    out["golden"] = workload.golden_check()
    out["detail"] = inproc.detail(tally)
    return out


def inprocess_result(args, out: dict, host_ref: list[float]) -> dict:
    from perfbench import inproc

    tally = out["tally"]
    failures = list(tally.failures)
    if out["golden"]:
        failures.append(out["golden"])
    attempted = tally.attempted + 1
    if out.get("untraced") is not None:
        attempted += out["untraced"].attempted
        failures += out["untraced"].failures
    if not args.trace:
        metrics = out["metrics"]
        detail = {**out["detail"], "setup_reps_s": out["setup_reps_s"], "import_s": out["import_s"]}
    else:
        from perfbench.layers import per_layer_metrics
        from perfbench.spans import op_breakdown

        spans = out["recorder"].spans
        overhead = _overhead_pct(inproc.ops_per_s(out["untraced"]), inproc.ops_per_s(tally))
        metrics = per_layer_metrics(spans, statistics.fmean(host_ref), overhead)
        detail = {
            **out["detail"],
            "cold_op_breakdown": op_breakdown(spans, "op.cold"),
            "warm_op_breakdown": op_breakdown(spans, "op.warm"),
            "spans_file": _dump_spans(out["recorder"], args),
        }
    return _result(failures, attempted, metrics, detail)


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------


def run_serve(args, src: Path, run_dir: Path) -> dict:
    from perfbench import serve

    if not args.trace:
        boots = [serve.boot_only(src, run_dir, i) for i in range(common.SETUP_REPS - 1)]
        tally, times = serve.serve_pass(src, run_dir, args.seed, args.seconds)
        boots.append(times["boot_s"])
        setup_s = statistics.median(boots) + times["warm_s"]
        return {
            "tally": tally,
            "setup_s": setup_s,
            "boots_s": boots,
            "warm_s": times["warm_s"],
            "peak_rss": common.peak_rss_mb(children=True),
        }
    untraced, _ = serve.serve_pass(src, run_dir, args.seed, args.seconds)
    spans_path = run_dir / "server-spans.json"
    tally, _ = serve.serve_pass(src, run_dir, args.seed, args.seconds, spans_path=spans_path)
    return {"tally": tally, "untraced": untraced, "spans_path": spans_path}


def serve_result(args, out: dict, host_ref: list[float], src: Path) -> dict:
    from perfbench import serve

    tally = out["tally"]
    failures = list(tally.failures)
    attempted = tally.attempted + 1
    if out.get("untraced") is not None:
        attempted += out["untraced"].attempted + 1
        failures += out["untraced"].failures
    detail = serve.detail(tally)
    if not tally.hit_s or not tally.pair_s:
        return _result(failures + ["no hit or no miss completed"], attempted, None, detail)
    common.import_repro(src)
    if not args.trace:
        metrics = serve.end_to_end(tally, out["setup_s"], out["peak_rss"])
        detail.update(boots_s=out["boots_s"], warm_up_s=out["warm_s"])
    else:
        from perfbench.layers import per_layer_metrics
        from perfbench.spans import SpanRecorder, load_spans, op_breakdown

        spans = load_spans(out["spans_path"])
        overhead = _overhead_pct(serve.ops_per_s(out["untraced"]), serve.ops_per_s(tally))
        metrics = per_layer_metrics(spans, statistics.fmean(host_ref), overhead, tally.counters)
        recorder = SpanRecorder()
        recorder.spans = spans
        detail["miss_breakdown"] = op_breakdown(spans, "service.execute", since=tally.window_start)
        detail["spans_file"] = _dump_spans(recorder, args)
    return _result(failures, attempted, metrics, detail)


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------


def _overhead_pct(untraced_ops_per_s: float, traced_ops_per_s: float) -> float:
    if traced_ops_per_s <= 0:
        return 0.0
    return (untraced_ops_per_s / traced_ops_per_s - 1.0) * 100.0


def _dump_spans(recorder, args) -> str:
    common.RUNS_DIR.mkdir(exist_ok=True)
    path = common.RUNS_DIR / f"spans-{args.workload}.json"
    recorder.dump(path)
    return str(path)


def _result(failures: list[str], attempted: int, metrics, detail: dict) -> dict:
    for failure in failures:
        log(f"FAILED: {failure}")
    return {
        "correct": not failures and metrics is not None,
        "attempted": attempted,
        "failed": max(len(failures), 0 if metrics is not None else 1),
        "metrics": metrics,
        "detail": detail,
    }


def _bounds() -> dict:
    try:
        with open("BENCHMARK.json", encoding="utf-8") as handle:
            declared = json.load(handle)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m.get("bound") for m in declared.get("end_to_end", [])}


def steadiness(args, result: dict, host_ref: list[float]) -> list[str]:
    """Record this run and summarise every run recorded for the workload."""
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "correct": result["correct"],
        "host_ref_s": host_ref,
        "metrics": {k: v["value"] for k, v in (result["metrics"] or {}).items()},
    }
    history = [
        r
        for r in common.append_history(record)
        if (r["workload"], r["trace"], r["seconds"]) == (args.workload, args.trace, args.seconds)
        and r["correct"]
    ]
    bounds = _bounds()
    lines = [
        f"steadiness over {len(history)} recorded {args.workload} runs "
        f"(trace={args.trace}): median [Q1, Q3] and (Q3-Q1)/median"
    ]
    for name in record["metrics"]:
        values = [r["metrics"][name] for r in history if name in r["metrics"]]
        spread = common.quartile_spread(values)
        bound = bounds.get(name)
        note = ""
        if bound is not None:
            note = f"  bound {bound:.3f}"
            if name in WATCHED:
                note += "  (watched: noisy in the earlier benchmark)"
        lines.append(
            f"  {name:28s} {spread['median']:.6g} [{spread['q1']:.6g}, {spread['q3']:.6g}]"
            f"  spread {spread['iqr_share']:.3f}{note}"
        )
    refs = ", ".join(f"{statistics.fmean(r['host_ref_s']):.4f}" for r in history[-10:])
    lines.append(f"  host.ref_s of the last {min(len(history), 10)} runs: {refs}")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    src = common.checkout_sources()
    host_ref = [common.host_ref_seconds()]
    clock_start = time.perf_counter()
    run_dir = common.new_run_dir(args.workload)
    try:
        if args.workload == "serve":
            out = run_serve(args, src, run_dir)
            host_ref.append(common.host_ref_seconds())
            result = serve_result(args, out, host_ref, src)
        else:
            out = run_inprocess(args, src, run_dir, clock_start)
            host_ref.append(common.host_ref_seconds())
            result = inprocess_result(args, out, host_ref)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    detail = result.pop("detail")
    detail["host_ref_s"] = host_ref
    print("detail " + json.dumps(detail, sort_keys=True, default=str))
    for line in steadiness(args, result, host_ref):
        print(line)
    if result["metrics"] is None:
        log("no metrics: every op of a required kind failed")
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
