"""Implementations of the CLI subcommands.

Each command takes the parsed ``argparse`` namespace and returns an exit
code.  Output goes to stdout; images to the path given (or a default under
the working directory).
"""

from __future__ import annotations

import json
from pathlib import Path

from ..core import (
    AdaptiveZatel,
    ExecutionPolicy,
    Heatmap,
    Zatel,
    ZatelConfig,
    quantize_heatmap,
)
from ..gpu import METRICS, compile_kernel
from ..gpu.configfile import resolve_gpu
from ..harness import (
    Workload,
    degraded_summary,
    format_table,
    metric_errors,
    shared_runner,
)
from ..scene import SCENE_NAMES, make_scene
from ..scene.library import EXTRA_SCENES
from ..tracer import FunctionalTracer
from ..viz import write_ppm

__all__ = [
    "cmd_scenes",
    "cmd_configs",
    "cmd_render",
    "cmd_heatmap",
    "cmd_simulate",
    "cmd_predict",
    "cmd_serve",
    "cmd_campaign",
]


def _workload(args) -> Workload:
    name = args.scene.upper()
    if name not in SCENE_NAMES + EXTRA_SCENES:
        raise ValueError(
            f"unknown scene {args.scene!r}; available: "
            f"{', '.join(SCENE_NAMES + EXTRA_SCENES)}"
        )
    return Workload(
        name, width=args.size, height=args.size,
        samples_per_pixel=args.spp, seed=args.seed,
    )


def cmd_scenes(args) -> int:  # noqa: ARG001 - uniform command signature
    """List the scene library with geometry statistics."""
    rows = []
    for name in SCENE_NAMES + EXTRA_SCENES:
        scene = make_scene(name)
        rows.append(
            [
                name + ("*" if name in EXTRA_SCENES else ""),
                scene.triangle_count(),
                scene.node_count(),
                scene.bvh.depth(),
                len(scene.lights),
                scene.max_bounces,
            ]
        )
    print(
        format_table(
            ["scene", "triangles", "BVH nodes", "depth", "lights", "bounces"],
            rows,
            title="Scene library (LumiBench stand-ins; see DESIGN.md)",
        )
    )
    print("* extra scene, outside the paper's evaluated set")
    return 0


def cmd_configs(args) -> int:  # noqa: ARG001
    """Show the Table II GPU presets and their downscaled derivations."""
    from ..gpu.config import preset

    for key in ("mobile", "rtx2060"):
        gpu = preset(key)
        print(gpu.describe())
        k = gpu.downscale_factor()
        print(f"  downscale factor K = {k} -> {gpu.downscale(k).name}")
        print()
    return 0


def cmd_render(args) -> int:
    """Render the scene's radiance image to PPM."""
    workload = _workload(args)
    scene = make_scene(workload.scene_name)
    image = FunctionalTracer(scene, workload.settings()).render_image()
    out = Path(args.out or f"{workload.scene_name.lower()}_{args.size}.ppm")
    write_ppm(out, image)
    print(f"wrote {out}")
    return 0


def cmd_heatmap(args) -> int:
    """Write the execution-time heatmap (optionally quantized)."""
    workload = _workload(args)
    runner = shared_runner()
    frame = runner.frame(workload)
    heatmap = Heatmap.from_frame(frame)
    if args.quantize > 0:
        quantized = quantize_heatmap(heatmap, args.quantize, seed=args.seed)
        image = quantized.to_colors()
        print(
            "quantized to "
            f"{quantized.num_colors} colors; coolness values "
            f"{[round(float(c), 2) for c in quantized.coolness]}"
        )
    else:
        image = heatmap.to_colors()
    out = Path(args.out or f"{workload.scene_name.lower()}_heatmap.ppm")
    write_ppm(out, image)
    print(
        f"wrote {out} (mean temperature {heatmap.mean_temperature():.2f})"
    )
    return 0


def cmd_simulate(args) -> int:
    """Run the full cycle-level simulation and print Table I metrics."""
    workload = _workload(args)
    gpu = resolve_gpu(args.gpu)
    runner = shared_runner()
    stats = runner.full_sim(workload, gpu)
    print(stats.summary())
    return 0


def cmd_predict(args) -> int:
    """Run the Zatel pipeline, optionally validating against ground truth."""
    if getattr(args, "remote", None):
        return _cmd_predict_remote(args)
    workload = _workload(args)
    gpu = resolve_gpu(args.gpu)
    runner = shared_runner()
    scene = runner.scene(workload.scene_name)
    frame = runner.frame(workload)
    config = ZatelConfig(
        division=args.division,
        distribution=args.distribution,
        fraction_override=args.fraction,
        sampler=getattr(args, "sampler", "heatmap"),
        replicates=getattr(args, "replicates", 5),
    )
    checkpoint_dir = args.checkpoint_dir
    if checkpoint_dir is None and args.resume:
        checkpoint_dir = runner.checkpoint_dir(workload, gpu)
    policy = ExecutionPolicy(
        workers=args.workers if args.workers else 1,
        timeout=args.timeout,
        retries=args.retries,
        checkpoint_dir=checkpoint_dir,
        resume=args.resume,
        seed=args.seed,
    )
    predictor_class = AdaptiveZatel if args.adaptive else Zatel
    result = predictor_class(gpu, config).predict(scene, frame, policy=policy)
    if getattr(args, "json", False):
        return _print_predict_json(args, workload, gpu, runner, result)
    sampler_name = result.sampler.get("name", "heatmap")
    sampler_note = (
        "" if sampler_name == "heatmap" else f", sampler {sampler_name}"
    )
    print(
        f"Zatel on {workload.scene_name} / {gpu.name}: "
        f"K={result.downscale_factor}, "
        f"mean traced fraction {result.mean_fraction():.0%}{sampler_note}"
    )
    if result.degraded:
        print(degraded_summary(result))
    intervals = result.confidence_intervals()
    if args.compare:
        full = runner.full_sim(workload, gpu)
        errors = metric_errors(result.metrics, full)
        rows = [
            [name, full.metric(name), result.metrics[name], errors[name]]
            for name in METRICS
        ]
        print(
            format_table(
                ["metric", "full sim", "Zatel", "error"], rows,
                title=f"prediction vs ground truth "
                f"(speedup {result.speedup_vs(full):.1f}x)",
            )
        )
        for name in METRICS:
            if name in intervals:
                lo, hi = intervals[name]
                print(f"  {name:16s} 95% CI [{lo:.4f}, {hi:.4f}]")
    else:
        for name in METRICS:
            line = f"  {name:16s} {result.metrics[name]:12.4f}"
            if name in intervals:
                lo, hi = intervals[name]
                line += f"  95% CI [{lo:.4f}, {hi:.4f}]"
            print(line)
    return 0


def _cmd_predict_remote(args) -> int:
    """``predict --remote URL``: run the prediction on a ``zatel serve``
    instance instead of in-process.

    The request carries only declarative spec fields; execution knobs
    (``--workers``, ``--timeout``, ``--resume``, ...) stay with the
    server's operator, and ``--compare`` needs a local full simulation,
    so both are rejected here.
    """
    import json

    from .client import ZatelClient

    for flag in ("compare", "resume"):
        if getattr(args, flag, False):
            raise ValueError(f"--{flag} is not supported with --remote")
    if getattr(args, "checkpoint_dir", None):
        raise ValueError("--checkpoint-dir is not supported with --remote")

    request = {
        "scene": args.scene.upper(),
        "size": args.size,
        "spp": args.spp,
        "seed": args.seed,
        "gpu": args.gpu,
        "division": args.division,
        "distribution": args.distribution,
        "adaptive": bool(args.adaptive),
        "sampler": getattr(args, "sampler", "heatmap"),
        "replicates": getattr(args, "replicates", 5),
    }
    if args.fraction is not None:
        request["fraction"] = args.fraction
    payload = ZatelClient(
        args.remote,
        backpressure_retries=max(0, getattr(args, "max_retries", 5)),
    ).predict(request)
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    source = "cache" if payload.get("cached") else f"job {payload.get('job')}"
    print(
        f"Zatel on {payload['scene']} / {payload['gpu']} "
        f"(served by {args.remote}, {source}): "
        f"K={payload['downscale_factor']}, "
        f"mean traced fraction {payload['mean_fraction']:.0%}"
    )
    if payload.get("degraded"):
        print(
            f"  DEGRADED: coverage {payload['coverage']:.0%}, "
            f"{len(payload['failures'])} failed group(s)"
        )
    intervals = payload.get("confidence_intervals") or {}
    for name in METRICS:
        line = f"  {name:16s} {payload['metrics'][name]:12.4f}"
        if name in intervals:
            lo, hi = intervals[name]
            line += f"  95% CI [{lo:.4f}, {hi:.4f}]"
        print(line)
    return 0


def cmd_serve(args) -> int:
    """``zatel serve``: run the HTTP prediction service until Ctrl-C.

    SIGTERM drains gracefully: stop intake, finish (or abandon)
    in-flight jobs, reap the job processes.
    """
    import logging
    import signal

    from ..harness.runner import Runner
    from ..service import ZatelService

    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s %(name)s %(message)s"
    )
    runner = (
        Runner(cache_dir=args.cache_dir) if args.cache_dir else shared_runner()
    )
    policy = ExecutionPolicy(
        workers=args.exec_workers if args.exec_workers else 1
    )
    service = ZatelService(
        runner=runner,
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        policy=policy,
        use_cache=not args.no_cache,
        timeline_interval=getattr(args, "timeline_interval", 1024),
    )
    signal.signal(signal.SIGTERM, lambda signum, frame: service.shutdown())
    service.run()
    return 0


def _print_predict_json(args, workload, gpu, runner, result) -> int:
    """``predict --json``: machine-readable result for scripting.

    The payload is :func:`~repro.harness.service.result_payload` — the
    same schema ``POST /predict`` returns — so scripts can switch
    between local and remote execution without reparsing: metrics plus
    the full audit surface (degraded flag, plane coverage, one entry per
    permanently-failed group, serial-fallback note).
    """
    import json

    from ..harness.service import result_payload

    payload = result_payload(workload.scene_name, gpu.name, result)
    if args.compare:
        full = runner.full_sim(workload, gpu)
        errors = metric_errors(result.metrics, full)
        payload["full_sim"] = {name: full.metric(name) for name in METRICS}
        payload["errors"] = errors
        payload["speedup"] = result.speedup_vs(full)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_trace(args) -> int:
    """Export a frame trace (.ztrace), or with ``--timeline`` a telemetry
    timeline trace (.zperf); ``--serve FILE.zperf`` instead explores an
    existing trace in the browser dashboard, offline."""
    if getattr(args, "serve", None):
        from ..service.dashboard import serve_trace

        if not Path(args.serve).is_file():
            raise ValueError(f"no such trace file: {args.serve}")
        serve_trace(args.serve, host=args.host, port=args.port)
        return 0
    if args.scene is None:
        raise ValueError(
            "a scene name is required (only `trace --serve FILE.zperf` "
            "runs without one)"
        )
    if getattr(args, "timeline", False):
        return _cmd_trace_timeline(args)
    from ..tracer import save_frame

    workload = _workload(args)
    runner = shared_runner()
    frame = runner.frame(workload)
    out = Path(
        args.out
        or f"{workload.scene_name.lower()}_{args.size}x{args.size}.ztrace"
    )
    save_frame(frame, out)
    size_kb = out.stat().st_size / 1024
    nodes, _, _ = frame.columns().pixel_totals()
    print(
        f"wrote {out} ({size_kb:.0f} KB, {len(frame.pixels)} pixels, "
        f"{int(nodes.sum())} node visits)"
    )
    return 0


def _cmd_trace_timeline(args) -> int:
    """``trace --timeline``: simulate with the telemetry bus on and write
    a ``.zperf`` JSON-lines file, then render the timeline to the
    terminal."""
    from ..gpu.telemetry import export_zperf
    from ..viz.timeline import render_interval_activity, render_timeline

    workload = _workload(args)
    if args.interval <= 0:
        raise ValueError("--interval must be a positive cycle count")
    gpu = resolve_gpu(args.gpu)
    runner = shared_runner()
    stats = runner.telemetry_sim(workload, gpu, interval=args.interval)
    record = stats.telemetry
    out = Path(
        args.out
        or f"{workload.scene_name.lower()}_{args.size}x{args.size}.zperf"
    )
    export_zperf(
        out,
        stats,
        meta={
            "scene": workload.scene_name,
            "width": workload.width,
            "height": workload.height,
            "spp": workload.samples_per_pixel,
            "seed": workload.seed,
        },
    )
    size_kb = out.stat().st_size / 1024
    print(
        f"wrote {out} ({size_kb:.0f} KB, {len(record.snapshots)} interval "
        f"snapshots @ {record.interval} cycles, "
        f"{len(record.events)} timeline events)"
    )
    print()
    print(render_timeline(record.events, stats.cycles))
    print()
    print(render_interval_activity(record.deltas()))
    return 0


def cmd_inspect(args) -> int:
    """Summarize a .ztrace file without loading the owning scene."""
    from ..tracer import load_frame

    frame = load_frame(args.file)
    nodes, tris, instructions = (
        int(total.sum()) for total in frame.columns().pixel_totals()
    )
    print(
        f"{args.file}: scene {frame.scene_name}, "
        f"{frame.width}x{frame.height} @ {frame.samples_per_pixel} spp"
    )
    print(f"  pixels traced      {len(frame.pixels)}")
    print(f"  BVH node visits    {nodes}")
    print(f"  triangle tests     {tris}")
    print(f"  shader instructions {instructions}")
    print(f"  total cost proxy   {frame.total_cost():.0f}")
    return 0


def _print_campaign_report(report: dict) -> None:
    """Human summary of a campaign report (local or served)."""
    rows = []
    for entry in report["points"]:
        notes: list[str] = []
        if entry.get("error"):
            notes.append(entry["error"])
        notes.extend(entry.get("violations", ()))
        cycles = entry.get("metrics", {}).get("cycles", "-")
        rows.append(
            [
                entry["scene"],
                entry["gpu"],
                entry["mode"],
                entry["verdict"],
                cycles,
                "; ".join(notes) if notes else "",
            ]
        )
    print(
        format_table(
            ["point", "gpu", "mode", "verdict", "cycles", "notes"], rows,
            title=(
                f"campaign {report['campaign']} "
                f"({report['fingerprint'][:12]}): "
                f"{len(report['points'])} points, {report['waves']} wave(s)"
            ),
            precision=0,
        )
    )
    dag = report["dag"]
    print(
        f"dag: {dag['total_nodes']} stage nodes planned, "
        f"{dag['unique_nodes']} unique "
        f"({dag['deduplicated_nodes']} deduplicated)"
    )
    verdicts = ", ".join(
        f"{name}={count}"
        for name, count in report["verdicts"].items()
        if count
    )
    print(f"verdicts: {verdicts}")


def cmd_campaign(args) -> int:
    """``campaign run``/``campaign status``: the samplesheet front end."""
    from .client import ZatelClient

    if args.action == "status":
        payload = ZatelClient(args.remote).campaign_status(args.job_id)
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 3 if payload.get("status") == "failed" else 0

    if args.remote is not None:
        from ..core.stages.campaign import (
            load_samplesheet_document,
            parse_samplesheet,
        )

        document = load_samplesheet_document(args.samplesheet)
        # Validate locally first: a schema error costs one parse, not a
        # round trip, and the message names the offending row either way.
        parse_samplesheet(document, name=Path(args.samplesheet).stem)
        client = ZatelClient(
            args.remote,
            backpressure_retries=max(0, getattr(args, "max_retries", 5)),
        )
        payload = client.campaign({**document, "wait": not args.no_wait})
        if args.no_wait:
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        report = payload
    else:
        from ..core.stages.campaign import load_samplesheet
        from ..harness.reporting import campaign_report

        campaign = load_samplesheet(args.samplesheet)
        result = shared_runner().campaign(campaign)
        report = campaign_report(result)

    if args.out:
        Path(args.out).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        _print_campaign_report(report)
        if args.out:
            print(f"wrote {args.out}")
    return 0 if report.get("succeeded", False) else 3
