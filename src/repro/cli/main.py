"""``python -m repro`` — the command-line interface.

Subcommands cover the workflows a downstream user runs most:

=============  ==========================================================
``scenes``     list the scene library with geometry statistics
``configs``    show the Table II GPU presets (and their downscaled forms)
``render``     render a scene to a PPM image
``heatmap``    write a scene's execution-time heatmap (optionally
               quantized) as a PPM
``simulate``   run the full cycle-level simulation and print Table I
``predict``    run the Zatel pipeline (optionally validating against a
               full simulation)
``campaign``   run a TOML/JSON samplesheet of scene recipes x GPU grids
               over one shared store with QC gates (``campaign run``),
               locally or against a service (``POST /campaigns``); poll a
               submitted job with ``campaign status``
``trace``      export a frame trace as a portable ``.ztrace`` file; with
               ``--timeline`` run the simulator with telemetry on and
               export a ``.zperf`` timeline trace; with ``--serve`` host
               the observability dashboard over an existing ``.zperf``
               (offline, no service needed)
``inspect``    summarize a ``.ztrace`` file
``serve``      run the HTTP prediction service (``POST /predict``,
               ``GET /jobs/<id>``, ``GET /healthz``, ``GET /readyz``,
               ``GET /metrics``); each worker thread runs its jobs in
               its own forked job process
=============  ==========================================================

Every command accepts ``--size`` (plane side length) and caches frame
traces under ``.cache/`` through the shared harness runner, so repeated
invocations are fast.
"""

from __future__ import annotations

import argparse
import sys

from ..errors import SimulationError
from .commands import (
    cmd_campaign,
    cmd_configs,
    cmd_heatmap,
    cmd_inspect,
    cmd_predict,
    cmd_render,
    cmd_scenes,
    cmd_serve,
    cmd_simulate,
    cmd_trace,
)

__all__ = ["build_parser", "console_main", "main"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for docs and tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Zatel: sample complexity-aware scale-model simulation for "
            "ray tracing (ISPASS 2024 reproduction)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("scenes", help="list the scene library").set_defaults(
        func=cmd_scenes
    )
    subparsers.add_parser(
        "configs", help="show GPU configuration presets"
    ).set_defaults(func=cmd_configs)

    def add_workload_args(
        p: argparse.ArgumentParser,
        default_size: int = 96,
        scene_optional: bool = False,
    ):
        if scene_optional:
            p.add_argument(
                "scene", nargs="?", default=None,
                help="library scene name (see `repro scenes`)",
            )
        else:
            p.add_argument(
                "scene", help="library scene name (see `repro scenes`)"
            )
        p.add_argument("--size", type=int, default=default_size,
                       help="image plane side length")
        p.add_argument("--spp", type=int, default=1, help="samples per pixel")
        p.add_argument("--seed", type=int, default=0, help="trace RNG seed")

    render = subparsers.add_parser("render", help="render a scene to PPM")
    add_workload_args(render)
    render.add_argument("--out", default=None, help="output .ppm path")
    render.set_defaults(func=cmd_render)

    heatmap = subparsers.add_parser(
        "heatmap", help="write a scene's execution-time heatmap"
    )
    add_workload_args(heatmap)
    heatmap.add_argument("--out", default=None, help="output .ppm path")
    heatmap.add_argument(
        "--quantize", type=int, default=0, metavar="K",
        help="K-Means quantize to K colors before writing (0 = raw)",
    )
    heatmap.set_defaults(func=cmd_heatmap)

    simulate = subparsers.add_parser(
        "simulate", help="full cycle-level simulation (ground truth)"
    )
    add_workload_args(simulate)
    simulate.add_argument("--gpu", default="mobile",
                          help="GPU preset: mobile or rtx2060")
    simulate.set_defaults(func=cmd_simulate)

    predict = subparsers.add_parser("predict", help="run the Zatel pipeline")
    add_workload_args(predict)
    predict.add_argument("--gpu", default="mobile")
    predict.add_argument("--division", choices=("fine", "coarse"), default="fine")
    predict.add_argument(
        "--distribution", choices=("uniform", "lintmp", "exptmp"),
        default="uniform",
    )
    predict.add_argument(
        "--fraction", type=float, default=None,
        help="pin the traced fraction (default: equation (1))",
    )
    predict.add_argument(
        "--sampler", choices=("heatmap", "ranked_set", "two_phase"),
        default="heatmap",
        help=(
            "pixel-selection engine: the paper's K-Means heatmap quotas "
            "(heatmap, point prediction), ranked set sampling with "
            "repeated subsampling (ranked_set), or two-phase stratified "
            "sampling with Neyman allocation (two_phase); the latter two "
            "report per-metric variances and confidence intervals"
        ),
    )
    predict.add_argument(
        "--replicates", type=int, default=5, metavar="R",
        help=(
            "independent replicate subsets for the variance-estimating "
            "samplers (default 5; ignored by the heatmap sampler)"
        ),
    )
    predict.add_argument(
        "--workers", type=int, default=None,
        help="run the K group simulations on this many CPU cores",
    )
    predict.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help=(
            "per-group-attempt wall-clock budget; a hung worker is "
            "killed and retried (requires --workers > 1)"
        ),
    )
    predict.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="re-attempts per group after a crash/timeout/error (default 2)",
    )
    predict.add_argument(
        "--resume", action="store_true",
        help=(
            "checkpoint each completed group under the cache dir and "
            "resume a previously interrupted prediction from there"
        ),
    )
    predict.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help=(
            "directory for per-group checkpoints (default: derived from "
            "the workload under .cache/checkpoints/; implies checkpointing)"
        ),
    )
    predict.add_argument(
        "--compare", action="store_true",
        help="also run the full simulation and print per-metric errors",
    )
    predict.add_argument(
        "--json", action="store_true",
        help=(
            "emit the result as JSON on stdout (metrics, degraded flag, "
            "plane coverage, failure audit) instead of tables"
        ),
    )
    predict.add_argument(
        "--adaptive", action="store_true",
        help=(
            "use the adaptive sample-complexity controller instead of the "
            "paper's fixed equation-(1) fraction (extension)"
        ),
    )
    predict.add_argument(
        "--remote", default=None, metavar="URL",
        help=(
            "send the prediction to a running `repro serve` instance "
            "(e.g. http://127.0.0.1:8700) instead of computing locally"
        ),
    )
    predict.add_argument(
        "--max-retries", type=int, default=5, metavar="N",
        help=(
            "with --remote: 429 backpressure responses to absorb (capped "
            "exponential backoff) before giving up (default 5)"
        ),
    )
    predict.set_defaults(func=cmd_predict)

    campaign = subparsers.add_parser(
        "campaign",
        help=(
            "execute a TOML/JSON samplesheet (scene recipes x GPU grids "
            "x samplers) over one shared store with QC gates"
        ),
    )
    campaign_sub = campaign.add_subparsers(dest="action", required=True)
    campaign_run = campaign_sub.add_parser(
        "run", help="run a samplesheet locally or on a serve instance"
    )
    campaign_run.add_argument(
        "samplesheet", help="path to a .toml or .json samplesheet"
    )
    campaign_run.add_argument(
        "--remote", default=None, metavar="URL",
        help=(
            "submit to a running `repro serve` instance "
            "(POST /campaigns) instead of executing locally"
        ),
    )
    campaign_run.add_argument(
        "--no-wait", action="store_true",
        help=(
            "with --remote: enqueue and print the job id instead of "
            "blocking (poll with `campaign status`)"
        ),
    )
    campaign_run.add_argument(
        "--json", action="store_true",
        help="emit the full campaign report as JSON on stdout",
    )
    campaign_run.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the JSON campaign report to FILE",
    )
    campaign_run.add_argument(
        "--max-retries", type=int, default=5, metavar="N",
        help=(
            "with --remote: 429 backpressure responses to absorb before "
            "giving up (default 5)"
        ),
    )
    campaign_run.set_defaults(func=cmd_campaign)
    campaign_status = campaign_sub.add_parser(
        "status", help="poll a campaign job submitted with --no-wait"
    )
    campaign_status.add_argument("job_id", help="the job id the 202 returned")
    campaign_status.add_argument(
        "--remote", required=True, metavar="URL",
        help="the serve instance holding the job",
    )
    campaign_status.set_defaults(func=cmd_campaign)

    trace = subparsers.add_parser(
        "trace",
        help=(
            "export a frame trace (.ztrace), a telemetry timeline trace "
            "(.zperf) with --timeline, or explore an existing .zperf in "
            "the browser with --serve"
        ),
    )
    add_workload_args(trace, scene_optional=True)
    trace.add_argument("--out", default=None,
                       help="output .ztrace/.zperf path")
    trace.add_argument(
        "--timeline", action="store_true",
        help=(
            "run the cycle simulator with the telemetry bus enabled and "
            "export a .zperf timeline trace (JSON lines: interval "
            "snapshots, contention windows, summary) instead of a .ztrace"
        ),
    )
    trace.add_argument(
        "--gpu", default="mobile",
        help="GPU preset or INI path for --timeline (default mobile)",
    )
    trace.add_argument(
        "--interval", type=int, default=1024, metavar="CYCLES",
        help=(
            "cycles between telemetry interval snapshots for --timeline "
            "(default 1024)"
        ),
    )
    trace.add_argument(
        "--serve", default=None, metavar="FILE.zperf",
        help=(
            "serve the observability dashboard over an existing .zperf "
            "trace (offline: no scene, no simulation, no service needed); "
            "open /dashboard on the printed address"
        ),
    )
    trace.add_argument(
        "--host", default="127.0.0.1",
        help="bind address for --serve (default 127.0.0.1)",
    )
    trace.add_argument(
        "--port", type=int, default=0,
        help="bind port for --serve; 0 picks an ephemeral port (default)",
    )
    trace.set_defaults(func=cmd_trace)

    inspect = subparsers.add_parser(
        "inspect", help="summarize a .ztrace file"
    )
    inspect.add_argument("file", help="path to a .ztrace file")
    inspect.set_defaults(func=cmd_inspect)

    serve = subparsers.add_parser(
        "serve", help="run the HTTP prediction service"
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8700,
                       help="bind port; 0 picks an ephemeral port")
    serve.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help=(
            "jobs run at once: each worker thread runs its jobs in its "
            "own forked job process (default 2)"
        ),
    )
    serve.add_argument(
        "--exec-workers", type=int, default=None, metavar="N",
        help=(
            "forked CPU workers per prediction (GroupExecutor); "
            "default: serial in-process groups"
        ),
    )
    serve.add_argument(
        "--queue-capacity", type=int, default=16, metavar="N",
        help=(
            "max jobs queued + running before requests get "
            "429 Too Many Requests (default 16)"
        ),
    )
    serve.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="artifact/result cache root (default: the shared .cache/)",
    )
    serve.add_argument(
        "--no-cache", action="store_true",
        help="disable the fingerprint-keyed result cache",
    )
    serve.add_argument(
        "--timeline-interval", type=int, default=1024, metavar="CYCLES",
        help=(
            "telemetry snapshot interval served predictions run with, "
            "feeding GET /dashboard's timeline view (default 1024; 0 "
            "disables instrumentation — results are identical either way)"
        ),
    )
    serve.set_defaults(func=cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SimulationError as error:
        # Structured execution failures (quorum violations, unrecoverable
        # corruption, ...) get their own exit code so sweep scripts can
        # tell "bad arguments" from "run degraded beyond rescue".
        print(f"execution error: {error}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def console_main() -> None:
    """``zatel`` console-script entry point (exits with :func:`main`'s code)."""
    sys.exit(main())
