"""Run ``zatel serve`` with the benchmark's span wrappers installed.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/serve_launcher.py --spans SPANS.json -- serve --port 0 ...

Everything after ``--`` is handed to the ``zatel`` command line unchanged.
When the server stops (SIGTERM drains it gracefully), the recorded spans
are written to ``SPANS.json``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" not in argv:
        raise SystemExit("usage: serve_launcher.py --spans FILE -- <zatel arguments>")
    split = argv.index("--")
    parser = argparse.ArgumentParser(prog="serve_launcher.py")
    parser.add_argument("--spans", required=True, help="where to write the span dump")
    args = parser.parse_args(argv[:split])
    zatel_argv = argv[split + 1 :]

    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from perfbench.spans import Tracer

    import importlib

    zatel_main = importlib.import_module("repro.cli.main").main
    import repro.harness.service  # noqa: F401 - bound before the wrappers go in
    import repro.service  # noqa: F401

    tracer = Tracer().install()
    try:
        return zatel_main(zatel_argv)
    finally:
        tracer.uninstall()
        tracer.recorder.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
