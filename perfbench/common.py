"""Shared pieces of the benchmark: paths, statistics, plans and checks.

Importing this module touches nothing outside the standard library, so
the set-up clock can start before ``repro`` is imported.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "data" / "reference.json"
GOLDEN_PATH = Path("tests") / "data" / "golden_predict.json"
RUNS_DIR = Path(".bench_runs")
HISTORY_PATH = RUNS_DIR / "history.jsonl"

#: Size of the frames the in-process workloads predict on.
FRAME_SIZE = 128
#: Size of the served hit set and of the golden predict metrics.
GOLDEN_SIZE = 24
GPUS = ("mobile", "rtx2060")
LIBRARY_SCENES = ("BATH", "BUNNY", "CHSNT", "PARK", "SHIP", "SPNZA", "SPRNG", "WKND")
PREDICT_SCENES = ("SPRNG", "BUNNY", "SPNZA")
VALIDATE_SCENES = ("SPRNG", "CHSNT", "SPNZA")
#: Set-up repetitions whose median is ``setup_s``.
SETUP_REPS = 3
#: Warm samples an in-process run collects, so that p90 has at least ten
#: samples beyond it.
MIN_TAIL_SAMPLES = 100


# ----------------------------------------------------------------------
# the program under test
# ----------------------------------------------------------------------


def checkout_sources() -> Path:
    """The checkout's ``src`` directory; exits non-zero when it is missing."""
    src = Path("src").resolve()
    if not (src / "repro" / "__init__.py").is_file() or not GOLDEN_PATH.is_file():
        raise SystemExit(
            f"perfbench: no program sources at {src}; run from the repository root"
        )
    return src


def import_repro(src: Path) -> None:
    """Put ``src`` first on ``sys.path``; fail unless ``repro`` loads from it.

    The benchmark always measures the sources of the checkout it runs in,
    never an installed copy.
    """
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linear between closest ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the ``q``-th percentile."""
    return count - 1 - math.floor((count - 1) * q / 100.0)


def tail_percentile(count: int, candidates=(99.0, 95.0, 90.0, 75.0, 50.0)) -> float | None:
    """The highest candidate percentile with at least ten samples beyond it."""
    for q in candidates:
        if samples_beyond(count, q) >= 10:
            return q
    return None


def mean_of_medians(samples: dict) -> float:
    """Mean over keys of each key's median sample.

    Latencies of different specs form separate clusters; a median over
    all of them would sit in the gap between two clusters and jump with
    the tail of either.  Each spec's own median is steady, and every spec
    counts once.
    """
    return statistics.fmean(statistics.median(values) for values in samples.values())


def tail_summary(values: list[float], scale: float = 1.0) -> dict:
    """The highest percentile with ten samples beyond it, with the count."""
    q = tail_percentile(len(values))
    return {
        "samples": len(values),
        "percentile": q,
        "value": percentile(values, q) * scale if q is not None else None,
    }


def quartile_spread(values: list[float]) -> dict:
    """Median, quartiles and (Q3 - Q1) / median of a metric across runs."""
    median = statistics.median(values)
    if len(values) < 2:
        return {"n": len(values), "median": median, "q1": median, "q3": median, "iqr_share": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "n": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / median if median else 0.0,
    }


# ----------------------------------------------------------------------
# host and process measurements
# ----------------------------------------------------------------------


def host_ref_seconds(iterations: int = 1_000_000) -> float:
    """A fixed pure-Python loop, timed: how fast the host runs right now.

    It moves no end-to-end metric; comparing it across runs tells host
    drift from a regression.
    """
    start = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += (i * i) % 7
    elapsed = time.perf_counter() - start
    if total < 0:  # keeps the loop's result live
        raise AssertionError
    return elapsed


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size of this process, or of its largest waited child."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def finite_metrics(metrics: dict) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in metrics.values())


# ----------------------------------------------------------------------
# seeded plans
# ----------------------------------------------------------------------


def round_plan(pairs: list, rounds: int, seed: int) -> list[list]:
    """``rounds`` seeded permutations of every pair.

    Whole rounds keep throughput independent of the op order: every run
    does the same work, only in another order.
    """
    rng = random.Random(f"rounds:{seed}")
    plan = []
    for _ in range(rounds):
        order = list(pairs)
        rng.shuffle(order)
        plan.append(order)
    return plan


#: Requests per block of a serve connection: 18 hits and one fresh pair.
SERVE_BLOCK = 20
FRESH_SCENES = ("SPRNG", "BUNNY", "SPNZA", "saturation")
FRESH_SIZES = (32, 48)
SATURATION = {"recipe": "saturation", "knobs": {"level": 0.5}, "seed": 1}


def hit_set() -> list[dict]:
    """The specs warmed in set-up and repeated as hits."""
    return [
        {"scene": scene, "size": GOLDEN_SIZE, "gpu": gpu}
        for scene in LIBRARY_SCENES
        for gpu in GPUS
    ]


def serve_plan(connection: int, blocks: int, seed: int) -> list[tuple[str, dict]]:
    """One connection's seeded request sequence of ``(kind, body)``.

    Every block of :data:`SERVE_BLOCK` requests holds 18 hit-set repeats
    and one fresh frame asked for on the mobile then the rtx2060 GPU, so
    the hit and miss counts are the same for every seed.  Hits walk
    seeded shuffles of the whole hit set, so every spec repeats about
    equally often.  Fresh specs
    take (scene, size) from a seeded permutation of all eight
    combinations, so each run does the same miss work in another order.
    Their render seeds are ``2 * block + connection + 1``: unique per
    block, and disjoint between the two connections.
    """
    rng = random.Random(f"serve:{seed}:{connection}")
    combos = [(s, z) for s in FRESH_SCENES for z in FRESH_SIZES]
    plan: list[tuple[str, dict]] = []
    order: list = []
    hits: list = []

    def next_hit() -> dict:
        if not hits:
            hits.extend(hit_set())
            rng.shuffle(hits)
        return hits.pop()

    for block in range(blocks):
        if not order:
            order = list(combos)
            rng.shuffle(order)
        scene, size = order.pop()
        spec_seed = 2 * block + connection + 1
        scene_value = SATURATION if scene == "saturation" else scene
        fresh = [
            ("miss", {"scene": scene_value, "size": size, "gpu": gpu, "seed": spec_seed})
            for gpu in GPUS
        ]
        requests = [("hit", next_hit()) for _ in range(SERVE_BLOCK - 2)]
        position = rng.randrange(len(requests) + 1)
        plan.extend(requests[:position] + fresh + requests[position:])
    return plan


# ----------------------------------------------------------------------
# reference data
# ----------------------------------------------------------------------


def pair_key(scene: str, gpu: str, size: int) -> str:
    return f"{scene}|{gpu}|{size}"


def load_reference() -> dict:
    """Committed full-GPU ground truth, keyed by :func:`pair_key`."""
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)["full_sim"]


def load_golden() -> dict:
    """The repository's golden 24x24 MobileSoC predict metrics per scene."""
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)["metrics"]


# ----------------------------------------------------------------------
# run bookkeeping
# ----------------------------------------------------------------------


def new_run_dir(tag: str) -> Path:
    """A fresh, empty scratch directory inside the checkout."""
    import tempfile

    RUNS_DIR.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=RUNS_DIR))


def append_history(record: dict) -> list[dict]:
    """Append this run to the history file; return the earlier runs too."""
    RUNS_DIR.mkdir(exist_ok=True)
    with open(HISTORY_PATH, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    with open(HISTORY_PATH, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def env_with_sources(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
