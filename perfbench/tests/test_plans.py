"""Percentile choice and the seeded op order and serve mix."""

from collections import Counter

from perfbench import common, inproc, serve


def test_reported_tail_has_ten_samples_beyond_it():
    assert common.tail_percentile(common.MIN_TAIL_SAMPLES) == 90
    assert common.samples_beyond(100, 90) == 10
    assert common.samples_beyond(100, 95) < 10
    assert common.tail_percentile(200) == 95
    assert common.tail_percentile(5) is None
    for count in range(1, 1000):
        q = common.tail_percentile(count)
        if q is not None:
            assert common.samples_beyond(count, q) >= 10
    summary = common.tail_summary([float(v) for v in range(300)], scale=2.0)
    assert summary["percentile"] == 95 and summary["samples"] == 300


def test_mean_of_medians_weighs_every_key_once():
    samples = {"fast": [1.0, 1.0, 9.0], "slow": [10.0] * 7}
    assert common.mean_of_medians(samples) == 5.5


def test_percentile_interpolates_between_ranks():
    values = [float(v) for v in range(1, 101)]
    assert common.percentile(values, 50) == 50.5
    assert common.percentile(values, 0) == 1.0
    assert common.percentile(values, 100) == 100.0


def test_round_plan_is_seeded_and_always_covers_every_pair():
    pairs = [(s, g) for s in ("A", "B", "C") for g in common.GPUS]
    assert common.round_plan(pairs, 3, 1) == common.round_plan(pairs, 3, 1)
    assert common.round_plan(pairs, 3, 1) != common.round_plan(pairs, 3, 2)
    for order in common.round_plan(pairs, 3, 5):
        assert sorted(order) == sorted(pairs)


def test_serve_plan_mix_is_seeded_with_fixed_counts():
    assert common.serve_plan(0, 8, 3) == common.serve_plan(0, 8, 3)
    assert common.serve_plan(0, 8, 3) != common.serve_plan(0, 8, 4)
    counts = {
        seed: Counter(kind for c in range(2) for kind, _ in common.serve_plan(c, 8, seed))
        for seed in range(5)
    }
    assert all(c == counts[0] for c in counts.values())
    assert counts[0]["miss"] == 2 * 8 * 2
    hit_counts = Counter(
        str(body) for kind, body in common.serve_plan(0, 8, 1) if kind == "hit"
    )
    assert set(hit_counts.values()) == {8 * 18 // len(common.hit_set())}
    mixes = {
        seed: Counter(
            (str(body["scene"]), body["size"])
            for c in range(2)
            for kind, body in common.serve_plan(c, 8, seed)
            if kind == "miss"
        )
        for seed in range(5)
    }
    assert all(m == mixes[0] for m in mixes.values())


def test_fresh_specs_come_in_gpu_pairs_and_never_overlap_between_connections():
    seeds = []
    for connection in range(2):
        plan = common.serve_plan(connection, 8, 9)
        for i, (kind, body) in enumerate(plan):
            if kind == "miss" and body["gpu"] == "mobile":
                follow_kind, follow = plan[i + 1]
                assert follow_kind == "miss" and follow["gpu"] == "rtx2060"
                assert {**follow, "gpu": "mobile"} == body
                seeds.append((connection, body["seed"]))
    first = {s for c, s in seeds if c == 0}
    second = {s for c, s in seeds if c == 1}
    assert first and second and not first & second


def test_every_run_collects_enough_tail_samples(tmp_path):
    for shape in (inproc.PREDICT, inproc.VALIDATE):
        for seconds in (1, 15, 60):
            run = inproc.InProcess(shape, 0, seconds, tmp_path)
            assert run.warm_repeats * len(run.ops) >= common.MIN_TAIL_SAMPLES
    for seconds in (1, 15, 60):
        hits = sum(
            kind == "hit" for plan in serve.plans_for(0, seconds) for kind, _ in plan
        )
        assert hits >= common.MIN_TAIL_SAMPLES
