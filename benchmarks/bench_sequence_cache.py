"""Cross-frame path-prediction cache carry-over (campaign engine).

The campaign engine threads the tracer's
``PathPredictionCache`` from frame ``k`` of an animated sequence into
frame ``k+1`` (rebound to the new BVH, stale leaves pruned).  This
benchmark quantifies what that buys: for each frame of an orbiting
procedural sequence it runs the occlusion pass twice — once with a cold
cache and once seeded with the previous frame's carried table — and
compares confirmed-hit rates.

Expected shapes: frame 0 is identical either way (nothing to carry);
on later frames the carried cache starts with the previous frame's
entries, so it confirms at least as many predictions as the cold cache
and a nonzero share of its hits come from carried entries.  Because
every prediction is validated against the real BVH before use, the
carry-over can only ever add confirmed hits — never wrong answers.
"""

from repro.scene.animation import SceneSequence
from repro.scene.bvh_packet import PathPredictionCache
from repro.scene.registry import resolve_scene
from repro.tracer.tracer import FunctionalTracer, RenderSettings
from repro.harness import format_table, save_result

FRAMES = 4
SIZE = 32


def _settings() -> RenderSettings:
    return RenderSettings(width=SIZE, height=SIZE, samples_per_pixel=1, seed=0)


def test_sequence_cache_carry(benchmark):
    sequence = SceneSequence.from_value(
        {
            "sequence": "saturation",
            "frames": FRAMES,
            "knobs": {"level": 0.5},
            "seed": 2,
            "orbit_degrees": 18.0,
        }
    )

    def experiment():
        rows = []
        stats = []
        carried_cache = None
        for spec in sequence.frame_specs():
            scene = resolve_scene(spec)
            tracer = FunctionalTracer(scene, _settings())

            cold = tracer.occlusion_pass(PathPredictionCache(scene.packed_bvh))
            # The carried cache is one object threaded across frames, so
            # its counters are cumulative — snapshot before the pass and
            # report per-frame deltas comparable to the cold run.
            before = (
                (carried_cache.lookups, carried_cache.hits,
                 carried_cache.carried_hits)
                if carried_cache is not None
                else (0, 0, 0)
            )
            carried_cache = tracer.occlusion_pass(carried_cache)
            lookups = carried_cache.lookups - before[0]
            carried_hits = carried_cache.hits - before[1]
            from_carry = carried_cache.carried_hits - before[2]

            stats.append(
                {
                    "frame": spec.frame,
                    "cold_hits": cold.hits,
                    "carried_hits": carried_hits,
                    "from_carry": from_carry,
                    "lookups": lookups,
                }
            )
            rows.append(
                [
                    spec.frame,
                    lookups,
                    cold.hits,
                    carried_hits,
                    from_carry,
                    from_carry / lookups if lookups else 0.0,
                ]
            )
        table = format_table(
            ["frame", "lookups", "cold hits", "carried hits",
             "from carry", "carry rate"],
            rows,
            title=(
                f"occlusion prediction cache across a {FRAMES}-frame "
                f"orbiting sequence ({SIZE}x{SIZE}, saturation recipe)"
            ),
            precision=3,
        )
        return table, stats

    report, stats = benchmark.pedantic(experiment, rounds=1, iterations=1)
    save_result("sequence_cache", report)
    print("\n" + report)

    # Shape 1: frame 0 has nothing to carry — both caches behave alike.
    assert stats[0]["from_carry"] == 0
    assert stats[0]["cold_hits"] == stats[0]["carried_hits"]
    # Shape 2: carry-over never loses confirmed hits on any frame.
    for frame in stats[1:]:
        assert frame["carried_hits"] >= frame["cold_hits"]
    # Shape 3: the measured win — pooled over frames 1.., a nonzero
    # number of confirmed predictions came from carried entries, and the
    # carried cache confirmed strictly more than the cold one somewhere.
    pooled_carry = sum(frame["from_carry"] for frame in stats[1:])
    assert pooled_carry > 0
    assert any(
        frame["carried_hits"] > frame["cold_hits"] for frame in stats[1:]
    )
