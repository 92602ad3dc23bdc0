"""Tests for the pluggable sampling engine (step 5 as a design space)."""

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import Heatmap, Zatel, ZatelConfig, quantize_heatmap, select_pixels
from repro.core.samplers import (
    SAMPLER_NAMES,
    HeatmapKMeansSampler,
    RankedSetSampler,
    TwoPhaseStratifiedSampler,
    make_sampler,
    replicate_mean_and_variance,
)
from repro.core.stages.fingerprint import stable_hash
from repro.core.stages.requests import PredictSpec, spec_fingerprint
from repro.gpu import MOBILE_SOC
from repro.harness.service import result_payload
from repro.service.protocol import parse_predict_payload
from tests.test_heatmap_quantize import synthetic_frame

REPLICATE_SAMPLERS = ("ranked_set", "two_phase")


@pytest.fixture(scope="module")
def quantized():
    frame = synthetic_frame(width=32, height=8, hot_column=16, spread=60)
    hm = Heatmap.from_frame(frame, warp_width=0)
    return quantize_heatmap(hm, num_colors=4, seed=0)


@pytest.fixture(scope="module")
def plane_pixels():
    return [(x, y) for y in range(8) for x in range(32)]


def design_digest(design) -> str:
    """A process-stable digest of a :class:`SampleDesign`."""
    return stable_hash(
        tuple(tuple(sorted(subset)) for subset in design.replicates),
        design.fractions,
        design.sampler,
        tuple(sorted(design.params.items())),
        design.seed,
    )


class TestSampleDesign:
    @pytest.mark.parametrize("name", SAMPLER_NAMES)
    def test_design_invariants(self, quantized, plane_pixels, name):
        sampler = make_sampler(ZatelConfig(sampler=name, replicates=3))
        design = sampler.design(quantized, plane_pixels, 0.5, seed=3)
        assert design.sampler == name
        assert design.replicate_count == len(design.fractions)
        universe = set(plane_pixels)
        for subset, fraction in zip(design.replicates, design.fractions):
            assert subset and subset <= universe
            assert 0.0 < fraction <= 1.0

    def test_heatmap_design_matches_historical_selection(
        self, quantized, plane_pixels
    ):
        # The default sampler *is* the paper's quota selection: one
        # replicate, nominal fraction, identical pixel set per seed.
        sampler = HeatmapKMeansSampler()
        design = sampler.design(quantized, plane_pixels, 0.5, seed=9)
        assert design.replicate_count == 1
        assert design.fractions == (0.5,)
        assert design.replicates[0] == frozenset(
            select_pixels(quantized, plane_pixels, 0.5, seed=9)
        )

    @pytest.mark.parametrize("name", REPLICATE_SAMPLERS)
    def test_replicates_draw_the_full_budget(
        self, quantized, plane_pixels, name
    ):
        # Full-budget repeated subsampling: every replicate approximates
        # fraction * len(pixels) on its own (never fraction / R).
        sampler = make_sampler(ZatelConfig(sampler=name, replicates=4))
        design = sampler.design(quantized, plane_pixels, 0.5, seed=0)
        target = 0.5 * len(plane_pixels)
        for subset in design.replicates:
            assert len(subset) >= target / 2

    def test_replicate_draws_are_not_all_identical(
        self, quantized, plane_pixels
    ):
        # Regression: a one-block budget used to pick the same RSS rank
        # (hence the same block) in every replicate — zero variance.
        sampler = RankedSetSampler(replicates=5)
        design = sampler.design(quantized, plane_pixels, 0.25, seed=0)
        assert len(set(design.replicates)) > 1


class TestDeterminism:
    @pytest.mark.parametrize("name", SAMPLER_NAMES)
    def test_same_seed_same_design(self, quantized, plane_pixels, name):
        sampler = make_sampler(ZatelConfig(sampler=name, replicates=3))
        a = sampler.design(quantized, plane_pixels, 0.5, seed=21)
        b = sampler.design(quantized, plane_pixels, 0.5, seed=21)
        assert a == b
        assert design_digest(a) == design_digest(b)

    @pytest.mark.parametrize("name", REPLICATE_SAMPLERS)
    def test_seeds_vary_the_design(self, quantized, plane_pixels, name):
        sampler = make_sampler(ZatelConfig(sampler=name, replicates=3))
        digests = {
            design_digest(sampler.design(quantized, plane_pixels, 0.5, seed=s))
            for s in range(10)
        }
        assert len(digests) > 1

    @pytest.mark.parametrize("name", SAMPLER_NAMES)
    def test_predictor_pickle_roundtrip(self, quantized, plane_pixels, name):
        # A pickled predictor must reproduce the original's designs and
        # stage fingerprints exactly, in any process.
        predictor = Zatel(MOBILE_SOC, ZatelConfig(sampler=name, replicates=3))
        clone = pickle.loads(pickle.dumps(predictor))
        assert clone.sampler == predictor.sampler
        assert clone._simulate_params() == predictor._simulate_params()
        a = predictor.sampler.design(quantized, plane_pixels, 0.5, seed=5)
        b = clone.sampler.design(quantized, plane_pixels, 0.5, seed=5)
        assert a == b

    def test_designs_and_fingerprints_stable_across_processes(self):
        # Equal seeds must reproduce designs bit-for-bit *in any
        # process* (no hash randomization, no iteration-order leaks).
        script = (
            "from tests.test_heatmap_quantize import synthetic_frame\n"
            "from tests.test_samplers import design_digest\n"
            "from repro.core import Heatmap, Zatel, ZatelConfig, quantize_heatmap\n"
            "from repro.core.samplers import make_sampler\n"
            "from repro.core.stages.fingerprint import stable_hash\n"
            "from repro.gpu import MOBILE_SOC\n"
            "frame = synthetic_frame(width=32, height=8, hot_column=16, spread=60)\n"
            "q = quantize_heatmap(Heatmap.from_frame(frame, warp_width=0),"
            " num_colors=4, seed=0)\n"
            "pixels = [(x, y) for y in range(8) for x in range(32)]\n"
            "for name in ('heatmap', 'ranked_set', 'two_phase'):\n"
            "    cfg = ZatelConfig(sampler=name, replicates=3)\n"
            "    design = make_sampler(cfg).design(q, pixels, 0.5, seed=11)\n"
            "    params = stable_hash(*Zatel(MOBILE_SOC, cfg)._simulate_params())\n"
            "    print(name, design_digest(design), params)\n"
        )
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            cwd=root,
            env={"PYTHONPATH": f"{root / 'src'}:{root}", "PATH": "/usr/bin:/bin"},
        )
        frame = synthetic_frame(width=32, height=8, hot_column=16, spread=60)
        q = quantize_heatmap(
            Heatmap.from_frame(frame, warp_width=0), num_colors=4, seed=0
        )
        pixels = [(x, y) for y in range(8) for x in range(32)]
        for line in proc.stdout.strip().splitlines():
            name, digest, params = line.split()
            cfg = ZatelConfig(sampler=name, replicates=3)
            design = make_sampler(cfg).design(q, pixels, 0.5, seed=11)
            assert design_digest(design) == digest
            assert stable_hash(*Zatel(MOBILE_SOC, cfg)._simulate_params()) == params


class TestFingerprints:
    def test_sampler_identities_never_alias(self):
        identities = {
            make_sampler(ZatelConfig(sampler=name)).fingerprint_params()
            for name in SAMPLER_NAMES
        }
        assert len(identities) == len(SAMPLER_NAMES)

    def test_identity_carries_algorithm_version(self):
        sampler = RankedSetSampler()
        assert sampler.fingerprint_params()[1] == sampler.version

    def test_knobs_change_the_identity(self):
        assert (
            RankedSetSampler(replicates=3).fingerprint_params()
            != RankedSetSampler(replicates=5).fingerprint_params()
        )

    def test_simulate_params_distinguish_samplers(self):
        hashes = {
            stable_hash(
                *Zatel(MOBILE_SOC, ZatelConfig(sampler=name))._simulate_params()
            )
            for name in SAMPLER_NAMES
        }
        assert len(hashes) == len(SAMPLER_NAMES)


class TestReplicateVariance:
    def test_mean_and_variance_of_the_mean(self):
        estimates = [{"cycles": 10.0}, {"cycles": 14.0}, {"cycles": 12.0}]
        means, variances = replicate_mean_and_variance(estimates)
        assert means["cycles"] == pytest.approx(12.0)
        # Sample variance 4.0, divided by R=3 replicates.
        assert variances["cycles"] == pytest.approx(4.0 / 3.0)

    def test_requires_two_replicates(self):
        with pytest.raises(ValueError):
            replicate_mean_and_variance([{"cycles": 1.0}])


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def results(self, small_scene, small_frame):
        return {
            name: Zatel(
                MOBILE_SOC, ZatelConfig(sampler=name, replicates=3)
            ).predict(small_scene, small_frame)
            for name in SAMPLER_NAMES
        }

    def test_default_sampler_is_a_point_prediction(self, results):
        result = results["heatmap"]
        assert result.variances == {}
        assert result.confidence_intervals() == {}
        assert result.sampler["name"] == "heatmap"

    @pytest.mark.parametrize("name", REPLICATE_SAMPLERS)
    def test_replicate_samplers_report_uncertainty(self, results, name):
        result = results[name]
        assert result.variances["cycles"] > 0.0
        assert result.dof == sum(g.replicates - 1 for g in result.groups)
        assert result.dof > 0
        lo, hi = result.confidence_intervals()["cycles"]
        assert lo < result.metrics["cycles"] < hi
        # Wider confidence -> wider interval.
        lo99, hi99 = result.confidence_intervals(level=0.99)["cycles"]
        assert lo99 < lo and hi < hi99

    @pytest.mark.parametrize("name", REPLICATE_SAMPLERS)
    def test_provenance_travels_on_the_result(self, results, name):
        provenance = results[name].sampler
        assert provenance["name"] == name
        assert provenance["params"]["replicates"] == 3
        assert provenance["seed"] == ZatelConfig().seed

    def test_service_payload_carries_uncertainty_block(self, results):
        payload = result_payload("small", "mobile", results["two_phase"])
        assert payload["sampler"]["name"] == "two_phase"
        assert payload["variances"]["cycles"] > 0.0
        intervals = payload["confidence_intervals"]
        assert set(intervals) == set(results["two_phase"].variances)
        for lo, hi in intervals.values():
            assert lo <= hi

    def test_invalid_confidence_level_rejected(self, results):
        with pytest.raises(ValueError):
            results["two_phase"].confidence_intervals(level=1.0)


class TestSpecValidation:
    def test_spec_accepts_samplers(self):
        for name in SAMPLER_NAMES:
            spec = PredictSpec(scene="SPRNG", sampler=name, replicates=4)
            assert spec.sampler == name

    def test_spec_rejects_unknown_sampler(self):
        with pytest.raises(ValueError, match="sampler"):
            PredictSpec(scene="SPRNG", sampler="sobol")

    @pytest.mark.parametrize("replicates", [1, 0, 17, True])
    def test_spec_rejects_bad_replicates(self, replicates):
        with pytest.raises(ValueError):
            PredictSpec(scene="SPRNG", replicates=replicates)

    def test_spec_fingerprint_distinguishes_samplers(self):
        a = PredictSpec(scene="SPRNG", sampler="ranked_set")
        b = PredictSpec(scene="SPRNG", sampler="two_phase")
        assert spec_fingerprint(a) != spec_fingerprint(b)
        assert spec_fingerprint(a) != spec_fingerprint(
            PredictSpec(scene="SPRNG", sampler="ranked_set", replicates=3)
        )

    def test_protocol_accepts_sampler_fields(self):
        spec, wait = parse_predict_payload(
            {"scene": "SPRNG", "sampler": "ranked_set", "replicates": 3}
        )
        assert (spec.sampler, spec.replicates) == ("ranked_set", 3)
        assert wait is True

    def test_protocol_rejects_wrong_types(self):
        with pytest.raises(ValueError, match="sampler"):
            parse_predict_payload({"scene": "SPRNG", "sampler": 5})
        with pytest.raises(ValueError, match="replicates"):
            parse_predict_payload({"scene": "SPRNG", "replicates": "many"})


class TestConfigValidation:
    def test_unknown_sampler_rejected(self):
        with pytest.raises(ValueError, match="sampler"):
            ZatelConfig(sampler="sobol")

    def test_too_few_replicates_rejected(self):
        with pytest.raises(ValueError, match="replicates"):
            ZatelConfig(replicates=1)

    def test_make_sampler_threads_the_knobs(self):
        config = ZatelConfig(
            sampler="two_phase", replicates=7, block_width=16, block_height=4
        )
        sampler = make_sampler(config)
        assert isinstance(sampler, TwoPhaseStratifiedSampler)
        assert sampler.params() == {
            "replicates": 7,
            "block_width": 16,
            "block_height": 4,
        }
