"""Tests for GPU configurations and downscaling (paper Table II, §III-C)."""

import dataclasses

import pytest

from repro.gpu import MOBILE_SOC, RTX_2060, CacheConfig, GPUConfig, preset
from repro.core import choose_downscale_factor, downscale_gpu, valid_factors


class TestCacheConfig:
    def test_fully_associative_single_set(self):
        cache = CacheConfig(64 * 1024, 128, 0, 20)
        assert cache.num_sets == 1
        assert cache.num_lines == 512

    def test_set_associative_geometry(self):
        cache = CacheConfig(256 * 1024, 128, 16, 160)
        assert cache.num_lines == 2048
        assert cache.num_sets == 128

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(1000, 128, 0, 20)  # size not multiple of line
        with pytest.raises(ValueError):
            CacheConfig(0, 128, 0, 20)


class TestPresets:
    def test_table_ii_mobile(self):
        assert MOBILE_SOC.num_sms == 8
        assert MOBILE_SOC.num_mem_partitions == 4
        assert MOBILE_SOC.registers_per_sm == 32768
        assert MOBILE_SOC.l2_total_bytes == 3 * 1024 * 1024

    def test_table_ii_rtx(self):
        assert RTX_2060.num_sms == 30
        assert RTX_2060.num_mem_partitions == 12
        assert RTX_2060.registers_per_sm == 65536
        assert RTX_2060.l2_total_bytes == 3 * 1024 * 1024

    def test_shared_table_ii_rows(self):
        for cfg in (MOBILE_SOC, RTX_2060):
            assert cfg.warp_size == 32
            assert cfg.max_warps_per_sm == 32
            assert cfg.rt_units_per_sm == 1
            assert cfg.rt_max_warps == 4
            assert cfg.rt_mshr_size == 64
            assert cfg.l1d.size_bytes == 64 * 1024
            assert cfg.l1d.associativity == 0  # fully associative

    def test_preset_lookup(self):
        assert preset("mobile") is MOBILE_SOC
        assert preset("RTX2060") is RTX_2060
        with pytest.raises(ValueError):
            preset("a100")

    def test_register_limited_occupancy(self):
        # Mobile: 32768 / (64 regs * 32 lanes) = 16 resident warps.
        assert MOBILE_SOC.resident_warps_per_sm == 16
        # RTX: 65536 / 2048 = 32, capped by max_warps_per_sm.
        assert RTX_2060.resident_warps_per_sm == 32

    def test_describe_mentions_key_numbers(self):
        text = MOBILE_SOC.describe()
        assert "8" in text and "MobileSoC" in text


class TestDownscaling:
    def test_gcd_factors_match_paper(self):
        # "Mobile SoC contains 8 SMs and 4 memory partitions, we use a
        # downscaling factor of K = 4 ... RTX 2060 ... K = 6."
        assert choose_downscale_factor(MOBILE_SOC) == 4
        assert choose_downscale_factor(RTX_2060) == 6

    def test_downscale_divides_components(self):
        small, k = downscale_gpu(MOBILE_SOC)
        assert k == 4
        assert small.num_sms == 2
        assert small.num_mem_partitions == 1

    def test_shared_resources_shrink_automatically(self):
        small = RTX_2060.downscale(6)
        # L2 slice unchanged => total LLC divides by K.
        assert small.l2_slice == RTX_2060.l2_slice
        assert small.l2_total_bytes == RTX_2060.l2_total_bytes // 6
        # DRAM channels = partitions => peak bandwidth divides by K.
        assert small.num_mem_partitions == 2

    def test_per_sm_resources_untouched(self):
        small = MOBILE_SOC.downscale(2)
        assert small.l1d == MOBILE_SOC.l1d
        assert small.rt_max_warps == MOBILE_SOC.rt_max_warps
        assert small.registers_per_sm == MOBILE_SOC.registers_per_sm

    def test_invalid_factor_rejected(self):
        with pytest.raises(ValueError):
            MOBILE_SOC.downscale(3)  # 8 % 3 != 0
        with pytest.raises(ValueError):
            MOBILE_SOC.downscale(0)

    def test_valid_factors(self):
        assert valid_factors(MOBILE_SOC) == [1, 2, 4]
        assert valid_factors(RTX_2060) == [1, 2, 3, 6]

    def test_explicit_factor(self):
        small, k = downscale_gpu(RTX_2060, 3)
        assert k == 3 and small.num_sms == 10

    def test_name_records_factor(self):
        assert "K4" in MOBILE_SOC.downscale(4).name

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GPUConfig(
                name="bad", num_sms=0, num_mem_partitions=1,
                registers_per_sm=1024, max_warps_per_sm=4,
            )


#: Component counts the simulator divides by or allocates per SM.
COMPONENT_COUNTS = (
    "rt_units_per_sm", "rt_max_warps", "issue_width", "registers_per_thread",
)


class TestComponentCounts:
    @pytest.mark.parametrize("name", COMPONENT_COUNTS)
    @pytest.mark.parametrize("value", [0, -1])
    def test_below_one_rejected_naming_the_field(self, name, value):
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(MOBILE_SOC, **{name: value})
