"""Sanity checks on the calibrated technology presets."""

import pytest

from repro.network.model import TransferMode
from repro.network.technologies import (
    TECHNOLOGIES,
    gige_tcp,
    myrinet_mx,
    quadrics_elan,
)
from repro.util.units import KiB, MiB, us


class TestRegistry:
    def test_all_registered(self):
        assert set(TECHNOLOGIES) == {"mx", "elan", "tcp"}

    def test_names_match_keys(self):
        for key, factory in TECHNOLOGIES.items():
            assert factory().name == key

    def test_factories_return_fresh_equal_models(self):
        assert myrinet_mx() == myrinet_mx()


class TestCalibrationShapes:
    """The relative shapes the experiments rely on (not absolute values)."""

    def test_elan_lower_latency_than_mx(self):
        assert quadrics_elan().dma_latency < myrinet_mx().dma_latency

    def test_elan_higher_bandwidth_than_mx(self):
        assert quadrics_elan().dma_bandwidth > myrinet_mx().dma_bandwidth

    def test_tcp_much_slower_startup(self):
        assert gige_tcp().dma_latency > 10 * myrinet_mx().dma_latency

    @pytest.mark.parametrize("factory", list(TECHNOLOGIES.values()))
    def test_pio_startup_below_dma_startup(self, factory):
        link = factory()
        assert link.pio_latency <= link.dma_latency

    @pytest.mark.parametrize("factory", list(TECHNOLOGIES.values()))
    def test_dma_bandwidth_above_pio(self, factory):
        link = factory()
        assert link.dma_bandwidth >= link.pio_bandwidth

    def test_mx_crossover_in_small_message_range(self):
        """PIO/DMA crossover on MX falls in the sub-4KiB regime."""
        crossover = myrinet_mx().pio_dma_crossover()
        assert 64 <= crossover <= 4 * KiB

    def test_mx_large_message_latency_scale(self):
        """A 1 MiB DMA transfer on MX takes about 4 ms (247 MB/s)."""
        t = myrinet_mx().one_way_time(1 * MiB, TransferMode.DMA)
        assert 3e-3 < t < 6e-3

    def test_mx_small_message_latency_scale(self):
        """Small-message PIO latency on MX is a few microseconds."""
        t = myrinet_mx().one_way_time(8, TransferMode.PIO)
        assert 1 * us < t < 5 * us
