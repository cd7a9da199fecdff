"""Tests for repro.util.units."""

import pytest

from repro.util import units


class TestConstants:
    def test_binary_sizes(self):
        assert units.KiB == 1024
        assert units.MiB == 1024**2
        assert units.GiB == 1024**3

    def test_time_units(self):
        assert units.us == pytest.approx(1e-6)
        assert units.ms == pytest.approx(1e-3)
        assert units.ns == pytest.approx(1e-9)


class TestFormatting:
    def test_format_size_bytes(self):
        assert units.format_size(17) == "17 B"

    def test_format_size_kib(self):
        assert units.format_size(4096) == "4.0 KiB"

    def test_format_size_mib(self):
        assert units.format_size(3 * units.MiB) == "3.0 MiB"

    def test_format_size_gib(self):
        assert units.format_size(2 * units.GiB) == "2.0 GiB"

    def test_format_time_scales(self):
        assert units.format_time(2.0) == "2.000 s"
        assert units.format_time(1.5e-3) == "1.500 ms"
        assert units.format_time(3.0e-6) == "3.000 us"
        assert units.format_time(50e-9) == "50.0 ns"

    def test_format_rate(self):
        assert units.format_rate(250e6) == "250.00 MB/s"
