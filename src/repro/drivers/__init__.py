"""Network drivers: technology capabilities + transfer execution.

The bottom layer of Figure 1 ("Mad.Driver/MX", "Mad.Driver/Elan").  Each
driver binds one NIC and publishes a
:class:`~repro.drivers.capabilities.DriverCapabilities` descriptor; the
optimization engine's strategies are *parameterized* by these
capabilities (paper abstract: "Optimizations are parameterized by the
capabilities of the underlying network drivers").
"""

from repro.drivers.base import AggregationChoice, Driver
from repro.drivers.capabilities import DriverCapabilities
from repro.drivers.elan import ElanDriver
from repro.drivers.mx import MxDriver
from repro.drivers.registry import DRIVER_TYPES, make_driver
from repro.drivers.tcp import TcpDriver

__all__ = [
    "AggregationChoice",
    "DRIVER_TYPES",
    "Driver",
    "DriverCapabilities",
    "ElanDriver",
    "MxDriver",
    "TcpDriver",
    "make_driver",
]
