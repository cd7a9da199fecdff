"""Driver registry: technology tag → driver class.

Mirrors Madeleine's driver loading: the runtime looks a technology up by
name when assembling a node, so adding a technology is one registry
entry plus a capability profile.
"""

from __future__ import annotations

from repro.drivers.base import Driver
from repro.drivers.elan import ElanDriver
from repro.drivers.mx import MxDriver
from repro.drivers.tcp import TcpDriver
from repro.network.nic import NIC
from repro.util.errors import ConfigurationError

__all__ = ["DRIVER_TYPES", "make_driver"]

#: Technology tag → driver class.
DRIVER_TYPES: dict[str, type[Driver]] = {
    "mx": MxDriver,
    "elan": ElanDriver,
    "tcp": TcpDriver,
}


def make_driver(nic: NIC) -> Driver:
    """Instantiate the registered driver for a NIC's technology."""
    try:
        driver_type = DRIVER_TYPES[nic.link.name]
    except KeyError:
        raise ConfigurationError(
            f"no driver registered for technology {nic.link.name!r}"
        ) from None
    return driver_type(nic)
