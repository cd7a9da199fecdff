"""Which layer owns a source file.

Layers are this repo's modules.  ``core`` and ``madeleine`` are split by
file because ``core`` alone is half of the executed bytecodes; a file of
those two packages that the table does not name lands in
``core.other`` / ``madeleine.other``, any other ``repro`` package
(``live``, ``mpi``, ``baseline``, ``bench``, top-level files) in
``other``, and everything outside ``src/repro`` (stdlib, numpy's Python
side) in ``python``.  A later change that deletes a file therefore zeroes
a row instead of breaking a metric name.
"""

from __future__ import annotations

import os

__all__ = ["LAYERS", "layer_of_relpath", "LayerMap"]

#: Files of the split packages, by layer.
_SPLIT = {
    "madeleine": {
        "madeleine.submit": {"__init__.py", "api.py", "message.py", "submit.py", "compat.py"},
        "madeleine.rx": {"rx.py"},
    },
    "core": {
        "core.engine": {"engine.py"},
        "core.waiting": {"waiting.py"},
        "core.channels": {"channels.py", "adaptive.py"},
        "core.decide": {
            "_kernel_hot.py", "kernel.py", "cost.py", "plan.py", "constraints.py",
        },
    },
}

#: Packages that are one layer each.
_WHOLE = ("drivers", "network", "sim", "middleware", "runtime", "obs", "util", "tuner")

#: Every layer name, in report order.
LAYERS: tuple[str, ...] = (
    "madeleine.submit", "madeleine.rx", "madeleine.other",
    "core.engine", "core.waiting", "core.channels", "core.decide", "core.other",
    *_WHOLE,
    "other", "python",
)


def layer_of_relpath(relpath: str) -> str:
    """Layer of a file given its path relative to ``src/repro``."""
    parts = relpath.replace(os.sep, "/").split("/")
    package = parts[0]
    if package in _WHOLE:
        return package
    if package in _SPLIT and len(parts) > 1:
        if package == "core" and parts[1] == "strategies":
            return "core.decide"
        for layer, files in _SPLIT[package].items():
            if parts[1] in files:
                return layer
        return f"{package}.other"
    return "other"


class LayerMap:
    """Code object → layer index, cached (the hooks call this per frame)."""

    def __init__(self, repro_dir: str) -> None:
        self._root = os.path.realpath(repro_dir) + os.sep
        self._index = {name: i for i, name in enumerate(LAYERS)}
        self._by_file: dict[str, int] = {}

    def of_file(self, filename: str) -> int:
        index = self._by_file.get(filename)
        if index is None:
            real = os.path.realpath(filename)
            if real.startswith(self._root):
                layer = layer_of_relpath(real[len(self._root):])
            else:
                layer = "python"
            index = self._by_file[filename] = self._index[layer]
        return index
