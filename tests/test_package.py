"""Package-level smoke tests: public API surface and docstring coverage."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro


class TestPublicApi:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_quickstart_from_docstring_works(self):
        """The README/module quickstart must actually run."""
        from repro import Cluster, TrafficClass

        cluster = Cluster(n_nodes=2, networks=[("mx", 1)], engine="optimizing")
        api = cluster.api("n0")
        flow = api.open_flow("n1", traffic_class=TrafficClass.BULK)
        message = api.send(flow, payload_size=4096)
        cluster.run_until_idle()
        assert message.completion.value > 0


def _walk_modules():
    for module_info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if "__main__" in module_info.name:
            continue
        yield importlib.import_module(module_info.name)


class TestDocumentation:
    def test_every_module_has_docstring(self):
        undocumented = [m.__name__ for m in _walk_modules() if not m.__doc__]
        assert undocumented == []

    def test_every_public_class_has_docstring(self):
        undocumented = []
        for module in _walk_modules():
            for name, obj in vars(module).items():
                if name.startswith("_") or not inspect.isclass(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue  # re-export
                if not obj.__doc__:
                    undocumented.append(f"{module.__name__}.{name}")
        assert undocumented == []

    def test_every_public_function_has_docstring(self):
        undocumented = []
        for module in _walk_modules():
            for name, obj in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                if not obj.__doc__:
                    undocumented.append(f"{module.__name__}.{name}")
        assert undocumented == []

    def test_public_methods_documented(self):
        """Public methods carry docstrings, directly or via the
        overridden base-class method (interface implementations inherit
        the contract's documentation)."""

        def documented(cls, meth_name):
            for base in cls.__mro__:
                meth = vars(base).get(meth_name)
                if meth is not None and getattr(meth, "__doc__", None):
                    return True
            return False

        undocumented = []
        for module in _walk_modules():
            for cls_name, cls in vars(module).items():
                if cls_name.startswith("_") or not inspect.isclass(cls):
                    continue
                if cls.__module__ != module.__name__:
                    continue
                for meth_name, meth in vars(cls).items():
                    if meth_name.startswith("_") or not inspect.isfunction(meth):
                        continue
                    if not documented(cls, meth_name):
                        undocumented.append(
                            f"{module.__name__}.{cls_name}.{meth_name}"
                        )
        assert undocumented == []


def _import_time_nodes(body):
    """Every AST node evaluated when a module is imported: module and
    class bodies, and of a function only its decorators and defaults."""
    stack = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            stack.extend(getattr(node, "decorator_list", []))
            stack.extend(d for d in args.defaults + args.kw_defaults if d is not None)
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def process_scoped_counters(source: str) -> list[str]:
    """Names of id counters a module would share across runs: an
    ``itertools.count()`` built at import time, or a module-level integer
    that a function rebinds through ``global``."""
    tree = ast.parse(source)
    found = []
    for node in _import_time_nodes(tree.body):
        if isinstance(node, ast.Call):
            callee = ast.unparse(node.func)
            if callee in ("itertools.count", "count"):
                found.append(f"line {node.lineno}: {callee}()")
    module_ints = {
        target.id
        for stmt in tree.body
        if isinstance(stmt, (ast.Assign, ast.AnnAssign))
        and isinstance(stmt.value, ast.Constant)
        and type(stmt.value.value) is int
        for target in (stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target])
        if isinstance(target, ast.Name)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            found.extend(
                f"line {node.lineno}: global {name}"
                for name in node.names
                if name in module_ints
            )
    return found


class TestNoProcessScopedIdentity:
    """Ids come from the run (``sim.ids``) or from structure: a counter
    has to live on an instance somebody creates per run."""

    def test_scan_catches_the_patterns(self):
        assert process_scoped_counters("import itertools\n_ids = itertools.count()")
        assert process_scoped_counters(
            "from itertools import count\nclass Engine:\n    _tokens = count()"
        )
        assert process_scoped_counters(
            "_next = 0\ndef take():\n    global _next\n    _next += 1\n    return _next"
        )
        assert process_scoped_counters(
            "import itertools\ndef take(ids=itertools.count()):\n    return next(ids)"
        )
        assert not process_scoped_counters(
            "import itertools\nLIMIT = 4\nclass Ids:\n"
            "    def __init__(self):\n        self.flow = itertools.count().__next__"
        )

    def test_no_module_or_class_level_counter_in_src(self):
        offenders = {
            str(path.relative_to(repro.__path__[0])): found
            for path in sorted(Path(repro.__path__[0]).rglob("*.py"))
            if (found := process_scoped_counters(path.read_text(encoding="utf-8")))
        }
        assert offenders == {}


def loop_reaches(source: str) -> list[int]:
    """Line numbers of every ``<expr>._loop`` attribute access."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "_loop"
    ]


class TestOneUncountedTimer:
    """Only ``live/loop.py`` touches the asyncio loop behind a
    ``LiveClock``: a timer that must not hold quiescence open is
    ``clock.background(...)``, which also refreshes ``now``."""

    def test_scan_catches_a_raw_loop_timer(self):
        assert loop_reaches("self.clock._loop.call_later(d, self._tick)") == [1]
        assert loop_reaches("self._clock.background(d, self._tick)") == []

    def test_no_loop_reach_in_the_live_plane_outside_the_clock(self):
        live = Path(repro.__path__[0]) / "live"
        offenders = {
            path.name: found
            for path in sorted(live.glob("*.py"))
            if path.name != "loop.py"
            and (found := loop_reaches(path.read_text(encoding="utf-8")))
        }
        assert offenders == {}
