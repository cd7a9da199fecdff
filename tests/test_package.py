"""Package-level smoke tests: public API surface and docstring coverage."""

import ast
import importlib
import inspect
import json
import pkgutil
import re
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

    def test_docstring_references_resolve(self):
        """Every ``:class:`` / ``:func:`` / ``:mod:`` role naming a
        ``repro.*`` target in ``src/repro`` resolves to an importable
        name, or to an attribute its class assigns as ``self.<name>``."""

        def resolves(name):
            parts = name.split(".")
            for cut in range(len(parts), 0, -1):
                try:
                    obj = importlib.import_module(".".join(parts[:cut]))
                except ImportError:
                    continue
                rest = parts[cut:]
                for i, attr in enumerate(rest):
                    if not hasattr(obj, attr):
                        return (
                            i == len(rest) - 1
                            and inspect.isclass(obj)
                            and re.search(
                                rf"\bself\.{attr}\s*(:[^=\n]*)?=(?!=)", inspect.getsource(obj)
                            ) is not None
                        )
                    obj = getattr(obj, attr)
                return True
            return False

        role = re.compile(r":(?:class|func|mod):`~?(repro(?:\.\w+)+)`")
        dangling = sorted(
            f"{path.relative_to(Path(repro.__path__[0]))}: {target}"
            for path in Path(repro.__path__[0]).rglob("*.py")
            for target in set(role.findall(path.read_text(encoding="utf-8")))
            if not resolves(target)
        )
        assert dangling == []

    def test_docs_reference_what_exists(self):
        """Every back-ticked repo path and dotted ``repro.*`` name, and
        every ``--flag``, that the prose documents mention resolves: to a
        file, an importable name, or an ``add_argument`` of a CLI.  Every
        back-ticked ``repro_*`` metric name (a summary's ``_sum`` /
        ``_count`` series stripped) occurs as a string in ``src/repro``."""
        root = Path(repro.__path__[0]).parents[1]
        source = "\n".join(
            path.read_text(encoding="utf-8") for path in Path(repro.__path__[0]).rglob("*.py")
        )
        # Output files the reader names, not files of the repo.
        placeholders = {
            "trace.json", "merged.json", "scenario.json", "t.jsonl", "trace.jsonl", "merged.jsonl",
        }
        suffixes = (".py", ".md", ".json", ".jsonl", ".yml", ".toml")
        flags = {
            arg.value
            for cli in ("src/repro/__main__.py", "src/repro/bench/__main__.py",
                        "benchmarks/e2e/run.py")
            for call in ast.walk(ast.parse((root / cli).read_text(encoding="utf-8")))
            if isinstance(call, ast.Call)
            and getattr(call.func, "attr", None) == "add_argument"
            for arg in call.args
            if isinstance(arg, ast.Constant) and str(arg.value).startswith("--")
        }

        def importable(name):
            parts = name.split(".")
            for cut in range(len(parts), 0, -1):
                try:
                    obj = importlib.import_module(".".join(parts[:cut]))
                except ImportError:
                    continue
                return all(
                    (obj := getattr(obj, attr, None)) is not None
                    for attr in parts[cut:]
                )
            return False

        def is_file(token):
            if "/" not in token:  # a bare file name: anywhere below the root
                return token in placeholders or any(root.rglob(token))
            return any(
                any(base.glob(token))
                for base in (root, root / "src", root / "src" / "repro")
            )

        dangling = []
        for doc in ("README.md", "DESIGN.md", "docs/ARCHITECTURE.md", "EXPERIMENTS.md"):
            text = (root / doc).read_text(encoding="utf-8")
            for flag in set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text)) - flags:
                dangling.append(f"{doc}: {flag}")
            inline = re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
            for metric in {
                re.sub(r"_(sum|count)$", "", name)
                for span in inline
                for name in re.findall(r"\brepro_\w+", span)
            }:
                if not re.search(rf"[\"']{metric}[\"']", source):
                    dangling.append(f"{doc}: {metric}")
            for token in {t for span in inline for t in span.split()}:
                token = token.strip(".,;:()[]\"'").split("::")[0]
                if re.fullmatch(r"repro(\.\w+)+", token):
                    ok = importable(token)
                elif re.fullmatch(r"[\w.*/-]+", token) and token.endswith(
                    suffixes + ("/",)
                ):
                    ok = is_file(token)
                else:
                    continue
                if not ok:
                    dangling.append(f"{doc}: {token}")
        assert sorted(dangling) == [], dangling
        # The module map (DESIGN.md §3) has one row per package.
        design = (root / "DESIGN.md").read_text(encoding="utf-8")
        assert sorted(re.findall(r"^  (\w+)/ ", design, flags=re.M)) == sorted(
            init.parent.name for init in Path(repro.__path__[0]).glob("*/__init__.py")
        )


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


def _dotted(path: str) -> str:
    parts = path[: -len(".py")].split("/")
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _registers_itself(definition) -> bool:
    """A class or function decorated ``@register_*(…)`` is reached
    through the table it registers in."""
    return any(
        isinstance(dec, ast.Call)
        and isinstance(dec.func, ast.Name)
        and dec.func.id.startswith("register_")
        for dec in definition.decorator_list
    )


def orphan_modules(package: dict[str, str], users: dict[str, str]) -> list[str]:
    """Modules of ``package`` (relative path -> source) that nothing uses.

    A use is an import — or a launch by dotted name, ``python -m`` —
    from another module of the package or from one of ``users`` (outside
    files, path -> source).  A name imported from a package is a use of
    the one submodule that defines it.  An import in a package
    ``__init__`` counts only if the ``__init__`` references the name in
    its own code, or if the imported module registers itself in a table
    (``@register_*``) and so is reached through the table's owner.
    """
    trees = {path: ast.parse(source) for path, source in package.items()}
    modules = {_dotted(path): path for path in trees}
    packages = {_dotted(path) for path in trees if path.endswith("__init__.py")}

    def imports(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield alias.name, None, alias.asname or alias.name
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                for alias in node.names:
                    yield node.module, alias.name, alias.asname or alias.name

    exports = {
        name: {bound: (mod, attr) for mod, attr, bound in imports(trees[modules[name]])}
        for name in packages
    }

    def defining_module(mod, attr):
        while True:
            if attr is not None and f"{mod}.{attr}" in modules:
                mod, attr = f"{mod}.{attr}", None
            elif mod in packages and attr in exports[mod]:
                mod, attr = exports[mod][attr]
            else:
                return mod if mod in modules and mod not in packages else None

    def registers_itself(tree):
        return any(
            _registers_itself(node)
            for node in tree.body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))
        )

    used = set()
    for path, tree in {**trees, **{p: ast.parse(s) for p, s in users.items()}}.items():
        own = _dotted(path) if path in trees else None
        referenced = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for mod, attr, bound in imports(tree):
            target = defining_module(mod, attr)
            if target is None or target == own:
                continue
            if (
                own in packages
                and bound not in referenced
                and not registers_itself(trees[modules[target]])
            ):
                continue  # a bare re-export
            used.add(target)
        used.update(
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and node.value in modules
            and node.value != own
        )
    return sorted(
        name
        for name in modules
        if name not in packages and name not in used and not name.endswith("__main__")
    )


def orphan_names(package: dict[str, str], users: dict[str, str]) -> list[str]:
    """``__all__`` entries of ``package`` modules that no code refers to.

    A reference is a load of the name, an attribute access by it or a
    ``from … import`` of it, anywhere in the package (the defining
    module's own code included) or in ``users``.  The definition, the
    ``__all__`` listing and a bare re-export in a package ``__init__``
    are not references; a class or function that registers itself in a
    table (``@register_*``) is reached through the table.
    """
    trees = {path: ast.parse(source) for path, source in package.items()}

    def references(path, tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.ImportFrom) and not path.endswith("__init__.py"):
                yield from (alias.name for alias in node.names)

    referenced = {
        name
        for path, tree in {**trees, **{p: ast.parse(s) for p, s in users.items()}}.items()
        for name in references(path, tree)
    }
    orphans = []
    for path, tree in trees.items():
        defined = {}
        declared = []
        for node in tree.body:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                defined[node.name] = _registers_itself(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                if "__all__" in names:
                    declared = [element.value for element in node.value.elts]
                defined.update(dict.fromkeys(names, False))
        orphans += [
            f"{_dotted(path)}.{name}"
            for name in declared
            # a name the module does not define is a re-export, checked
            # where it is defined
            if defined.get(name) is False and name not in referenced
        ]
    return sorted(orphans)


class TestSurface:
    """Every module is reached by a scenario, an experiment or a ledger
    workload: something in ``src/repro`` or ``benchmarks/e2e`` imports it.
    Its own test, an example or a re-export in ``__init__`` is not a use.
    Every public name (``__all__`` entry) is referred to by code in
    ``src/repro``, ``benchmarks/e2e`` or ``examples/``."""

    def test_scan_catches_a_planted_orphan(self):
        package = {
            "repro/__main__.py": (
                "import sys\nfrom repro.apps import run\n"
                "PEER = [sys.executable, '-m', 'repro.peer']"
            ),
            "repro/peer.py": "print('ready')",
            "repro/apps/__init__.py": (
                "from repro.apps.table import APP_TYPES, register_app\n"
                "from repro.apps.stream import StreamApp\n"
                "from repro.apps.replay import ReplayApp\n"
                "from repro.apps.ping import PingApp\n"
                "def run(kind):\n    return APP_TYPES[kind]()\n"
                "__all__ = ['StreamApp', 'ReplayApp', 'PingApp', 'run']"
            ),
            "repro/apps/table.py": (
                "APP_TYPES = {}\n"
                "def register_app(name):\n"
                "    return lambda cls: APP_TYPES.setdefault(name, cls)"
            ),
            "repro/apps/stream.py": "class StreamApp: ...",
            "repro/apps/replay.py": "class ReplayApp: ...",
            "repro/apps/ping.py": (
                "from repro.apps.table import register_app\n"
                "@register_app('ping')\nclass PingApp: ..."
            ),
        }
        users = {"benchmarks/e2e/run.py": "from repro.apps import StreamApp"}
        assert orphan_modules(package, users) == ["repro.apps.replay"]
        assert orphan_modules(package, {}) == ["repro.apps.replay", "repro.apps.stream"]

    @staticmethod
    def sources(*folders):
        """``(package, users)``: ``src/repro`` and the ``*.py`` files of
        ``folders``, each as relative path -> source."""
        src = Path(repro.__path__[0]).parent
        package = {
            path.relative_to(src).as_posix(): path.read_text(encoding="utf-8")
            for path in sorted(src.rglob("*.py"))
        }
        users = {
            path.relative_to(src.parent).as_posix(): path.read_text(encoding="utf-8")
            for folder in folders
            for path in sorted((src.parent / folder).glob("*.py"))
        }
        assert users, f"{folders} not found next to src/"
        return package, users

    def test_every_module_is_used(self):
        assert orphan_modules(*self.sources("benchmarks/e2e")) == []

    def test_name_scan_catches_a_planted_orphan(self):
        package = {
            "repro/units/__init__.py": (
                "from repro.units.sizes import KiB, parse_size, format_size\n"
                "__all__ = ['KiB', 'parse_size', 'format_size']"
            ),
            "repro/units/sizes.py": (
                "__all__ = ['KiB', 'parse_size', 'format_size', 'Size']\n"
                "KiB = 1024\n"
                "def parse_size(text): return int(text)\n"
                "def format_size(n): return f'{n / KiB} KiB'\n"
                "@register_type('size')\nclass Size: ..."
            ),
            "repro/report.py": (
                "from repro import units\n"
                "__all__ = ['render']\n"
                "def render(n): return units.format_size(n)"
            ),
        }
        assert orphan_names(package, {}) == [
            "repro.report.render",
            "repro.units.sizes.parse_size",
        ]
        users = {"examples/show.py": "from repro.report import render"}
        assert orphan_names(package, users) == ["repro.units.sizes.parse_size"]

    def test_every_public_name_is_used(self):
        assert orphan_names(*self.sources("benchmarks/e2e", "examples")) == []


#: Where Python code sets an option: the constructor it is a keyword of.
_OPTION_OWNERS = {"Cluster": "cluster", "EngineConfig": "config", "TailRailOrder": "rails"}
#: Options no checked-in run sets, and the reason each one stays.
EXEMPT_OPTIONS = {
    "config.rdv_timeout": "fault recovery: a parked rendezvous falls back to "
    "eager on a faulty fabric (tests/integration/test_failover.py)",
}


def options_set(scenarios, sources) -> set[str]:
    """The options (``cluster.*``, ``config.*``, ``rails.*``) that
    ``scenarios`` name in their ``cluster`` / ``cluster.config`` /
    ``tuner.rails`` blocks, or that Python ``sources`` pass as keywords
    of ``Cluster``, ``EngineConfig`` or ``TailRailOrder``."""
    found = set()
    for scenario in scenarios:
        cluster = scenario.get("cluster", {})
        found.update(f"cluster.{key}" for key in cluster)
        found.update(f"config.{key}" for key in cluster.get("config") or {})
        found.update(f"rails.{key}" for key in scenario.get("tuner", {}).get("rails", {}))
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                if callee in _OPTION_OWNERS:
                    found.update(
                        f"{_OPTION_OWNERS[callee]}.{keyword.arg}"
                        for keyword in node.keywords
                        if keyword.arg is not None
                    )
    return found


class TestOptionUse:
    """Every option earns its place: each ``cluster`` key, ``EngineConfig``
    field and ``tuner.rails`` key is set by an example, a ledger workload
    or an experiment (``src/repro/bench``), or is named in
    :data:`EXEMPT_OPTIONS` with its reason."""

    def test_scan_catches_a_planted_unset_option(self):
        scenarios = [{"cluster": {"seed": 1, "config": {"lookahead_window": 4}}}]
        sources = [
            "cluster = Cluster(n_nodes=2, config=cfg.EngineConfig(nagle_delay=1e-6))\n"
            "order = TailRailOrder(min_samples=8)\n"
            "other = Strategy(search_budget=4)\n"
        ]
        assert options_set(scenarios, sources) == {
            "cluster.seed", "cluster.config", "cluster.n_nodes", "config.lookahead_window",
            "config.nagle_delay", "rails.min_samples",
        }

    def test_every_option_is_set_by_a_run(self):
        from dataclasses import fields

        from repro.core.channels import TailRailOrder
        from repro.core.config import EngineConfig
        from repro.runtime.scenario import _CLUSTER_SCHEMA

        options = (
            {f"cluster.{key}" for key in _CLUSTER_SCHEMA}
            | {f"config.{field.name}" for field in fields(EngineConfig)}
            | {f"rails.{key}" for key in inspect.signature(TailRailOrder).parameters}
        )
        root = Path(repro.__path__[0]).parent.parent
        scenarios = [
            json.loads(path.read_text(encoding="utf-8"))
            for path in sorted((root / "examples").glob("*.json"))
        ] + [
            json.loads(path.read_text(encoding="utf-8"))["scenario"]
            for path in sorted((root / "benchmarks/e2e/workloads").glob("*.json"))
        ]
        sources = [
            path.read_text(encoding="utf-8")
            for folder in ("examples", "src/repro/bench")
            for path in sorted((root / folder).glob("*.py"))
        ]
        assert len(scenarios) >= 10 and sources
        unset = options - options_set(scenarios, sources) - set(EXEMPT_OPTIONS)
        assert sorted(unset) == []
