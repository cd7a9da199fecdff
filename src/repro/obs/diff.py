"""Regression diffing: ``python -m repro obs diff BASELINE CANDIDATE``.

Reports which indicators moved between a baseline and a candidate, and
with ``--check`` fails when one moved past its bound in its *bad*
direction.  The baseline's shape, detected per file, names the candidate:

* a benchmark result, and so is the candidate: the object
  ``benchmarks/e2e/run.py`` prints (``{"correct", "attempted", "failed",
  "metrics": {name: {"value", "unit"}}}``, one per line of its saved
  output — the last is taken), or a flat ``{"metrics": {name: number}}``;
* a JSONL trace file, and so is the candidate, each reduced to its
  summary metrics;
* a gates file (``{"gates": [row, ...]}``, ``benchmarks/gates.json``);
  the candidate is a directory of saved results, ``<workload>.json``
  each, and every row is checked (:func:`check_gates`).

No direction is guessed from a name.  A bench metric's good direction,
and its bound where one is declared, come from ``BENCHMARK.json`` at the
checkout root; a trace key's from :data:`repro.obs.analyze.SUMMARY_BETTER`;
a gate row states its kind.  A key with no declared direction is reported,
never gated.  ``--ignore GLOB`` (repeatable) drops noisy keys such as
``*_us`` from a bench or trace diff.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fnmatch import fnmatchcase
from pathlib import Path

from repro.obs.analyze import SUMMARY_BETTER, analyze_file, summary_metrics
from repro.util.errors import ConfigurationError

__all__ = [
    "DiffEntry", "load_comparable", "declared", "compare", "check_gates", "render_diff", "main",
]

#: Where the bench metrics declare their ``better`` and ``bound``.
BENCHMARK = Path(__file__).resolve().parents[3] / "BENCHMARK.json"

#: Relative change tolerated in the bad direction where no bound is declared.
DEFAULT_THRESHOLD = 0.2


@dataclass(frozen=True, slots=True)
class DiffEntry:
    """One compared metric, or one checked gate."""

    key: str
    base: float | None  #: None when the key is new in the candidate
    cand: float | None  #: None when the key vanished from the candidate
    rule: str  #: "lower" / "higher" is better, "ungated", or a gate's kind
    regressed: bool
    note: str = ""


def _load_json(path: Path):
    """The JSON value a ``.json`` file holds — the whole text, else its
    last line (saved ``run.py`` output) — or ``None``."""
    try:
        text = path.read_text().strip()
    except UnicodeDecodeError:
        return None
    for candidate in (text, text[text.rfind("\n") + 1 :]):
        try:
            return json.loads(candidate)
        except json.JSONDecodeError:
            continue
    return None


def load_comparable(path: str | Path) -> tuple[str, dict[str, float] | list[dict]]:
    """Load one input file as ``(kind, content)``: ``"gates"`` and its
    rows, or ``"bench"`` / ``"trace"`` and the flat metrics."""
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"no such file: {path}")
    if path.suffix == ".json":
        payload = _load_json(path)
        if isinstance(payload, dict) and isinstance(payload.get("gates"), list):
            return "gates", payload["gates"]
        if isinstance(payload, dict) and "metrics" in payload:
            metrics = payload["metrics"]
            if not isinstance(metrics, dict):
                raise ConfigurationError(f"{path}: 'metrics' is not an object, not a bench result")
            return "bench", {
                str(k): float(v["value"] if isinstance(v, dict) else v)
                for k, v in metrics.items()
            }
    return "trace", summary_metrics(analyze_file(path))


def declared(kind: str) -> dict[str, tuple[str | None, float | None]]:
    """Each declared key glob of a ``kind`` → ``(better, bound)``."""
    if kind == "trace":
        return {key: (better, None) for key, better in SUMMARY_BETTER.items()}
    if not BENCHMARK.is_file():
        raise ConfigurationError(f"{BENCHMARK} is missing: no bench metric has a direction")
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    metrics = spec["end_to_end"] + spec["per_layer"]
    return {m["name"]: (m["better"], m.get("bound")) for m in metrics}


def compare(
    base: dict[str, float],
    cand: dict[str, float],
    rules: dict[str, tuple[str | None, float | None]],
    *,
    threshold: float = DEFAULT_THRESHOLD,
    ignore: tuple[str, ...] = (),
) -> list[DiffEntry]:
    """Diff two flat metric mappings under the ``rules`` of
    :func:`declared`; entries sorted, regressions first.

    Along a key's bad direction only, a nonzero baseline fails past the
    key's declared bound (else ``threshold``) of relative change, and a
    zero one, where lower is better, fails on any positive candidate
    (``0 -> anything`` retransmits is new badness, not a percentage).
    A key missing from the candidate is a regression in any direction.
    """
    entries: list[DiffEntry] = []
    for key in sorted(set(base) | set(cand)):
        if any(fnmatchcase(key, pattern) for pattern in ignore):
            continue
        better, bound = next(
            (rule for glob, rule in rules.items() if fnmatchcase(key, glob)), (None, None)
        )
        rule = better or "ungated"
        limit = threshold if bound is None else bound
        b, c = base.get(key), cand.get(key)
        if c is None:
            entries.append(DiffEntry(key, b, None, rule, True, "missing from candidate"))
        elif b is None:
            entries.append(DiffEntry(key, None, c, rule, False, "new"))
        elif better == "lower" and b == 0:
            entries.append(DiffEntry(key, b, c, rule, c > 0, "was zero" if c > 0 else ""))
        else:
            regressed = (better == "lower" and c > b * (1 + limit)) or (
                better == "higher" and b > 0 and c < b * (1 - limit)
            )
            entries.append(DiffEntry(key, b, c, rule, regressed))
    entries.sort(key=lambda e: (not e.regressed, e.key))
    return entries


def check_gates(rows: list[dict], results: Path, python: str | None = None) -> list[DiffEntry]:
    """Check every gate row against the saved results in ``results``.

    A row reads ``metric`` from ``<workload>.json``: summed over the
    metrics it matches when it is a glob, minus the same metric of
    ``<minus>.json`` when the row names one.  Its ``value`` (measured)
    and, for a ``ceiling``, its ``limit`` are keyed by interpreter
    ``major.minor``: an ``exact`` row passes when the result equals the
    value at six decimals, a ``ceiling`` row when ``0 < result <=
    limit``.  A row with no number for ``python`` (default: the running
    interpreter) fails; it never borrows another interpreter's.
    """
    python = python or "%d.%d" % sys.version_info[:2]
    if not results.is_dir():
        raise ConfigurationError(f"{results}: not a directory of saved results")
    loaded: dict[str, dict[str, float]] = {}

    def read(workload: str, metric: str) -> float:
        if workload not in loaded:
            loaded[workload] = load_comparable(results / f"{workload}.json")[1]
        if "*" not in metric:
            return loaded[workload][metric]
        return sum(v for k, v in loaded[workload].items() if fnmatchcase(k, metric))

    entries = []
    for row in rows:
        minus, metric, kind = row.get("minus"), row["metric"], row["kind"]
        key = f"{row['workload']}{f' - {minus}' if minus else ''}/{metric}"
        value, limit = row["value"].get(python), row.get("limit", row["value"]).get(python)
        cand, note = None, f"no value for Python {python}"
        if value is not None and limit is not None:
            try:
                cand = read(row["workload"], metric) - (read(minus, metric) if minus else 0.0)
                note = row["why"]
            except (ConfigurationError, KeyError) as exc:
                note = f"no result: {exc}"
        exact = kind == "exact"
        ok = cand is not None and (round(cand, 6) == value if exact else 0 < cand <= limit)
        rule = kind if exact else f"ceiling {_fmt(limit)}"
        entries.append(DiffEntry(key, value, cand, rule, not ok, "" if ok else note))
    return entries


def _fmt(value: float | None) -> str:
    if value is None:
        return "—"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.10g}"


def render_diff(entries: list[DiffEntry]) -> str:
    """Human-readable diff table; regressions flagged with ``!``."""
    lines = []
    width = max((len(e.key) for e in entries), default=3)
    for entry in entries:
        flag = "!" if entry.regressed else " "
        extra = f"  ({entry.note})" if entry.note else ""
        if entry.base not in (None, 0) and entry.cand is not None:
            change = f"{(entry.cand - entry.base) / entry.base:+7.1%}"
        else:
            change = "      —"
        lines.append(
            f" {flag} {entry.key.ljust(width)}  {_fmt(entry.base):>12} -> "
            f"{_fmt(entry.cand):>12}  {change}  [{entry.rule}]{extra}"
        )
    lines.append("")
    regressions = sum(e.regressed for e in entries)
    lines.append(f"{regressions} regression(s) across {len(entries)} compared metric(s)")
    return "\n".join(lines)


def main(args) -> int:
    """Entry point for ``python -m repro obs diff``."""
    threshold = args.threshold if args.threshold is not None else DEFAULT_THRESHOLD
    try:
        base_kind, base = load_comparable(args.baseline)
        if base_kind == "gates":
            cand_kind, entries = "results", check_gates(base, Path(args.candidate))
        else:
            cand_kind, cand = load_comparable(args.candidate)
            entries = compare(
                base, cand, declared(base_kind), threshold=threshold,
                ignore=tuple(args.ignore or ()),
            )
    except ConfigurationError as exc:
        print(f"obs diff: {exc}")
        return 2
    print(f"== obs diff: {args.baseline} ({base_kind}) vs {args.candidate} ({cand_kind}) ==")
    print(render_diff(entries))
    if args.check and any(e.regressed for e in entries):
        return 1
    return 0
