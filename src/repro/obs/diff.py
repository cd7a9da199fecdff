"""Regression diffing: ``python -m repro obs diff BASELINE CANDIDATE``.

Compares two comparable artifacts and reports which indicators moved,
optionally failing (``--check``) when one moved past a threshold in its
*bad* direction.  Two input shapes are accepted, detected per file:

* a benchmark result: the object ``benchmarks/e2e/run.py`` prints
  (``{"correct", "attempted", "failed", "metrics": {name: {"value",
  "unit"}}}``, one per line of its saved output — the last is taken),
  or the flat ``{"metrics": {name: number}}`` form of a hand-written
  file;
* any trace file the observability plane can load (JSONL or Chrome
  JSON), which is run through :func:`repro.obs.analyze.analyze_file`
  and reduced to its summary metrics.

Every metric name is classified by direction — latency-ish names are
worse when they rise, throughput-ish names are worse when they fall —
and names matching neither family are reported but never gated: a
number whose good direction we cannot name must not fail CI.  Use
``--ignore GLOB`` (repeatable) to exclude wall-clock-noisy keys such as
``*_us`` on shared runners.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fnmatch import fnmatch
from pathlib import Path

from repro.obs.analyze import analyze_file, summary_metrics
from repro.util.errors import ConfigurationError

__all__ = ["DiffEntry", "load_comparable", "compare", "render_diff", "main"]

#: Substrings marking a metric as worse-when-higher (latency family).
WORSE_IF_HIGHER = (
    "latency",
    "rtt",
    "corrupt",
    "dropped",
    "clamped",
    "miss",
    "retransmit",
    "timeout",
    "starv",
    "burn",
    "unattributed",
    "_us",
    "ops_per_",
    "calls_per_",
)

#: Substrings marking a metric as worse-when-lower (throughput family).
WORSE_IF_LOWER = (
    "ratio",
    "throughput",
    "verified",
    "messages",
    "samples",
    "crossings",
    "rate",
    "_per_s",
)

#: Relative change tolerated in the bad direction before --check fails.
DEFAULT_THRESHOLD = 0.2


@dataclass(frozen=True, slots=True)
class DiffEntry:
    """One compared metric."""

    key: str
    base: float | None  #: None when the key is new in the candidate
    cand: float | None  #: None when the key vanished from the candidate
    direction: str  #: "higher-is-worse" | "lower-is-worse" | "neutral"
    regressed: bool
    note: str = ""

    @property
    def delta(self) -> float:
        if self.base is None or self.cand is None:
            return 0.0
        return self.cand - self.base


def direction_of(key: str) -> str:
    """Classify a metric name's bad direction (see module docstring)."""
    lowered = key.lower()
    if any(mark in lowered for mark in WORSE_IF_HIGHER):
        return "higher-is-worse"
    if any(mark in lowered for mark in WORSE_IF_LOWER):
        return "lower-is-worse"
    return "neutral"


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


def load_comparable(path: str | Path) -> tuple[str, dict[str, float]]:
    """Load one input file; returns ``(kind, flat_metrics)``.

    ``kind`` is ``"bench"`` for a benchmark-result JSON, ``"trace"``
    for anything that loads as a trace.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"no such file: {path}")
    if path.suffix == ".json":
        payload = _load_json(path)
        if isinstance(payload, dict) and "metrics" in payload:
            metrics = payload["metrics"]
            if not isinstance(metrics, dict):
                raise ConfigurationError(
                    f"{path}: 'metrics' is not an object — not a bench result"
                )
            return "bench", {
                str(k): float(v["value"] if isinstance(v, dict) else v)
                for k, v in metrics.items()
            }
    return "trace", summary_metrics(analyze_file(path))


def compare(
    base: dict[str, float],
    cand: dict[str, float],
    *,
    threshold: float = DEFAULT_THRESHOLD,
    ignore: tuple[str, ...] = (),
) -> list[DiffEntry]:
    """Diff two flat metric mappings; entries sorted, regressions first.

    Regression rules, applied only along a key's bad direction:

    * baseline nonzero — fail when the relative change exceeds
      ``threshold``;
    * baseline zero, higher-is-worse — any positive candidate fails
      (``0 -> anything`` retransmits/corruptions is categorically new
      badness, not a percentage);
    * a key present in the baseline but missing from the candidate is a
      structural regression regardless of direction.
    """

    def ignored(key: str) -> bool:
        return any(fnmatch(key, pattern) for pattern in ignore)

    entries: list[DiffEntry] = []
    for key in sorted(set(base) | set(cand)):
        if ignored(key):
            continue
        b = base.get(key)
        c = cand.get(key)
        direction = direction_of(key)
        if c is None:
            entries.append(
                DiffEntry(key, b, None, direction, True, "missing from candidate")
            )
            continue
        if b is None:
            entries.append(DiffEntry(key, None, c, direction, False, "new"))
            continue
        regressed = False
        note = ""
        if direction == "higher-is-worse":
            if b == 0:
                regressed = c > 0
                if regressed:
                    note = "was zero"
            elif c > b * (1 + threshold):
                regressed = True
        elif direction == "lower-is-worse":
            if b > 0 and c < b * (1 - threshold):
                regressed = True
        entries.append(DiffEntry(key, b, c, direction, regressed, note))
    entries.sort(key=lambda e: (not e.regressed, e.key))
    return entries


def _fmt(value: float | None) -> str:
    if value is None:
        return "—"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4g}"


def render_diff(entries: list[DiffEntry], *, threshold: float) -> str:
    """Human-readable diff table; regressions flagged with ``!``."""
    lines = []
    regressions = [e for e in entries if e.regressed]
    width = max((len(e.key) for e in entries), default=3)
    for entry in entries:
        flag = "!" if entry.regressed else " "
        extra = f"  ({entry.note})" if entry.note else ""
        if entry.base not in (None, 0) and entry.cand is not None:
            rel = (entry.cand - entry.base) / entry.base
            change = f"{rel:+7.1%}"
        else:
            change = "      —"
        lines.append(
            f" {flag} {entry.key.ljust(width)}  {_fmt(entry.base):>12} -> "
            f"{_fmt(entry.cand):>12}  {change}  [{entry.direction}]{extra}"
        )
    lines.append("")
    lines.append(
        f"{len(regressions)} regression(s) beyond ±{threshold:.0%} "
        f"across {len(entries)} compared metric(s)"
    )
    return "\n".join(lines)


def main(args) -> int:
    """Entry point for ``python -m repro obs diff``."""
    threshold = args.threshold if args.threshold is not None else DEFAULT_THRESHOLD
    try:
        base_kind, base = load_comparable(args.baseline)
        cand_kind, cand = load_comparable(args.candidate)
    except ConfigurationError as exc:
        print(f"obs diff: {exc}")
        return 2
    print(f"== obs diff: {args.baseline} ({base_kind}) vs {args.candidate} ({cand_kind}) ==")
    entries = compare(
        base, cand, threshold=threshold, ignore=tuple(args.ignore or ())
    )
    print(render_diff(entries, threshold=threshold))
    if args.check and any(e.regressed for e in entries):
        return 1
    return 0
