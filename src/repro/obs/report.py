"""Turning raw telemetry snapshots into profile reports.

A snapshot (:meth:`repro.obs.core.Telemetry.snapshot`) is the raw
counter/histogram state.  A *report* adds the derived quantities an
operator actually asks about — parse-outcome mix, rule-hit shares,
training's distinct share, the score memo's hit rate — and is what
``repro profile`` emits and the experiments runner attaches to its
results.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

#: Bump when the report layout changes; persisted snapshots carry it.
REPORT_VERSION = 3


def _rate(hits: int, misses: int) -> Optional[float]:
    total = hits + misses
    return hits / total if total else None


def _share(part: int, whole: int) -> Optional[float]:
    return part / whole if whole else None


def _lru(counters: Dict[str, int], prefix: str) -> Dict[str, Any]:
    """Hit/miss/evict counts of the LRU whose probes start ``prefix``."""
    hits = counters.get(prefix + ".hit", 0)
    misses = counters.get(prefix + ".miss", 0)
    return {
        "hits": hits,
        "misses": misses,
        "evictions": counters.get(prefix + ".evict", 0),
        "hit_rate": _rate(hits, misses),
    }


def build_report(
    snapshot: Dict[str, Any],
    score_memo_info: Optional[Dict[str, int]] = None,
) -> Dict[str, Any]:
    """Derive the headline quantities from a telemetry snapshot.

    The returned document is JSON-ready and self-contained: it embeds
    the snapshot it was derived from under ``"telemetry"``.

    ``"training"`` counts the entries training read
    (``train.passwords``) and the passwords it parsed
    (``train.distinct``: one per distinct password per window), and
    ``"score_memo"`` the meter's score memo (``meter.memo.*``).
    ``score_memo_info`` optionally carries the
    memo's structural state
    (:meth:`repro.core.meter.FuzzyPSM.score_memo_info` — occupancy and
    capacity); when given, its keys are merged into ``"score_memo"``
    next to the counts.
    """
    counters: Dict[str, int] = snapshot.get("counters", {})
    trie_hits = counters.get("parser.segment.trie_hit", 0)
    fallbacks = counters.get("parser.segment.fallback", 0)
    segments = trie_hits + fallbacks
    parses = counters.get("parser.parse", 0)
    trained = counters.get("train.passwords", 0)
    distinct = counters.get("train.distinct", 0)
    score_memo = _lru(counters, "meter.memo")
    if score_memo_info is not None:
        score_memo.update(score_memo_info)
    return {
        "report_version": REPORT_VERSION,
        "parse_outcomes": {
            "parses": parses,
            "segments": segments,
            "trie_hit": trie_hits,
            "fallback": fallbacks,
            "trie_hit_share": _share(trie_hits, segments),
            "rule_hits": {
                "capitalization": counters.get(
                    "parser.rule.capitalization", 0
                ),
                "leet": counters.get("parser.rule.leet", 0),
                "reverse": counters.get("parser.rule.reverse", 0),
                "allcaps": counters.get("parser.rule.allcaps", 0),
            },
        },
        "training": {
            "passwords": trained,
            "distinct": distinct,
            "distinct_share": _share(distinct, trained),
        },
        "score_memo": score_memo,
        "stages": {
            name: histogram
            for name, histogram in snapshot.get("histograms", {}).items()
            if name.endswith(".seconds")
        },
        "telemetry": snapshot,
    }


def _format_optional_rate(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{value * 100.0:.1f}%"


def render_report(report: Dict[str, Any]) -> List[str]:
    """Human-readable lines for a report (the ``--format text`` view)."""
    outcomes = report["parse_outcomes"]
    lines = [
        f"parses          : {outcomes['parses']:,}",
        f"segments        : {outcomes['segments']:,} "
        f"(trie-hit {outcomes['trie_hit']:,}, "
        f"fallback {outcomes['fallback']:,}, "
        f"trie-hit share "
        f"{_format_optional_rate(outcomes['trie_hit_share'])})",
    ]
    for rule, hits in outcomes["rule_hits"].items():
        lines.append(f"rule {rule:<14}: {hits:,}")
    training = report["training"]
    lines.append(
        f"training        : {training['passwords']:,} entries, "
        f"{training['distinct']:,} parsed (distinct share "
        f"{_format_optional_rate(training['distinct_share'])})"
    )
    memo = report["score_memo"]
    lines.append(
        f"score memo      : {memo['hits']:,} hits / "
        f"{memo['misses']:,} misses "
        f"(hit rate {_format_optional_rate(memo['hit_rate'])}, "
        f"{memo['evictions']:,} evictions)"
    )
    if "capacity" in memo:
        lines.append(
            f"score memo size : {memo.get('size', 0):,} of "
            f"{memo['capacity']:,} entries"
        )
    for stage, histogram in report["stages"].items():
        lines.append(
            f"stage {stage:<24}: {histogram['count']:,} x, "
            f"total {histogram['sum']:.3f} s, "
            f"mean {histogram['mean'] * 1e3:.2f} ms"
        )
    counters: Dict[str, int] = report["telemetry"].get("counters", {})
    for name, value in counters.items():
        lines.append(f"counter {name:<28}: {value:,}")
    return lines
