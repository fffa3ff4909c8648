"""Per-run forensic reports: the analysis layer behind ``repro inspect``.

:func:`collect_forensics` executes one *fresh* simulation of a
:class:`~repro.experiments.runner.RunConfig` through
:func:`~repro.experiments.runner.simulate` with a
:class:`~repro.obs.ledger.TxLedger` attached (the disk cache stores
results, not event streams) and folds the ledger into a
:class:`ForensicReport`:

* the causal abort-attribution breakdown and cascade trees
  (:func:`~repro.obs.attribution.attribute_aborts`);
* wasted-work cycle buckets per core
  (:class:`~repro.obs.ledger.WastedWork`), cross-checked against the
  simulator's transient wasted-cycle gauges;
* forwarding-chain depth statistics.

The report's versioned JSON document (:meth:`ForensicReport.to_dict`,
schema :data:`FORENSICS_SCHEMA`, validated by ``scripts/check_doc.py
forensics``) is what ``repro inspect`` stores, and both of its
renderings read only that document: an aligned terminal dump
(:func:`render_document`) and a self-contained HTML page
(:func:`render_html`).  :func:`compare_reports` diffs two
reports on the same workload/seed for ``repro compare`` (schema
:data:`COMPARE_SCHEMA`, validated by ``scripts/check_doc.py compare``).
"""

from __future__ import annotations

import html as _html
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..experiments.runner import RunConfig, simulate
from ..obs.attribution import CAUSE_KINDS, AttributionReport, attribute_aborts
from ..obs.ledger import WASTED_WORK_BUCKETS, TxLedger, WastedWork
from ..sim.results import SimulationResult

#: Version tag of a report's JSON export and digest; bump on layout
#: changes.
FORENSICS_SCHEMA = "repro-forensics/1"

#: Version tag of the :func:`compare_reports` document.
COMPARE_SCHEMA = "repro-compare/1"

#: Cascades shown in full by the terminal/HTML renderings.
TOP_CASCADES = 5

_BUCKET_GLYPHS = dict(
    zip(WASTED_WORK_BUCKETS, ("#", "x", "=", ".")))  # committed/aborted/fallback/stalled


@dataclass(frozen=True)
class ForensicReport:
    """Everything ``repro inspect`` knows about one run."""

    workload: str
    system: str
    threads: int
    seed: int
    scale: float
    cycles: int
    commits: int
    fallback_commits: int
    aborts: int
    attempts: int
    forwards: int
    attribution: AttributionReport
    wasted: WastedWork
    #: Ledger buckets vs the simulator's transient cycle gauges
    #: (committed/aborted/fallback); non-empty = accounting drifted.
    gauge_mismatches: Dict[str, Dict[str, int]]

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": FORENSICS_SCHEMA,
            "workload": self.workload,
            "system": self.system,
            "threads": self.threads,
            "seed": self.seed,
            "scale": self.scale,
            "cycles": self.cycles,
            "commits": self.commits,
            "fallback_commits": self.fallback_commits,
            "aborts": self.aborts,
            "attempts": self.attempts,
            "forwards": self.forwards,
            "attribution": self.attribution.to_dict(),
            "wasted_work": self.wasted.to_dict(),
            "gauge_mismatches": self.gauge_mismatches,
        }

    def digest(self) -> Dict[str, object]:
        """Compact summary for run manifests (no per-abort records)."""
        return {
            "schema": FORENSICS_SCHEMA,
            "aborts": self.aborts,
            "attributed_fraction": round(
                self.attribution.attributed_fraction, 4
            ),
            "breakdown": {
                k: v for k, v in self.attribution.breakdown().items() if v
            },
            "cascades": len(self.attribution.cascades),
            "largest_cascade": (
                self.attribution.cascades[0].size
                if self.attribution.cascades else 0
            ),
            "max_chain_depth": self.attribution.chain_stats()["max_depth"],
            "wasted_totals": self.wasted.totals(),
        }

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Aligned terminal rendering of the full report.

        Delegates to :func:`render_document` over :meth:`to_dict`, so a
        live report and a store-cached document render identically by
        construction.
        """
        return render_document(self.to_dict())


# ----------------------------------------------------------------------
def render_document(doc: Dict[str, object]) -> str:
    """Aligned terminal rendering of a :meth:`ForensicReport.to_dict`
    document.

    Operates on the persisted JSON form so ``repro inspect`` can serve a
    store-cached report without re-simulating; :meth:`ForensicReport.render`
    delegates here.
    """
    att = doc["attribution"]
    wasted = doc["wasted_work"]
    title = (
        f"Forensics — {doc['workload']}/{doc['system']} "
        f"(threads={doc['threads']} seed={doc['seed']} "
        f"scale={doc['scale']})"
    )
    lines = [title, "=" * len(title)]
    lines.append(
        f"cycles={doc['cycles']:,}  attempts={doc['attempts']}  "
        f"commits={doc['commits']} (+{doc['fallback_commits']} fallback)  "
        f"aborts={doc['aborts']}  forwards={doc['forwards']}"
    )
    lines.append("")
    lines.extend(_render_attribution(att))
    lines.append("")
    lines.extend(_render_cascades(att["cascades"]))
    lines.append("")
    lines.extend(_render_chains(att["chains"]))
    lines.append("")
    lines.extend(_render_wasted(wasted))
    if doc["gauge_mismatches"]:
        lines.append("")
        lines.append(
            "WARNING: ledger buckets disagree with the simulator's "
            f"cycle gauges: {doc['gauge_mismatches']}"
        )
    return "\n".join(lines)


def render_html(doc: Dict[str, object]) -> str:
    """Self-contained single-page HTML rendering (no assets) of a
    :meth:`ForensicReport.to_dict` document, live or store-cached.

    A stored document comes back with sorted keys, so rows follow
    :data:`CAUSE_KINDS` and cores sort numerically.
    """
    esc = _html.escape
    att = doc["attribution"]
    total = att["total_aborts"]
    breakdown = att["breakdown"]
    rows = "\n".join(
        f"<tr><td>{esc(kind)}</td><td>{breakdown[kind]}</td>"
        f"<td>{breakdown[kind] / total:.1%}</td></tr>"
        for kind in CAUSE_KINDS
        if breakdown.get(kind) and total
    )
    cascade_rows = "\n".join(
        f"<tr><td>T{c['root'][0]}#{c['root'][1]}</td>"
        f"<td>{c['size']}</td><td>{c['depth']}</td></tr>"
        for c in att["cascades"][:TOP_CASCADES]
    )
    per_core = doc["wasted_work"]["per_core"]
    wasted_rows = "\n".join(
        "<tr><td>core {}</td>{}</tr>".format(
            core,
            "".join(
                f"<td>{per_core[core][b]:,}</td>" for b in WASTED_WORK_BUCKETS
            ),
        )
        for core in sorted(per_core, key=int)
    )
    chain = att["chains"]
    title = f"Forensics — {esc(doc['workload'])}/{esc(doc['system'])}"
    return f"""<!doctype html>
<html><head><meta charset="utf-8">
<title>{title}</title>
<style>
body {{ font: 14px/1.5 sans-serif; margin: 2em auto; max-width: 60em; }}
table {{ border-collapse: collapse; margin: 0.5em 0 1.5em; }}
td, th {{ border: 1px solid #999; padding: 0.25em 0.75em; text-align: right; }}
td:first-child, th:first-child {{ text-align: left; }}
</style></head><body>
<h1>{title}</h1>
<p>threads={doc['threads']} seed={doc['seed']} scale={doc['scale']} —
cycles={doc['cycles']:,}, attempts={doc['attempts']},
commits={doc['commits']} (+{doc['fallback_commits']} fallback),
aborts={doc['aborts']}, forwards={doc['forwards']}</p>
<h2>Abort attribution
({att['attributed']}/{total} attributed,
{att['attributed_fraction']:.1%})</h2>
<table><tr><th>cause</th><th>count</th><th>share</th></tr>
{rows or '<tr><td colspan="3">no aborts</td></tr>'}</table>
<h2>Abort cascades ({len(att['cascades'])})</h2>
<table><tr><th>root</th><th>size</th><th>depth</th></tr>
{cascade_rows or '<tr><td colspan="3">none</td></tr>'}</table>
<h2>Forwarding chains</h2>
<p>{chain['chains']} chains, {chain['forwards']} forwards,
max depth {chain['max_depth']}, mean depth {chain['mean_depth']:.2f}</p>
<h2>Wasted work (cycles per core)</h2>
<table><tr><th>core</th>{''.join(f'<th>{b}</th>' for b in WASTED_WORK_BUCKETS)}</tr>
{wasted_rows}</table>
</body></html>
"""


def _render_attribution(att: Dict[str, object]) -> List[str]:
    total = att["total_aborts"]
    lines = [
        f"abort attribution ({att['attributed']}/{total} attributed, "
        f"{att['attributed_fraction']:.1%})"
    ]
    breakdown = att["breakdown"]
    width = max(len(k) for k in CAUSE_KINDS)
    for kind in CAUSE_KINDS:
        count = breakdown.get(kind, 0)
        if not count:
            continue
        share = count / total if total else 0.0
        bar = "#" * max(1, round(share * 40))
        lines.append(f"  {kind:<{width}s} {count:>6d}  {share:6.1%}  {bar}")
    if total == 0:
        lines.append("  (no aborts)")
    return lines


def _render_cascades(cascades: List[Dict[str, object]]) -> List[str]:
    if not cascades:
        return ["abort cascades: none"]
    lines = [
        f"abort cascades: {len(cascades)} "
        f"(largest {cascades[0]['size']} attempts)"
    ]
    for i, c in enumerate(cascades[:TOP_CASCADES], 1):
        root = f"T{c['root'][0]}#{c['root'][1]}"
        members = " ".join(
            f"T{core}#{epoch}" for core, epoch in c["members"]
            if [core, epoch] != list(c["root"])
        )
        lines.append(
            f"  #{i} root={root} size={c['size']} depth={c['depth']}"
            + (f"  victims: {members}" if members else "")
        )
    if len(cascades) > TOP_CASCADES:
        lines.append(f"  ... and {len(cascades) - TOP_CASCADES} more")
    return lines


def _render_chains(stats: Dict[str, object]) -> List[str]:
    if not stats["chains"]:
        return ["forwarding chains: none"]
    histogram = stats["depth_histogram"]
    hist = "  ".join(
        f"depth {d}: {histogram[d]}" for d in sorted(histogram, key=int)
    )
    return [
        f"forwarding chains: {stats['chains']} chains, "
        f"{stats['forwards']} forwards, max depth {stats['max_depth']}, "
        f"mean depth {stats['mean_depth']:.2f}",
        f"  {hist}",
    ]


def _render_wasted(wasted: Dict[str, object]) -> List[str]:
    glyphs = "  ".join(
        f"{_BUCKET_GLYPHS[b]}={b}" for b in WASTED_WORK_BUCKETS
    )
    lines = [f"wasted work (cycles per core; {glyphs})"]
    per_core = wasted["per_core"]
    for core_key in sorted(per_core, key=int):
        buckets = per_core[core_key]
        total = sum(buckets.values()) or 1
        bar = ""
        for bucket in WASTED_WORK_BUCKETS:
            bar += _BUCKET_GLYPHS[bucket] * round(
                buckets[bucket] / total * 40
            )
        cells = "  ".join(
            f"{bucket}={buckets[bucket]:,}" for bucket in WASTED_WORK_BUCKETS
        )
        lines.append(f"  core {int(core_key):<3d} |{bar:<40s}| {cells}")
    totals = wasted["totals"]
    cells = "  ".join(
        f"{bucket}={totals[bucket]:,}" for bucket in WASTED_WORK_BUCKETS
    )
    lines.append(f"  total    {cells}")
    return lines


# ----------------------------------------------------------------------
def collect_forensics(
    cfg: RunConfig,
) -> Tuple[SimulationResult, ForensicReport]:
    """Run ``cfg`` with a :class:`TxLedger` attached and fold the ledger
    into a :class:`ForensicReport`.

    Always a fresh simulation: forensics needs the live event stream,
    which the result cache does not store.  Returns the result as well,
    which the runner caches while the batch manifest records the
    report's digest.  The ledger's cycle buckets are cross-checked
    against the simulator's transient gauges; any disagreement lands in
    :attr:`ForensicReport.gauge_mismatches` (rendered as a warning)
    rather than silently shipping wrong numbers.
    """
    ledger = TxLedger()
    result = simulate(cfg, ledger)
    attribution = attribute_aborts(ledger)
    wasted = WastedWork.from_ledger(ledger, result.cycles)
    totals = wasted.totals()
    gauges = {
        "committed": result.stats.committed_cycles,
        "aborted_speculative": result.stats.aborted_cycles,
        "fallback": result.stats.fallback_cycles,
    }
    mismatches = {
        bucket: {"ledger": totals[bucket], "gauge": gauges[bucket]}
        for bucket in gauges
        if totals[bucket] != gauges[bucket]
    }
    return result, ForensicReport(
        workload=result.workload,
        system=result.system,
        threads=cfg.threads,
        seed=cfg.seed,
        scale=cfg.scale,
        cycles=result.cycles,
        commits=result.stats.tx_commits,
        fallback_commits=result.stats.tx_fallback_commits,
        aborts=result.stats.total_aborts,
        attempts=result.stats.tx_attempts,
        forwards=result.stats.spec_forwards,
        attribution=attribution,
        wasted=wasted,
        gauge_mismatches=mismatches,
    )


# ----------------------------------------------------------------------
def compare_reports(a: ForensicReport, b: ForensicReport) -> Dict[str, object]:
    """A/B diff of two reports on the same workload (``repro compare``)."""
    def deltas(xa: Dict[str, int], xb: Dict[str, int]) -> Dict[str, Dict[str, int]]:
        keys = sorted(set(xa) | set(xb))
        return {
            k: {
                "a": xa.get(k, 0),
                "b": xb.get(k, 0),
                "delta": xb.get(k, 0) - xa.get(k, 0),
            }
            for k in keys
        }

    return {
        "schema": COMPARE_SCHEMA,
        "workload": a.workload,
        "a": {"system": a.system, "cycles": a.cycles, "aborts": a.aborts},
        "b": {"system": b.system, "cycles": b.cycles, "aborts": b.aborts},
        "cycles_delta": b.cycles - a.cycles,
        "abort_breakdown": deltas(
            {k: v for k, v in a.attribution.breakdown().items() if v},
            {k: v for k, v in b.attribution.breakdown().items() if v},
        ),
        "wasted_totals": deltas(a.wasted.totals(), b.wasted.totals()),
    }


def render_compare(a: ForensicReport, b: ForensicReport) -> str:
    """Terminal rendering of :func:`compare_reports`."""
    diff = compare_reports(a, b)
    title = (
        f"Compare — {a.workload} (threads={a.threads} seed={a.seed} "
        f"scale={a.scale}): A={a.system}  B={b.system}"
    )
    lines = [title, "=" * len(title)]
    lines.append(
        f"cycles      A={a.cycles:>12,d}  B={b.cycles:>12,d}  "
        f"delta={diff['cycles_delta']:+,d}"
    )
    lines.append(
        f"aborts      A={a.aborts:>12,d}  B={b.aborts:>12,d}  "
        f"delta={b.aborts - a.aborts:+,d}"
    )
    lines.append("")
    lines.append("abort causes (A vs B):")
    for kind, cell in diff["abort_breakdown"].items():
        lines.append(
            f"  {kind:<20s} A={cell['a']:>8d}  B={cell['b']:>8d}  "
            f"delta={cell['delta']:+d}"
        )
    if not diff["abort_breakdown"]:
        lines.append("  (no aborts on either side)")
    lines.append("")
    lines.append("wasted-work totals (cycles, A vs B):")
    for bucket, cell in diff["wasted_totals"].items():
        lines.append(
            f"  {bucket:<20s} A={cell['a']:>12,d}  B={cell['b']:>12,d}  "
            f"delta={cell['delta']:+,d}"
        )
    return "\n".join(lines)
