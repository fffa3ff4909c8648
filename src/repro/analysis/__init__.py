"""Post-hoc analysis: metrics, tables, forensics, and perf trends.

Submodules are imported directly (``from repro.analysis import metrics``);
this package deliberately re-exports nothing so the CLI can lazy-import
the heavier modules per subcommand:

* :mod:`~repro.analysis.metrics` — derived figure-of-merit columns;
* :mod:`~repro.analysis.tables` — ASCII tables/heatmaps/timelines;
* :mod:`~repro.analysis.forensics` — abort attribution reports;
* :mod:`~repro.analysis.trends` — the parent and change medians of the
  perfbench records in ``benchmarks/perf/history/pr<N>/``
  (``repro trend``).
"""
