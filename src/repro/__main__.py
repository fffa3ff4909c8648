"""Command-line interface: ``python -m repro``.

Subcommands:

* ``run`` — run one workload under one (or all) HTM systems and print the
  result summary::

      python -m repro run kmeans-h --system chats --scale 0.4
      python -m repro run yada --all-systems

* ``figure`` — regenerate one of the paper's figures as a text table::

      python -m repro figure fig4
      python -m repro figure fig9 --scale 0.25

* ``trace`` — run one workload with the instrumentation bus recording
  every probe event, write the trace (JSONL or Chrome ``trace_event``
  for Perfetto), and optionally dump the forwarding chains its
  transaction ledger recorded; the only command that writes a probe
  trace, always from a fresh simulation::

      python -m repro trace synth --system chats --out trace.jsonl
      python -m repro trace synth --format chrome --out trace.json --chains

* ``bench`` — run the pinned performance regression suite and write a
  ``BENCH_<rev>.json`` report (gate it with ``scripts/check_bench.py``)::

      python -m repro bench
      python -m repro bench --quick synth

* ``inspect`` — run one workload with the transaction ledger attached and
  print the forensic report (causal abort attribution, abort cascades,
  chain stats, wasted-work buckets); ``--json``/``--html`` export it::

      python -m repro inspect counter --system chats --scale 0.1
      python -m repro inspect synth --json forensics.json

* ``compare`` — A/B two systems on the same workload/seed and print the
  per-cause abort and wasted-work deltas::

      python -m repro compare chats htm-be --workload cadd

* ``trend`` — read every ``BENCH_*.json`` report in
  ``benchmarks/perf/history/`` and render the cross-revision perf
  trajectory with regression flags (exit 1 on a corrupt report)::

      python -m repro trend
      python -m repro trend benchmarks/perf/history --json trend.json

* ``cache`` — inspect and maintain the on-disk result store:
  ``stats`` (``--json`` emits the ``repro-store/2`` document),
  ``verify`` and ``gc SIZE``; each takes only ``--cache-dir``::

      python -m repro cache stats --json
      python -m repro cache gc 512M

* ``list`` — list registered workloads, systems, and experiments.

``run`` and ``report`` also take the fleet-telemetry flags:
``--telemetry FILE`` writes the batch's span log as JSONL
(``scripts/check_doc.py spans`` validates it), and ``--telemetry-chrome
FILE`` exports the same spans as a Perfetto-loadable Chrome trace (one
track per worker plus a scheduler track).

``run`` and ``trace`` also accept ``--timeline W`` to print a
per-``W``-cycle activity table from the run's interval metrics.

Every simulation a command starts is a
:class:`~repro.experiments.runner.RunConfig`: ``run``, ``figure`` and
``report`` batch theirs through ``run_many``, while ``trace``,
``inspect`` and ``compare`` run one fresh through
:func:`~repro.experiments.runner.simulate` with their subscribers
attached.

``run``, ``figure``, and ``report`` share the experiment runner's cache
and parallelism flags: ``--workers N`` fans simulations out over N
processes (default ``REPRO_WORKERS``), ``--cache-dir`` relocates the disk
cache (default ``.repro_cache``, env ``REPRO_CACHE_DIR``), and
``--no-cache`` disables the disk cache for the invocation; ``inspect``
takes the last two for its stored forensic documents.  A cache
directory the result store cannot open on (see docs/ARCHITECTURE.md §6a)
is an error: ``repro`` prints one line naming it and exits 2.

``run``, ``report``, and ``bench`` take ``--backend
{python,compiled}`` to select the simulation backend (default
``$REPRO_BACKEND`` or pure Python); ``compiled`` uses the C hot core
built by ``scripts/build_accel.py``, and every backend produces
byte-identical results (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

from . import accel, workload_names
from . import store as store_pkg
from .experiments import runner
from .experiments.registry import EXPERIMENTS, experiment_configs
from .experiments.figures import FIGURES, run_figure
from .systems import UnknownSystemError, get_spec, paper_systems, registered_systems


def _system_from_name(name: str):
    try:
        return get_spec(name)
    except UnknownSystemError as exc:
        raise SystemExit(str(exc)) from None


def _print_result(result) -> None:
    s = result.summary()
    print(f"workload         : {s['workload']}")
    print(f"system           : {s['system']}")
    print(f"execution time   : {s['cycles']:,} cycles")
    print(
        f"commits          : {s['commits']} "
        f"({s['hw_commits']} HTM, {s['fallback_commits']} fallback)"
    )
    print(f"aborts           : {s['aborts']}")
    causes = {k: v for k, v in s["abort_breakdown"].items() if v}
    print(f"abort causes     : {causes or '—'}")
    print(f"spec forwards    : {s['spec_forwards']}")
    print(f"network flits    : {s['flits']:,}")
    print(f"lock acquisitions: {s['lock_acquisitions']}")
    print(f"power grants     : {s['power_grants']}")
    labels = result.stats.label_summary()
    if any(label for label in labels):
        print("per-site         :")
        for label, counts in labels.items():
            print(
                f"  {label or '(unlabelled)':<16s} "
                f"commits={counts['commits']:<6d} aborts={counts['aborts']}"
            )


def _apply_runner_flags(args: argparse.Namespace) -> None:
    """Propagate the shared cache/parallelism flags to the runner."""
    _apply_backend_flag(args)
    if getattr(args, "scale", None) is not None:
        os.environ["REPRO_SCALE"] = str(args.scale)
    if getattr(args, "workers", None) is not None:
        os.environ["REPRO_WORKERS"] = str(args.workers)
    runner.configure(
        cache_dir=getattr(args, "cache_dir", None),
        disk_cache=False if getattr(args, "no_cache", False) else None,
        progress=_progress_printer,
    )


def _apply_backend_flag(args: argparse.Namespace) -> None:
    """Select the simulation backend for ``--backend`` (or leave the
    ``REPRO_BACKEND`` environment selection untouched without it)."""
    if getattr(args, "backend", None) is not None:
        accel.select_backend(args.backend)


@contextlib.contextmanager
def _telemetry_scope(args: argparse.Namespace):
    """Install a fleet-telemetry session for the ``--telemetry`` /
    ``--telemetry-chrome`` flags; on exit the session is uninstalled and
    the requested span files are written."""
    from .obs import telemetry

    if not (args.telemetry or args.telemetry_chrome):
        yield
        return
    session = telemetry.install(telemetry.TelemetrySession())
    try:
        yield
    finally:
        telemetry.uninstall(session)
        if args.telemetry:
            spans = session.write_jsonl(args.telemetry)
            print(
                f"telemetry        : {spans:,} spans -> {args.telemetry} "
                "(jsonl)"
            )
        if args.telemetry_chrome:
            session.write_chrome(args.telemetry_chrome)
            print(
                f"telemetry        : {session.span_count:,} spans -> "
                f"{args.telemetry_chrome} (chrome)"
            )


def _progress_printer(done: int, total: int, cfg, source: str) -> None:
    manifest = runner.last_manifest()
    elapsed = ""
    if manifest is not None:
        entry = manifest.entry_for(cfg)
        if entry is not None and entry.source == "run":
            elapsed = f"  ({entry.seconds:.2f}s)"
    print(
        f"  [{done:>3d}/{total}] {source:<6s} {cfg.describe()}{elapsed}",
        file=sys.stderr,
    )
    if done == total and manifest is not None and manifest.entries:
        print(f"  [runner] {manifest.summary()}", file=sys.stderr)


def _print_timeline(result) -> None:
    from .analysis.tables import format_timeline

    print()
    print(
        format_timeline(
            f"Activity timeline — {result.workload}/{result.system} "
            f"(window={result.intervals['window']:,} cycles)",
            result.intervals,
        )
    )


def _config(args: argparse.Namespace, system, **fields) -> "runner.RunConfig":
    """The config a single-workload command runs: ``system``'s Table II
    row at the command's threads/seed/scale, under the CLI's event
    bound."""
    return runner.RunConfig.make(
        args.workload,
        _system_from_name(system),
        threads=args.threads,
        seed=args.seed,
        scale=args.scale,
        max_events=80_000_000,
        **fields,
    )


def cmd_run(args: argparse.Namespace) -> int:
    with _telemetry_scope(args):
        _apply_runner_flags(args)
        systems = (
            list(paper_systems())
            if args.all_systems
            else [_system_from_name(args.system)]
        )
        configs = [
            _config(args, system, metrics_window=args.timeline)
            for system in systems
        ]
        results = runner.run_many(configs, forensics=args.forensics)
        manifest = runner.last_manifest()
    baseline_cycles = None
    for system, result in zip(systems, results):
        if len(systems) > 1:
            if baseline_cycles is None:
                baseline_cycles = result.cycles
            print(
                f"{system.name:<18s} cycles={result.cycles:>9,d} "
                f"norm={result.cycles / baseline_cycles:5.3f} "
                f"aborts={result.total_aborts:>6d} "
                f"forwards={result.stats.spec_forwards:>7d}"
            )
        else:
            _print_result(result)
    for result in results:
        if result.intervals is not None:
            _print_timeline(result)
    if args.forensics:
        _print_manifest_forensics(manifest)
    return 0


def _print_manifest_forensics(manifest) -> None:
    """One digest line per config of a ``--forensics`` batch."""
    print("\nforensic digests :")
    for entry in manifest.entries:
        cfg, d = entry.config, entry.forensics
        if d is None:
            print(
                f"  {cfg.describe()}: (cached result — no event stream; "
                "re-run with --no-cache or use `repro inspect`)"
            )
            continue
        breakdown = ", ".join(
            f"{k}={v}" for k, v in d["breakdown"].items()
        ) or "none"
        print(
            f"  {cfg.describe()}: "
            f"aborts={d['aborts']} "
            f"attributed={d['attributed_fraction']:.1%} "
            f"[{breakdown}] cascades={d['cascades']} "
            f"max_chain_depth={d['max_chain_depth']}"
        )


def cmd_trace(args: argparse.Namespace) -> int:
    """One fresh simulation with a trace sink (and, for ``--chains``, a
    ledger) on its probe bus: the result store keeps no event streams."""
    from .obs import ChromeTraceExporter, JsonlTraceWriter, TxLedger
    from .obs.chains import render_chains

    cfg = _config(args, args.system, metrics_window=args.timeline)
    chrome = args.format == "chrome"
    sink = ChromeTraceExporter() if chrome else JsonlTraceWriter(args.out)
    ledger = TxLedger()
    try:
        result = runner.simulate(cfg, sink, *([ledger] if args.chains else []))
    finally:
        if not chrome:
            sink.close()
    if chrome:
        recorded = sink.events_recorded  # before write() closes slices
        sink.write(args.out)
    else:
        recorded = sink.events_written
    _print_result(result)
    if result.intervals is not None:
        _print_timeline(result)
    if args.chains:
        print()
        print(render_chains(ledger))
    print(f"\ntrace            : {recorded:,} events -> {args.out} "
          f"({args.format})")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    import json

    from .analysis.forensics import (
        FORENSICS_SCHEMA,
        collect_forensics,
        render_document,
        render_html,
    )

    _apply_runner_flags(args)
    cfg = _config(args, args.system)
    # A forensic document is fully determined by its config, whose key
    # covers the code fingerprint, so repeat inspections are served from
    # the result store, every output rendered from the document.
    store = runner.result_store() if runner.disk_cache_enabled() else None
    key = f"forensics/{cfg.key()}"
    doc = store.load(key, FORENSICS_SCHEMA) if store is not None else None
    if doc is None:
        doc = collect_forensics(cfg)[1].to_dict()
        if store is not None:
            store.save(key, doc)
    else:
        print("  [inspect] cached report (--no-cache re-runs)",
              file=sys.stderr)
    print(render_document(doc))
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        print(f"\njson             : {args.json}")
    if args.html is not None:
        with open(args.html, "w", encoding="utf-8") as fh:
            fh.write(render_html(doc))
        print(f"html             : {args.html}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    import json

    from .analysis.forensics import (
        collect_forensics,
        compare_reports,
        render_compare,
    )

    report_a, report_b = (
        collect_forensics(_config(args, system))[1]
        for system in (args.system_a, args.system_b)
    )
    print(render_compare(report_a, report_b))
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(
                compare_reports(report_a, report_b),
                fh, indent=2, sort_keys=True,
            )
        print(f"\njson             : {args.json}")
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    _apply_runner_flags(args)
    result = run_figure(args.figure)
    print(result.rendering)
    return 0


def _parse_size(text: str) -> int:
    """``512M``-style sizes for ``cache gc`` (plain bytes, K/M/G suffix)."""
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    digits = text.strip().upper()
    mult = 1
    if digits and digits[-1] in units:
        mult = units[digits[-1]]
        digits = digits[:-1]
    try:
        size = float(digits) * mult
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a size: {text!r} (want bytes or K/M/G suffix)"
        ) from None
    if not math.isfinite(size) or size < 0:
        raise argparse.ArgumentTypeError(
            f"not a size: {text!r} (want a finite, non-negative size)"
        )
    return int(size)


def cmd_cache(args: argparse.Namespace) -> int:
    import json

    _apply_runner_flags(args)
    root = runner.cache_dir()
    store = runner.result_store()
    if args.action == "stats":
        doc = store.stats()
        if args.json:
            print(json.dumps(doc, indent=2, sort_keys=True))
            return 0
        print(f"store            : {root}")
        print(f"  entries          {doc['entries']}")
        print(f"  logical bytes    {doc['logical_bytes']:,}")
        print(f"  stored bytes     {doc['stored_bytes']:,}")
        for ns, count in sorted(doc["namespaces"].items()):
            print(f"  ns {ns:<14s} {count}")
        return 0

    if args.action == "verify":
        problems = store.verify()
        for problem in problems:
            print(f"  {problem}")
        status = f"{len(problems)} problem(s)" if problems else "clean"
        print(f"verify           : store at {root} — {status}")
        return 1 if problems else 0

    if args.action == "gc":
        evicted = store.gc(args.max_bytes)
        print(f"gc               : evicted {len(evicted)} entries to fit "
              f"{args.max_bytes:,} bytes")
        for key in evicted:
            print(f"  {key}")
        return 0

    raise SystemExit(f"unknown cache action {args.action!r}")


def cmd_report(args: argparse.Namespace) -> int:
    with _telemetry_scope(args):
        _apply_runner_flags(args)
        # Batch the union of every figure's declared configs so shared
        # cells (the main six-system sweep feeds Figs. 1, 4-7, and 11)
        # run once, spread over the worker pool; rendering then hits the
        # warm cache.
        union = [
            cfg for fid in sorted(FIGURES) for cfg in experiment_configs(fid)
        ]
        runner.run_many(union, forensics=args.forensics)
        sweep_manifest = runner.last_manifest()
        for fid in sorted(FIGURES):
            result = run_figure(fid)
            print()
            print("#" * 72)
            print()
            print(result.rendering)
    if sweep_manifest.entries:
        print(f"\n[runner] sweep: {sweep_manifest.summary()}",
              file=sys.stderr)
    if args.forensics:
        _print_manifest_forensics(sweep_manifest)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .experiments import bench

    _apply_backend_flag(args)

    def progress(key: str) -> None:
        print(f"  [bench] {key}", file=sys.stderr)

    report = bench.run_suite(
        workloads=args.workloads or None,
        quick=args.quick,
        repeat=args.repeat if args.repeat is not None else bench.DEFAULT_REPEAT,
        progress=progress,
    )
    out = (
        Path(args.out)
        if args.out is not None
        else bench.default_output_path(report)
    )
    bench.write_report(report, out)
    print(bench.format_report(report))
    print(f"\nreport           : {out}")
    return 0


def cmd_trend(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from .analysis.trends import (
        TrendError,
        format_trend,
        load_history,
        trend_dict,
    )

    baseline = None
    baseline_path = Path(args.baseline)
    if baseline_path.exists():
        try:
            baseline = json.loads(baseline_path.read_text("utf-8"))
        except (OSError, ValueError) as exc:
            print(f"cannot read baseline: {exc}", file=sys.stderr)
            return 1
    try:
        reports = load_history(Path(args.history))
    except TrendError as exc:
        print(f"trend: {exc}", file=sys.stderr)
        return 1
    trend = trend_dict(reports, baseline=baseline, tolerance=args.tolerance)
    print(format_trend(reports, baseline=baseline, tolerance=args.tolerance))
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(trend, fh, indent=2, sort_keys=True)
        print(f"\njson             : {args.json}")
    if args.strict and trend["regressions"]:
        print(
            f"trend: {len(trend['regressions'])} regression flag(s) "
            "with --strict",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_list(_args: argparse.Namespace) -> int:
    from .systems import system_aliases

    print("workloads:")
    for name in workload_names():
        print(f"  {name}")
    print("systems:")
    for spec in registered_systems():
        print(f"  {spec.name:<18s} {spec.describe_layers()}")
        print(f"  {'':<18s} {spec.describe_table2()}")
    aliases = system_aliases()
    if aliases:
        print("system aliases:")
        for alias, target in sorted(aliases.items()):
            print(f"  {alias:<18s} -> {target}")
    print("experiments:")
    for exp_id, exp in sorted(EXPERIMENTS.items()):
        print(f"  {exp_id:<8s} {exp.title}  [{exp.bench}]")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="CHATS (MICRO 2024) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cache_dir_flag = argparse.ArgumentParser(add_help=False)
    cache_dir_flag.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="disk cache location (default: $REPRO_CACHE_DIR or "
        ".repro_cache)",
    )

    store_flags = argparse.ArgumentParser(
        add_help=False, parents=[cache_dir_flag]
    )
    store_flags.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache for this invocation",
    )

    cache_flags = argparse.ArgumentParser(
        add_help=False, parents=[store_flags]
    )
    cache_flags.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the simulation sweep "
        "(default: $REPRO_WORKERS or 1 = serial)",
    )

    backend_flags = argparse.ArgumentParser(add_help=False)
    backend_flags.add_argument(
        "--backend",
        choices=accel.BACKENDS,
        default=None,
        help="simulation backend: pure Python (default) or the compiled "
        "hot core (falls back to python with a warning when it is not "
        "built).  Overrides $REPRO_BACKEND",
    )

    telemetry_flags = argparse.ArgumentParser(add_help=False)
    telemetry_flags.add_argument(
        "--telemetry",
        default=None,
        metavar="FILE",
        help="write the sweep's fleet-telemetry span log to FILE as JSONL "
        "(validate with scripts/check_doc.py spans)",
    )
    telemetry_flags.add_argument(
        "--telemetry-chrome",
        default=None,
        metavar="FILE",
        help="export the span log as a Chrome trace_event file for "
        "Perfetto: one track per worker plus a scheduler track",
    )

    p_run = sub.add_parser(
        "run",
        help="run one workload",
        parents=[cache_flags, telemetry_flags, backend_flags],
    )
    p_run.add_argument("workload", choices=workload_names())
    p_run.add_argument(
        "--system",
        default="chats",
        help="HTM system (default: chats)",
    )
    p_run.add_argument(
        "--all-systems",
        action="store_true",
        help="run the workload under all six systems",
    )
    p_run.add_argument("--threads", type=int, default=16)
    p_run.add_argument("--seed", type=int, default=1)
    p_run.add_argument("--scale", type=float, default=0.4)
    p_run.add_argument(
        "--timeline",
        type=int,
        default=None,
        metavar="CYCLES",
        help="collect interval metrics in CYCLES-wide windows and print "
        "an activity timeline table",
    )
    p_run.add_argument(
        "--forensics",
        action="store_true",
        help="attach a transaction ledger to each executed simulation and "
        "print per-run forensic digests (cache hits carry none)",
    )
    p_run.set_defaults(fn=cmd_run)

    p_trace = sub.add_parser(
        "trace",
        help="run one workload with full event tracing (always a fresh "
        "simulation)",
    )
    p_trace.add_argument("workload", choices=workload_names())
    p_trace.add_argument(
        "--system", default="chats", help="HTM system (default: chats)"
    )
    p_trace.add_argument("--threads", type=int, default=16)
    p_trace.add_argument("--seed", type=int, default=1)
    p_trace.add_argument("--scale", type=float, default=0.4)
    p_trace.add_argument(
        "--out",
        default="trace.jsonl",
        metavar="FILE",
        help="trace output path (default: trace.jsonl)",
    )
    p_trace.add_argument(
        "--format",
        choices=("jsonl", "chrome"),
        default="jsonl",
        help="trace file format (default: jsonl)",
    )
    p_trace.add_argument(
        "--chains",
        action="store_true",
        help="print the speculative forwarding chains the run's "
        "transaction ledger recorded",
    )
    p_trace.add_argument(
        "--timeline",
        type=int,
        default=None,
        metavar="CYCLES",
        help="also print an activity timeline with CYCLES-wide windows",
    )
    p_trace.set_defaults(fn=cmd_trace)

    p_insp = sub.add_parser(
        "inspect",
        help="forensic report for one run: causal abort attribution, "
        "cascades, chains, wasted work",
        parents=[store_flags],
    )
    p_insp.add_argument("workload", choices=workload_names())
    p_insp.add_argument(
        "--system", default="chats", help="HTM system (default: chats)"
    )
    p_insp.add_argument("--threads", type=int, default=16)
    p_insp.add_argument("--seed", type=int, default=1)
    p_insp.add_argument("--scale", type=float, default=0.4)
    p_insp.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        help="also write the full report as JSON "
        "(validate with scripts/check_doc.py forensics)",
    )
    p_insp.add_argument(
        "--html",
        default=None,
        metavar="FILE",
        help="also write a self-contained HTML report",
    )
    p_insp.set_defaults(fn=cmd_inspect)

    p_cmp = sub.add_parser(
        "compare",
        help="A/B two systems on the same workload/seed with per-cause "
        "abort and wasted-work deltas",
    )
    p_cmp.add_argument("system_a", metavar="SYSTEM_A")
    p_cmp.add_argument("system_b", metavar="SYSTEM_B")
    p_cmp.add_argument(
        "--workload",
        default="cadd",
        choices=workload_names(),
        help="workload to compare on (default: cadd, the contended "
        "chained-counter microbenchmark where forwarding pays off)",
    )
    p_cmp.add_argument("--threads", type=int, default=16)
    p_cmp.add_argument("--seed", type=int, default=1)
    p_cmp.add_argument("--scale", type=float, default=0.4)
    p_cmp.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        help="also write the comparison as JSON",
    )
    p_cmp.set_defaults(fn=cmd_compare)

    p_fig = sub.add_parser(
        "figure", help="regenerate a paper figure", parents=[cache_flags]
    )
    p_fig.add_argument("figure", choices=sorted(FIGURES))
    p_fig.add_argument("--scale", type=float, default=None)
    p_fig.set_defaults(fn=cmd_figure)

    p_bench = sub.add_parser(
        "bench",
        help="run the pinned performance regression suite",
        parents=[backend_flags],
        description=(
            "Run the pinned benchmark cases (fixed workload/threads/seed/"
            "scale, so simulated work is identical across revisions), "
            "report events/sec and peak RSS, and write BENCH_<rev>.json. "
            "Gate against the committed baseline with "
            "scripts/check_bench.py."
        ),
    )
    p_bench.add_argument(
        "workloads",
        nargs="*",
        metavar="WORKLOAD",
        help="subset of pinned cases to run (default: all)",
    )
    p_bench.add_argument(
        "--quick",
        action="store_true",
        help="reduced pinned scales for CI smoke runs",
    )
    p_bench.add_argument(
        "--repeat",
        type=int,
        default=None,
        metavar="N",
        help="runs per case, best-of (default: 3)",
    )
    p_bench.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="report path (default: benchmarks/perf/history/"
        "BENCH_<rev>.json in a source checkout, else ./BENCH_<rev>.json)",
    )
    p_bench.set_defaults(fn=cmd_bench)

    p_cache = sub.add_parser(
        "cache",
        help="inspect and maintain the on-disk result store",
        description=(
            "Operate on the result store under the cache directory: "
            "print a repro-store/2 stats document, read back every entry "
            "(verify), or sweep temp-file litter and evict "
            "least-recently-used entries to a byte budget (gc)."
        ),
    )
    cache_sub = p_cache.add_subparsers(dest="action", required=True)
    c_stats = cache_sub.add_parser(
        "stats",
        help="entry count, byte totals and entries per namespace",
        parents=[cache_dir_flag],
    )
    c_stats.add_argument(
        "--json",
        action="store_true",
        help="emit the repro-store/2 stats document as JSON "
        "(validate with scripts/check_doc.py store)",
    )
    c_verify = cache_sub.add_parser(
        "verify",
        help="read back every entry; exit 1 on any corruption",
        parents=[cache_dir_flag],
    )
    c_gc = cache_sub.add_parser(
        "gc",
        help="sweep temp-file litter, then evict least-recently-used "
        "entries to fit a byte budget",
        parents=[cache_dir_flag],
    )
    c_gc.add_argument(
        "max_bytes",
        type=_parse_size,
        metavar="SIZE",
        help="target size of the record files: bytes or K/M/G suffix "
        "(e.g. 512M)",
    )
    for sp in (c_stats, c_verify, c_gc):
        sp.set_defaults(fn=cmd_cache)

    p_list = sub.add_parser("list", help="list workloads/systems/experiments")
    p_list.set_defaults(fn=cmd_list)

    p_trend = sub.add_parser(
        "trend",
        help="render the cross-revision perf trajectory from "
        "benchmarks/perf/history",
        description=(
            "Read every BENCH_<rev>.json report in the history directory "
            "(oldest first by creation time), render events/sec per pinned "
            "case across revisions with per-step deltas, and flag "
            "regressions against the previous report and the committed "
            "baseline floors.  Exits 1 on a missing or corrupt report."
        ),
    )
    p_trend.add_argument(
        "history",
        nargs="?",
        default="benchmarks/perf/history",
        help="history directory of BENCH_*.json reports "
        "(default: benchmarks/perf/history)",
    )
    p_trend.add_argument(
        "--baseline",
        default="benchmarks/perf/baseline.json",
        metavar="FILE",
        help="baseline floors to annotate (default: "
        "benchmarks/perf/baseline.json)",
    )
    p_trend.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        metavar="FRAC",
        help="flag a case dropping more than FRAC below the previous "
        "report (default: 0.15)",
    )
    p_trend.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        help="also write the trend as JSON",
    )
    p_trend.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when any regression is flagged (CI gating)",
    )
    p_trend.set_defaults(fn=cmd_trend)

    p_rep = sub.add_parser(
        "report",
        help="regenerate the entire evaluation (all figures)",
        parents=[cache_flags, telemetry_flags, backend_flags],
    )
    p_rep.add_argument("--scale", type=float, default=None)
    p_rep.add_argument(
        "--forensics",
        action="store_true",
        help="record forensic digests for every simulation the sweep "
        "actually executes and print them after the figures",
    )
    p_rep.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except store_pkg.StoreInitError as exc:
        print(
            f"repro: cannot open the result store: {exc} "
            "(use --cache-dir DIR or --no-cache)",
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
