"""Tests for the ``python -m repro`` command-line interface."""

import sys
from pathlib import Path

import pytest

import repro.__main__ as cli
from repro.__main__ import build_parser, main
from repro.analysis.forensics import FORENSICS_SCHEMA
from repro.experiments import runner

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import check_doc  # noqa: E402


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "counter"])
        assert args.workload == "counter"
        assert args.system == "chats"
        assert args.threads == 16

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "not-a-workload"])

    def test_figure_choices(self):
        args = build_parser().parse_args(["figure", "fig4"])
        assert args.figure == "fig4"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig2"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_cache_and_worker_flags(self):
        args = build_parser().parse_args(
            ["figure", "fig4", "--workers", "4", "--no-cache",
             "--cache-dir", "/tmp/repro-cache"]
        )
        assert args.workers == 4
        assert args.no_cache is True
        assert args.cache_dir == "/tmp/repro-cache"

    def test_cache_flags_default_off(self):
        for argv in (["run", "counter"], ["figure", "fig4"], ["report"]):
            args = build_parser().parse_args(argv)
            assert args.workers is None
            assert args.no_cache is False
            assert args.cache_dir is None

    def test_removed_flags_and_subcommands_are_rejected(self):
        for argv in (["run", "counter", "--store", "sharded"],
                     ["cache", "migrate"],
                     ["cache", "compact"],
                     ["run", "counter", "--metrics", "m.prom"],
                     ["report", "--live"],
                     ["run", "counter", "--trace", "t.jsonl"],
                     ["run", "counter", "--trace-format", "chrome"],
                     ["trace", "counter", "--workers", "2"],
                     ["trace", "counter", "--no-cache"],
                     ["trace", "counter", "--cache-dir", "d"],
                     ["inspect", "counter", "--workers", "2"],
                     ["inspect", "counter", "--fresh"],
                     ["run", "counter", "--backend", "python"],
                     ["report", "--backend", "compiled"],
                     ["bench", "--backend", "python"],
                     ["bench"],
                     ["trend", "--strict"],
                     ["trend", "--baseline", "b.json"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)

    def test_trend_takes_only_the_history_directory(self):
        args = build_parser().parse_args(["trend"])
        assert args.history == "benchmarks/perf/history"
        assert build_parser().parse_args(["trend", "h"]).history == "h"
        for argv in (["trend", "--json", "t.json"],
                     ["trend", "--tolerance", "0.1"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)

    def test_cache_gc_rejects_sizes_it_cannot_honour(self):
        for argv in (["cache", "gc", "inf"], ["cache", "gc", "--", "-5M"]):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
            assert exc.value.code == 2

    def test_cache_subcommands_take_only_cache_dir(self):
        args = build_parser().parse_args(["cache", "stats", "--cache-dir", "d"])
        assert args.cache_dir == "d"
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["cache", "stats", "--no-cache"])
        assert exc.value.code == 2


class TestExecution:
    @pytest.fixture(autouse=True)
    def _tmp_cache(self, tmp_path, monkeypatch):
        """Keep CLI-driven runs from writing a cache into the repo, and
        the runner settings main() makes (``--no-cache``, the progress
        printer) from leaking into later tests."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        for name in ("_cache_dir_override", "_disk_cache_override",
                     "_default_progress"):
            monkeypatch.setattr(runner, name, None)

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "kmeans-h" in out
        assert "levc-be-idealized" in out
        assert "fig10" in out

    def test_run_single_system(self, capsys):
        rc = main(
            ["run", "counter", "--system", "baseline", "--threads", "2",
             "--scale", "0.1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "execution time" in out
        assert "commits" in out

    def test_run_all_systems(self, capsys):
        rc = main(
            ["run", "counter", "--all-systems", "--threads", "2",
             "--scale", "0.1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("cycles=") == 6

    def test_run_telemetry_exports_pass_the_checker(self, tmp_path, capsys):
        spans, chrome = tmp_path / "fleet.jsonl", tmp_path / "fleet.json"
        rc = main(
            ["run", "counter", "--all-systems", "--threads", "2",
             "--scale", "0.1", "--no-cache", "--telemetry", str(spans),
             "--telemetry-chrome", str(chrome)]
        )
        assert rc == 0
        assert capsys.readouterr().out.count("telemetry        :") == 2
        assert check_doc.check_file("spans", spans) == []
        assert check_doc.check_file("chrome", chrome) == []

    def test_report_forensics_prints_one_digest_per_config(
        self, capsys, monkeypatch
    ):
        """On a fresh cache every config of the sweep executes, so each
        gets its digest, even though rendering the figures afterwards
        re-runs the configs as cache hits."""
        monkeypatch.setattr(cli, "FIGURES", {"fig1": cli.FIGURES["fig1"]})
        monkeypatch.setenv("REPRO_SCALE", "0.2")
        monkeypatch.setenv("REPRO_THREADS", "2")
        runner.clear_cache()
        distinct = {cfg.key() for cfg in cli.experiment_configs("fig1")}
        assert main(["report", "--forensics"]) == 0
        out = capsys.readouterr().out
        digests = out.split("forensic digests :\n", 1)[1].splitlines()
        assert len(digests) == len(distinct)
        assert all("aborts=" in line for line in digests)

    def test_trace_writes_checked_documents(self, tmp_path, capsys):
        jsonl, chrome = tmp_path / "t.jsonl", tmp_path / "t.json"
        base = ["trace", "counter", "--threads", "4", "--scale", "0.1"]
        assert main(base + ["--out", str(jsonl)]) == 0
        assert main(
            base + ["--out", str(chrome), "--format", "chrome", "--chains"]
        ) == 0
        out = capsys.readouterr().out
        assert check_doc.check_file("events", jsonl) == []
        assert check_doc.check_file("chrome", chrome) == []
        assert "chain #1" in out
        assert out.count("trace            :") == 2

    def test_inspect_serves_a_repeat_from_the_store(self, capsys):
        argv = ["inspect", "counter", "--threads", "4", "--scale", "0.1"]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "cached report" not in first.err
        cfg = runner.RunConfig.make(
            "counter", "chats", threads=4, seed=1, scale=0.1,
            max_events=80_000_000,
        )
        key = f"forensics/{cfg.key()}"
        assert runner.result_store().load(key, FORENSICS_SCHEMA) is not None
        assert main(argv) == 0
        second = capsys.readouterr()
        assert "cached report" in second.err
        assert second.out == first.out

    def test_inspect_html_comes_from_the_document(self, tmp_path, capsys):
        """``--html`` renders the document, so it no longer forces a
        fresh run: a repeat is served from the store, and its page is
        byte-identical to the live run's."""
        argv = ["inspect", "counter", "--threads", "4", "--scale", "0.1"]
        live, cached = tmp_path / "live.html", tmp_path / "cached.html"
        assert main(argv + ["--html", str(live)]) == 0
        assert "cached report" not in capsys.readouterr().err
        assert main(argv + ["--html", str(cached)]) == 0
        assert "cached report" in capsys.readouterr().err
        assert cached.read_bytes() == live.read_bytes()
        assert live.read_text().startswith("<!doctype html>")

    def test_unknown_system_exits(self):
        with pytest.raises(SystemExit, match="unknown system"):
            main(["run", "counter", "--system", "bogus"])

    def test_unopenable_store_exits_2_without_writing(
        self, tmp_path, capsys
    ):
        cache = tmp_path / "squatted"
        cache.mkdir()
        (cache / "store").write_text("not a directory")
        rc = main(
            ["run", "counter", "--all-systems", "--threads", "2",
             "--scale", "0.1", "--cache-dir", str(cache)]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: cannot open the result store: ")
        assert str(cache / "store") in err
        assert err.count("\n") == 1
        assert [p.name for p in cache.iterdir()] == ["store"]
