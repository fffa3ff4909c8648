"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import build_parser, main


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

    def test_store_flag_and_cache_migrate_are_gone(self):
        for argv in (["run", "counter", "--store", "sharded"],
                     ["cache", "migrate"]):
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
        """Keep CLI-driven runs from writing a cache into the repo."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        yield
        # main() installs a default progress printer; don't leak it into
        # later tests' stderr.
        from repro.experiments import runner

        runner._default_progress = None

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

    def test_unknown_system_exits(self):
        with pytest.raises(SystemExit, match="unknown system"):
            main(["run", "counter", "--system", "bogus"])

    def test_unopenable_store_exits_2_without_writing(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.experiments import runner

        monkeypatch.setattr(runner, "_cache_dir_override", None)
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
