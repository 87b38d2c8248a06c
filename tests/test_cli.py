"""Unit tests: the command-line interface."""

import json

import pytest

from repro import cli
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "swim"])
        assert args.model == "TON" and args.length == 20_000

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "swim", "--model", "ZZ"])

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.models == "N,TON"
        assert args.apps == "15" and args.length == 20_000
        assert args.jobs is None and args.no_cache is False

    def test_scale_flags(self):
        args = build_parser().parse_args(
            ["sweep", "--apps", "all", "--jobs", "4", "--no-cache"]
        )
        assert args.apps == "all" and args.jobs == 4 and args.no_cache

    @pytest.mark.parametrize("flag,value", [
        ("--apps", "0"), ("--apps", "-3"), ("--apps", "some"),
        ("--length", "0"), ("--jobs", "0"),
    ])
    def test_bad_scale_values_rejected(self, flag, value):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", flag, value])

    def test_figure_accepts_multiple_names(self):
        args = build_parser().parse_args(["figure", "fig4_1", "headline"])
        assert args.names == ["fig4_1", "headline"]

    def test_figure_requires_a_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure"])

    def test_cache_actions(self):
        assert build_parser().parse_args(["cache", "info"]).action == "info"
        assert build_parser().parse_args(["cache", "clear"]).action == "clear"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "purge"])

    def test_help_documents_new_surface(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        out = capsys.readouterr().out
        assert "--jobs" in out
        assert "cache" in out
        assert "REPRO_CACHE_DIR" in out


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "TON" in out
        assert "fig4_11" in out
        assert "wupwise" in out

    def test_run(self, capsys):
        assert main(["run", "gzip", "--model", "N", "--length", "1500"]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out and "energy" in out

    def test_run_unknown_app(self, capsys):
        assert main(["run", "nonesuch"]) == 2
        assert "unknown application" in capsys.readouterr().err

    def test_sweep(self, capsys):
        assert main(["sweep", "--models", "N,TN", "--apps", "2",
                     "--length", "1200"]) == 0
        out = capsys.readouterr().out
        assert "N IPC" in out and "TN IPC" in out

    def test_sweep_unknown_model(self, capsys):
        assert main(["sweep", "--models", "N,QQ", "--apps", "2"]) == 2
        assert "unknown model" in capsys.readouterr().err

    def test_figure_table(self, capsys):
        assert main(["figure", "table3_2"]) == 0
        assert "rename" in capsys.readouterr().out

    def test_figure_generated(self, capsys):
        assert main(["figure", "fig4_8", "--apps", "3",
                     "--length", "1500"]) == 0
        assert "Coverage" in capsys.readouterr().out

    def test_figure_unknown(self, capsys):
        assert main(["figure", "fig9_9"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_figure_unknown_name_rejected_before_simulating(self, capsys):
        # A bad name anywhere in the list fails fast, before any runs.
        assert main(["figure", "fig4_8", "fig9_9", "--apps", "2"]) == 2
        assert "fig9_9" in capsys.readouterr().err
        assert not cli._RUNNERS

    def test_multiple_figures_share_one_runner(self, capsys):
        assert main(["figure", "table3_1", "fig4_8", "fig4_10",
                     "--apps", "2", "--length", "1200"]) == 0
        captured = capsys.readouterr()
        assert "Table 3.1" in captured.out
        assert "Coverage" in captured.out
        assert "Figure 4.10" in captured.out
        # fig4_8 and fig4_10 both need TOW/TON runs; one shared runner
        # means each (model, app) cell simulated at most once.
        [runner] = cli._RUNNERS.values()
        assert runner.simulations_run == runner.runs_cached

    def test_repeated_invocations_reuse_shared_runner(self, capsys):
        argv = ["figure", "fig4_8", "--apps", "2", "--length", "1200",
                "--no-cache"]
        assert main(argv) == 0
        [runner] = cli._RUNNERS.values()
        runs = runner.simulations_run
        assert runs > 0
        assert main(argv) == 0
        assert runner.simulations_run == runs  # memo served everything


def _cache_info(capsys) -> dict[str, dict[str, str]]:
    """``repro cache info`` parsed into {cache: {field: value}}.

    Each cache prints a ``<name> <path>`` header and indented fields;
    ``entries   N`` is printed verbatim (CI greps it).
    """
    assert main(["cache", "info"]) == 0
    blocks: dict[str, dict[str, str]] = {}
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("  "):
            label, value = line.split(None, 1)
            assert line == f"  {label:<9} {value}"
            fields[label] = value
        else:
            name, path = line.split(None, 1)
            fields = blocks[name] = {"path": path}
    assert list(blocks) == ["store", "artifacts", "plans"]
    return blocks


class TestResultStoreCli:
    def test_cache_info_empty(self, capsys):
        info = _cache_info(capsys)
        assert info["store"]["entries"] == "0"
        assert "repro-cache" in info["store"]["path"]
        assert all(block["entries"] == "0" for block in info.values())

    def test_sweep_populates_store_then_serves_from_it(self, capsys):
        argv = ["sweep", "--models", "N,TN", "--apps", "2",
                "--length", "1200", "--jobs", "1"]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "4 simulated" in first.err

        cli.reset_runners()  # force a fresh runner: only the disk store left
        assert main(argv) == 0
        second = capsys.readouterr()
        assert "0 simulated, 4 from store" in second.err
        assert second.out == first.out  # byte-identical table

        assert _cache_info(capsys)["store"]["entries"] == "4"

    def test_no_cache_bypasses_store(self, capsys):
        argv = ["sweep", "--models", "N", "--apps", "2", "--length", "1200",
                "--no-cache"]
        assert main(argv) == 0
        capsys.readouterr()
        info = _cache_info(capsys)
        assert info["store"]["entries"] == "0"
        assert info["artifacts"]["entries"] == "2"  # artifacts still cached

    def test_cache_clear(self, capsys):
        assert main(["sweep", "--models", "N", "--apps", "2",
                     "--length", "1200"]) == 0
        capsys.readouterr()
        assert main(["cache", "clear"]) == 0
        out = capsys.readouterr().out
        assert "store     removed 2 entries" in out
        assert "artifacts removed 2 entries" in out
        info = _cache_info(capsys)
        assert all(block["entries"] == "0" for block in info.values())

    def test_cache_info_counts_corrupt_shard_and_orphan_tmp_once(
        self, capsys, dead_pid
    ):
        """A corrupt-body compiled-plan shard is quarantined and counted
        exactly once, an orphaned writer tmp file is swept and counted
        exactly once, and the plans size covers only healthy shards.
        """
        import marshal

        from repro.pipeline.specialize import CompiledPlanCache, _header

        cache = CompiledPlanCache()
        code = compile("def replay(core, mem_lats):\n    pass\n",
                       "<test>", "exec")
        key_ok = "ab" + "0" * 62
        cache.store(key_ok, code)
        healthy_size = cache.path(key_ok).stat().st_size

        # Valid header, body that decodes to a float instead of raising.
        bad_path = cache.path("cd" + "0" * 62)
        bad_path.parent.mkdir(parents=True, exist_ok=True)
        bad_path.write_bytes(_header() + marshal.dumps(2.5))
        orphan = bad_path.with_name(f"{bad_path.name}.tmp.{dead_pid}")
        orphan.write_bytes(b"partial write")

        plans = _cache_info(capsys)["plans"]
        assert plans["entries"] == "1"
        assert plans["size"] == f"{healthy_size} bytes"
        assert plans["quarantined"] == "1 corrupt"
        assert plans["swept"] == "1 stale tmp"
        assert not bad_path.exists() and not orphan.exists()

        # Both were handled (and reported) once: a rerun starts clean.
        plans = _cache_info(capsys)["plans"]
        assert plans["entries"] == "1"
        assert plans["quarantined"] == "0 corrupt"
        assert plans["swept"] == "0 stale tmp"


class TestShardParser:
    def test_plan_defaults(self):
        args = build_parser().parse_args(["shard", "plan", "--shards", "2"])
        assert args.models == "all" and args.apps == "15"
        assert args.shards == 2 and args.output == "shard-plan.json"

    def test_plan_requires_shards(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["shard", "plan"])

    def test_run_defaults(self):
        args = build_parser().parse_args(
            ["shard", "run", "plan.json", "--index", "1"]
        )
        assert args.plan == "plan.json" and args.index == 1
        assert args.jobs is None and args.store is None

    def test_merge_takes_source_list(self):
        args = build_parser().parse_args(
            ["shard", "merge", "a", "b", "--into", "m", "--plan", "p.json"]
        )
        assert args.sources == ["a", "b"] and args.into == "m"
        assert args.plan == "p.json" and args.keep_corrupt is False

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1" and args.port == 8035
        assert args.lru == 256 and args.jobs is None and args.store is None


class TestShardCommands:
    def test_plan_run_merge_round_trip(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        assert main(["shard", "plan", "--models", "N,TON", "--apps", "2",
                     "--length", "1200", "--shards", "2",
                     "--output", str(plan)]) == 0
        out = capsys.readouterr().out
        assert "planned 4 cells over 2 shard(s)" in out
        assert "digest" in out and plan.exists()

        for index in range(2):
            assert main(["shard", "run", str(plan), "--index", str(index),
                         "--store", str(tmp_path / f"s{index}")]) == 0
            out = capsys.readouterr().out
            assert f"shard {index + 1}/2: 2 cell(s) — 2 simulated" in out

        merge = ["shard", "merge", str(tmp_path / "s0"), str(tmp_path / "s1"),
                 "--into", str(tmp_path / "merged"), "--plan", str(plan)]
        assert main(merge) == 0
        out = capsys.readouterr().out
        assert out.count("2 copied, 0 identical") == 2
        assert "plan complete: all 4 cell(s)" in out

        # Idempotent: the second merge copies nothing and stays healthy.
        assert main(merge) == 0
        out = capsys.readouterr().out
        assert out.count("0 copied, 2 identical") == 2

    def test_merge_flags_missing_cells(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        assert main(["shard", "plan", "--models", "N", "--apps", "2",
                     "--length", "1200", "--shards", "2",
                     "--output", str(plan)]) == 0
        capsys.readouterr()
        assert main(["shard", "run", str(plan), "--index", "0",
                     "--store", str(tmp_path / "s0")]) == 0
        capsys.readouterr()
        assert main(["shard", "merge", str(tmp_path / "s0"),
                     "--into", str(tmp_path / "merged"),
                     "--plan", str(plan)]) == 1
        out = capsys.readouterr().out
        assert "1 of 2 plan cell(s) missing" in out
        assert "missing: N/" in out

    def test_plan_rejects_unknown_model(self, tmp_path, capsys):
        assert main(["shard", "plan", "--models", "N,QQ", "--shards", "1",
                     "--output", str(tmp_path / "p.json")]) == 2
        assert "unknown model" in capsys.readouterr().err

    def test_run_rejects_tampered_plan(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        assert main(["shard", "plan", "--models", "N", "--apps", "1",
                     "--length", "1200", "--shards", "1",
                     "--output", str(plan)]) == 0
        capsys.readouterr()
        payload = json.loads(plan.read_text())
        payload["length"] = 9999
        plan.write_text(json.dumps(payload))
        assert main(["shard", "run", str(plan), "--index", "0",
                     "--store", str(tmp_path / "s0")]) == 2
        assert "digest mismatch" in capsys.readouterr().err
