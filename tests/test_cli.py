"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture()
def collection_path(tmp_path):
    path = tmp_path / "sets.json"
    path.write_text(
        json.dumps(
            {
                "west": ["seattle", "portland", "oakland"],
                "west_dirty": ["seattle", "portlnd", "oaklnd"],
                "east": ["boston", "newyork"],
            }
        )
    )
    return str(path)


class TestGenerate:
    def test_generates_json_collection(self, tmp_path, capsys):
        out = tmp_path / "corpus.json"
        code = main([
            "generate", "--profile", "twitter", "--scale", "tiny",
            "--seed", "1", "--output", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload) == 150  # twitter-tiny num_sets
        assert "wrote 150 sets" in capsys.readouterr().out

    def test_deterministic_by_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            main([
                "generate", "--profile", "dblp", "--scale", "tiny",
                "--seed", "5", "--output", str(out),
            ])
        assert a.read_text() == b.read_text()


class TestStats:
    def test_reports_table1_columns(self, collection_path, capsys):
        assert main(["stats", collection_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_sets"] == 3
        assert payload["max_size"] == 3
        assert payload["num_unique_elements"] == 7


class TestSearch:
    def test_embedding_search(self, collection_path, capsys):
        code = main([
            "search", collection_path, "seattle", "portland", "oakland",
            "-k", "2", "--alpha", "0.4",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].endswith("west")

    def test_jaccard_search(self, collection_path, capsys):
        code = main([
            "search", collection_path, "seattle", "portlnd",
            "-k", "1", "--alpha", "0.5", "--jaccard",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "west_dirty" in out

    def test_verbose_stats_on_stderr(self, collection_path, capsys):
        main([
            "search", collection_path, "seattle",
            "-k", "1", "--alpha", "0.5", "--verbose",
        ])
        err = capsys.readouterr().err
        assert "candidates=" in err

    def test_csv_collection(self, tmp_path, capsys):
        path = tmp_path / "sets.csv"
        path.write_text("set_name,token\nx,alpha\nx,beta\ny,gamma\n")
        assert main(["search", str(path), "alpha", "-k", "1"]) == 0
        assert capsys.readouterr().out.strip().endswith("x")

    def test_partitions_and_safe_mode(self, collection_path, capsys):
        code = main([
            "search", collection_path, "seattle", "boston",
            "-k", "3", "--alpha", "0.4", "--partitions", "2",
            "--iub-mode", "safe",
        ])
        assert code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 3


class TestExplain:
    def test_prints_one_funnel_per_query(
        self, collection_path, tmp_path, capsys
    ):
        queries = tmp_path / "queries.jsonl"
        queries.write_text(
            '{"id": "q1", "query": ["seattle", "portland"], "k": 2}\n'
            '["boston"]\n'
        )
        code = main([
            "explain", collection_path, str(queries), "--alpha", "0.4",
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        funnels = [
            line.split() for line in lines if line.startswith("funnel")
        ]
        assert funnels == [["funnel", "merged", "p0"]] * 2
        assert any(line.startswith("request q1  k=2") for line in lines)


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_profile_rejected(self):
        with pytest.raises(SystemExit):
            main(["generate", "--profile", "bogus", "--output", "x.json"])

    @pytest.mark.parametrize(
        "command", [["search"], ["serve"], ["cluster", "serve"]]
    )
    def test_engine_flag_is_gone(self, collection_path, command, capsys):
        """One engine: the old ``--engine`` choice is a usage error."""
        with pytest.raises(SystemExit) as excinfo:
            main([*command, collection_path, "--engine", "columnar"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --engine" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert out.split()[1][0].isdigit()


class TestExitCodes:
    def test_missing_file_exits_noinput(self, capsys):
        assert main(["stats", "missing.json"]) == 66
        assert "repro: error:" in capsys.readouterr().err

    def test_unknown_extension_exits_invalid(self, tmp_path, capsys):
        path = tmp_path / "sets.parquet"
        path.write_text("whatever")
        assert main(["stats", str(path)]) == 2
        assert "unrecognized collection format" in capsys.readouterr().err

    def test_corrupt_snapshot_exits_snapshot_code(self, tmp_path, capsys):
        path = tmp_path / "bad.snap"
        path.write_bytes(b"NOTASNAP" + b"\x00" * 32)
        assert main(["stats", str(path)]) == 5
        assert "repro: error:" in capsys.readouterr().err

    def test_bad_json_collection_exits_invalid(self, tmp_path, capsys):
        path = tmp_path / "sets.json"
        path.write_text("[1, 2, 3]")
        assert main(["search", str(path), "tok"]) == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_gateway_config_errors_exit_gateway_code(self, tmp_path, capsys):
        assert main(
            ["gateway", "serve", "--config", str(tmp_path / "nope.json")]
        ) == 9
        assert "repro: error:" in capsys.readouterr().err
        bad = tmp_path / "tenants.json"
        bad.write_text(json.dumps({"tenants": [{"name": "a"}]}))
        assert main(["gateway", "serve", "--config", str(bad)]) == 9
        assert "collection" in capsys.readouterr().err


class TestIndexCommands:
    def test_build_inspect_round_trip(
        self, collection_path, tmp_path, capsys
    ):
        snap = tmp_path / "c.snap"
        assert main(["index", "build", collection_path, str(snap)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert main(["index", "inspect", str(snap)]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["num_sets"] == 3
        assert manifest["substrate"]["kind"] == "hashing-cosine"

    def test_build_rejects_non_snapshot_output(
        self, collection_path, tmp_path
    ):
        assert main(
            ["index", "build", collection_path, str(tmp_path / "c.json")]
        ) == 2

    def test_snapshot_search_matches_json_search(
        self, collection_path, tmp_path, capsys
    ):
        snap = tmp_path / "c.snap"
        main(["index", "build", collection_path, str(snap)])
        capsys.readouterr()
        query = ["seattle", "portland", "oakland", "-k", "2",
                 "--alpha", "0.4"]
        assert main(["search", collection_path, *query]) == 0
        from_json = capsys.readouterr().out
        assert main(["search", str(snap), *query]) == 0
        assert capsys.readouterr().out == from_json

    def test_compact_folds_wal(self, collection_path, tmp_path, capsys):
        snap, wal = tmp_path / "c.snap", tmp_path / "c.wal"
        main(["index", "build", collection_path, str(snap)])
        from repro.store import WriteAheadLog

        WriteAheadLog(wal).append("insert", "fresh", ["seattle", "reno"])
        assert main(
            ["index", "compact", str(snap), "--wal", str(wal)]
        ) == 0
        assert "folded 1 WAL records" in capsys.readouterr().out
        # Logically empty: the reset log keeps only its (bumped)
        # generation header, the crash-recovery handshake.
        reopened = WriteAheadLog(wal)
        assert reopened.records() == []
        assert reopened.generation == 1
        main(["index", "inspect", str(snap)])
        assert json.loads(capsys.readouterr().out)["num_sets"] == 4

    def test_jaccard_snapshot_rejects_looser_alpha(
        self, collection_path, tmp_path, capsys
    ):
        """A prefix-Jaccard index is only exact at or above its build
        alpha; serving below it must fail loudly, not drop matches."""
        snap = tmp_path / "c.snap"
        main([
            "index", "build", collection_path, str(snap),
            "--jaccard", "--alpha", "0.8",
        ])
        assert main([
            "search", str(snap), "seattle", "--alpha", "0.5",
        ]) == 2
        assert "alpha" in capsys.readouterr().err
        # At or above the build alpha the snapshot serves fine.
        assert main([
            "search", str(snap), "seattle", "--alpha", "0.8", "-k", "1",
        ]) == 0

    def test_stats_reads_snapshots(self, collection_path, tmp_path, capsys):
        snap = tmp_path / "c.snap"
        main(["index", "build", collection_path, str(snap)])
        capsys.readouterr()
        assert main(["stats", str(snap)]) == 0
        assert json.loads(capsys.readouterr().out)["num_sets"] == 3


class TestTraceCommands:
    @pytest.fixture()
    def sink(self, tmp_path):
        """A sink with one real two-span trace plus a slow singleton."""
        from repro import obs

        path = str(tmp_path / "trace.jsonl")
        tracer = obs.configure(path)
        try:
            with tracer.span(
                "gateway.request", trace_id="cafecafe" * 4
            ):
                with tracer.span("phase.refinement"):
                    pass
            tracer.record("phase.refinement", 0.5, trace_id="ffff" * 8)
        finally:
            obs.disable()
        return path

    def test_tail_prints_recent_trees(self, sink, capsys):
        assert main(["trace", "tail", sink]) == 0
        out = capsys.readouterr().out
        assert "trace cafecafe" in out
        assert "gateway.request" in out
        assert "  phase.refinement" in out

    def test_tail_of_empty_sink(self, tmp_path, capsys):
        assert main(["trace", "tail", str(tmp_path / "none.jsonl")]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "(no traces)" in captured.err

    def test_show_accepts_unambiguous_prefix(self, sink, capsys):
        assert main(["trace", "show", sink, "cafe"]) == 0
        assert "gateway.request" in capsys.readouterr().out

    def test_show_unknown_id_is_a_parameter_error(self, sink, capsys):
        assert main(["trace", "show", sink, "dead"]) == 2
        assert "no trace matching" in capsys.readouterr().err

    def test_top_by_phase_strips_prefix(self, sink, capsys):
        assert main(["trace", "top", sink, "--by", "phase"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("span")
        assert "refinement" in out
        assert "phase.refinement" not in out

    def test_serve_trace_flags_configure_the_global_tracer(
        self, collection_path, tmp_path, capsys
    ):
        import io
        import sys as _sys

        from repro import obs

        sink = tmp_path / "serve.jsonl"
        request = json.dumps(
            {"id": "t1", "query": ["seattle"], "k": 1, "trace_id": "ab" * 16}
        )
        stdin = _sys.stdin
        _sys.stdin = io.StringIO(request + "\n")
        try:
            assert main([
                "serve", collection_path,
                "--trace", str(sink), "--trace-sample", "1.0",
            ]) == 0
        finally:
            _sys.stdin = stdin
            obs.disable()  # serve enabled the process-global tracer
        response = json.loads(capsys.readouterr().out.splitlines()[0])
        assert response["results"]
        from repro.obs.inspect import read_spans

        spans = [
            s for s in read_spans(str(sink))
            if s["trace_id"] == "ab" * 16
        ]
        assert {"scheduler.search", "engine.search"} <= {
            s["name"] for s in spans
        }
