"""The command-line interface, driven through ``repro.cli.main``."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.data import load_transactions


@pytest.fixture
def dataset(tmp_path):
    path = tmp_path / "baskets.jsonl"
    status = main([
        "generate", "quest", "--t", "8", "--i", "4", "--d", "300",
        "--n-items", "200", "--n-patterns", "50", "-o", str(path),
    ])
    assert status == 0
    return path


@pytest.fixture
def index(dataset, tmp_path):
    path = tmp_path / "baskets.sgt"
    status = main(["build", str(dataset), "-o", str(path), "--max-entries", "16"])
    assert status == 0
    return path


class TestGenerate:
    def test_quest_file_valid(self, dataset):
        transactions, n_bits = load_transactions(dataset)
        assert len(transactions) == 300
        assert n_bits == 200

    def test_census(self, tmp_path, capsys):
        path = tmp_path / "census.jsonl"
        assert main(["generate", "census", "--count", "50", "-o", str(path)]) == 0
        transactions, n_bits = load_transactions(path)
        assert len(transactions) == 50
        assert n_bits == 525
        assert all(t.area == 36 for t in transactions)
        assert "CENSUS" in capsys.readouterr().out


class TestBuild:
    def test_build_reports_configuration(self, dataset, tmp_path, capsys):
        path = tmp_path / "out.sgt"
        assert main([
            "build", str(dataset), "-o", str(path),
            "--split-policy", "minsplit", "--compress",
        ]) == 0
        out = capsys.readouterr().out
        assert "indexed 300 transactions" in out
        assert "split=minsplit" in out
        assert path.exists()
        assert path.with_name(path.name + ".meta.json").exists()

    def test_bulk_build(self, dataset, tmp_path, capsys):
        path = tmp_path / "bulk.sgt"
        assert main([
            "build", str(dataset), "-o", str(path), "--bulk", "gray",
        ]) == 0
        assert "indexed 300 transactions" in capsys.readouterr().out


class TestQuery:
    def test_knn_default(self, index, dataset, capsys):
        transactions, _ = load_transactions(dataset)
        items = ",".join(map(str, transactions[0].items()))
        assert main(["query", str(index), "--items", items]) == 0
        out = capsys.readouterr().out
        assert "distance 0" in out  # the transaction itself is indexed

    def test_knn_k_and_stats(self, index, capsys):
        assert main([
            "query", str(index), "--items", "1,2,3", "--knn", "5", "--stats",
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("tid ") == 5
        assert "node accesses" in out

    def test_best_first(self, index, capsys):
        assert main([
            "query", str(index), "--items", "1,2,3", "--knn", "2", "--best-first",
        ]) == 0
        assert capsys.readouterr().out.count("tid ") == 2

    def test_range(self, index, capsys):
        assert main([
            "query", str(index), "--items", "1,2,3", "--range", "20",
        ]) == 0
        assert "within 20" in capsys.readouterr().out

    def test_contains(self, index, dataset, capsys):
        transactions, _ = load_transactions(dataset)
        item = transactions[0].items()[0]
        assert main([
            "query", str(index), "--items", str(item), "--contains",
        ]) == 0
        assert "contain" in capsys.readouterr().out

    def test_jaccard_metric(self, index, capsys):
        assert main([
            "query", str(index), "--items", "1,2,3", "--metric", "jaccard",
        ]) == 0
        assert "tid" in capsys.readouterr().out

    def test_bad_items(self, index):
        with pytest.raises(SystemExit):
            main(["query", str(index), "--items", "a,b"])


class TestInfo:
    def test_report(self, index, capsys):
        assert main(["info", str(index)]) == 0
        out = capsys.readouterr().out
        assert "SGTree" in out
        assert "level 0" in out


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestJoin:
    def test_epsilon_join(self, index, tmp_path, capsys):
        assert main([
            "join", str(index), str(index), "--epsilon", "0", "--limit", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "pairs within distance 0" in out
        assert "A#" in out

    def test_closest_pairs(self, index, capsys):
        assert main(["join", str(index), str(index), "--closest", "3"]) == 0
        out = capsys.readouterr().out
        assert "3 closest pairs" in out


class TestCluster:
    def test_clusters_printed(self, index, capsys):
        assert main(["cluster", str(index), "-k", "4"]) == 0
        out = capsys.readouterr().out
        assert "clusters over 300 transactions" in out
        assert out.count("cluster ") >= 4

    def test_members_flag(self, index, capsys):
        assert main(["cluster", str(index), "-k", "2", "--members"]) == 0
        assert "tids:" in capsys.readouterr().out


class TestRecover:
    def test_recover_and_requery(self, tmp_path, capsys):
        from repro import SGTree
        from repro.sgtree import NodeStore
        from repro.storage import FilePager, WriteAheadLog
        from repro.data.quest import QuestConfig, QuestGenerator

        pages = tmp_path / "r.pages"
        wal = tmp_path / "r.wal"
        pager = FilePager(pages, page_size=4096)
        store = NodeStore(200, page_size=4096, frames=8, mode="disk",
                          pager=pager, wal=WriteAheadLog(wal))
        tree = SGTree(200, max_entries=12, store=store)
        generator = QuestGenerator(QuestConfig(
            n_transactions=150, avg_transaction_size=8,
            avg_itemset_size=4, n_items=200, n_patterns=40))
        for t in generator.generate():
            tree.insert(t)
        tree.commit()
        pager.close()
        store.wal.close()

        assert main(["recover", str(pages), str(wal), "--save-meta"]) == 0
        out = capsys.readouterr().out
        assert "recovered 150 transactions" in out

        # meta.json was written: info and query now work on the page file
        assert main(["info", str(pages)]) == 0
        assert "SGTree" in capsys.readouterr().out
        assert main(["query", str(pages), "--items", "1,2,3", "--knn", "2"]) == 0
        assert capsys.readouterr().out.count("tid ") == 2

    def test_recover_reports_replay(self, tmp_path, capsys):
        from repro import SGTree
        from repro.sgtree import NodeStore
        from repro.storage import FilePager, WriteAheadLog

        pages = tmp_path / "rr.pages"
        wal = tmp_path / "rr.wal"
        pager = FilePager(pages, page_size=4096)
        store = NodeStore(64, page_size=4096, frames=8, mode="disk",
                          pager=pager, wal=WriteAheadLog(wal))
        tree = SGTree(64, max_entries=8, store=store)
        from repro import Signature
        for tid in range(20):
            tree.insert(tid, Signature.from_items([tid % 64, (tid * 7) % 64], 64))
        tree.commit()
        pager.close()
        store.wal.close()

        assert main(["recover", str(pages), str(wal)]) == 0
        out = capsys.readouterr().out
        assert "replay:" in out
        assert "batches" in out

        assert main(["recover", str(pages), str(wal), "--json"]) == 0
        import json as json_mod
        payload = json_mod.loads(capsys.readouterr().out)
        assert payload["batches_applied"] >= 1

    def test_recover_empty_log_exits_2(self, tmp_path, capsys):
        pages = tmp_path / "none.pages"
        wal = tmp_path / "none.wal"
        pages.write_bytes(b"")
        wal.write_bytes(b"")
        assert main(["recover", str(pages), str(wal)]) == 2
        assert "recover failed" in capsys.readouterr().err


class TestScrub:
    def test_clean_index_exits_0(self, index, capsys):
        assert main(["scrub", str(index)]) == 0
        out = capsys.readouterr().out
        assert "scrub: clean" in out

    def test_flipped_bit_exits_1(self, index, capsys):
        import json as json_mod

        from repro.storage import FilePager

        pager = FilePager(index, page_size=8192)
        pager.corrupt(0, bit=77)
        pager.close()
        assert main(["scrub", str(index)]) == 1
        assert "corrupt-slot" in capsys.readouterr().out
        assert main(["scrub", str(index), "--json"]) == 1
        payload = json_mod.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert any(i["kind"] == "corrupt-slot" for i in payload["issues"])

    def test_missing_index_exits_2(self, tmp_path, capsys):
        assert main(["scrub", str(tmp_path / "ghost.sgt")]) == 2
        assert "scrub failed" in capsys.readouterr().err


class TestRangeCountCommand:
    def test_count(self, index, capsys):
        assert main([
            "query", str(index), "--items", "1,2,3", "--count", "200", "--stats",
        ]) == 0
        out = capsys.readouterr().out
        assert "300 transactions within 200" in out
        assert "node accesses" in out


class TestQueryBatch:
    @pytest.fixture
    def query_file(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        status = main([
            "generate", "quest", "--t", "8", "--i", "4", "--d", "20",
            "--n-items", "200", "--n-patterns", "50", "--seed", "11",
            "-o", str(path),
        ])
        assert status == 0
        return path

    def test_batch_knn_with_stats(self, index, query_file, capsys):
        assert main([
            "query", str(index), "--batch", str(query_file),
            "--knn", "3", "--stats",
        ]) == 0
        out = capsys.readouterr().out
        assert "20 queries in" in out
        assert "queries/s" in out
        assert "node accesses" in out
        assert "hit ratio" in out

    def test_batch_range(self, index, query_file, capsys):
        assert main([
            "query", str(index), "--batch", str(query_file), "--range", "12",
        ]) == 0
        out = capsys.readouterr().out
        assert "20 queries in" in out

    def test_batch_matches_single_queries(self, index, query_file, capsys):
        assert main([
            "query", str(index), "--batch", str(query_file), "--knn", "1",
        ]) == 0
        batch_out = capsys.readouterr().out
        transactions, _ = load_transactions(query_file)
        first = transactions[0]
        items = ",".join(map(str, first.items()))
        assert main(["query", str(index), "--items", items]) == 0
        single_out = capsys.readouterr().out
        # tid/distance of the single query appears as query 0's hit
        tid, distance = single_out.split()[1], single_out.split()[3]
        assert f"query {first.tid}: 1 hits  [{tid}:{distance}]" in batch_out

    def test_items_and_batch_are_exclusive(self, index, query_file):
        with pytest.raises(SystemExit, match="exactly one"):
            main([
                "query", str(index), "--items", "1,2",
                "--batch", str(query_file),
            ])
        with pytest.raises(SystemExit, match="exactly one"):
            main(["query", str(index), "--knn", "2"])

    def test_batch_rejects_contains(self, index, query_file):
        with pytest.raises(SystemExit, match="--knn and --range only"):
            main([
                "query", str(index), "--batch", str(query_file), "--contains",
            ])

    def test_batch_rejects_mismatched_bits(self, index, tmp_path):
        wrong = tmp_path / "wrong.jsonl"
        assert main([
            "generate", "quest", "--t", "5", "--i", "3", "--d", "5",
            "--n-items", "64", "-o", str(wrong),
        ]) == 0
        with pytest.raises(SystemExit, match="200-bit"):
            main(["query", str(index), "--batch", str(wrong), "--knn", "1"])


class TestQueryExplain:
    def test_explain_knn_prints_trace(self, index, capsys):
        assert main([
            "query", str(index), "--items", "1,2,3", "--knn", "3", "--explain",
        ]) == 0
        out = capsys.readouterr().out
        assert "EXPLAIN knn" in out
        assert "descended" in out
        assert "trace reconciles with stats: yes" in out

    def test_explain_range_and_contains(self, index, capsys):
        assert main([
            "query", str(index), "--items", "1,2,3", "--range", "20", "--explain",
        ]) == 0
        assert "EXPLAIN range" in capsys.readouterr().out
        assert main([
            "query", str(index), "--items", "1,2", "--contains", "--explain",
        ]) == 0
        assert "EXPLAIN containment" in capsys.readouterr().out

    def test_trace_out_writes_jsonl(self, index, tmp_path, capsys):
        import json as json_mod

        trace = tmp_path / "trace.jsonl"
        assert main([
            "query", str(index), "--items", "1,2,3", "--knn", "2",
            "--trace-out", str(trace),
        ]) == 0
        out = capsys.readouterr().out
        assert f"trace written to {trace}" in out
        docs = [json_mod.loads(line) for line in trace.read_text().splitlines()]
        assert any("page_id" in d for d in docs)

    def test_explain_rejects_count_and_best_first(self, index):
        with pytest.raises(SystemExit, match="--explain"):
            main([
                "query", str(index), "--items", "1", "--count", "5", "--explain",
            ])
        with pytest.raises(SystemExit, match="depth-first"):
            main([
                "query", str(index), "--items", "1", "--best-first", "--explain",
            ])


class TestStatsCommand:
    def test_prometheus_output_is_valid(self, index, capsys):
        from repro.telemetry import validate_prometheus_text

        assert main(["stats", str(index), "--probe", "5"]) == 0
        out = capsys.readouterr().out
        assert validate_prometheus_text(out + "\n") == []
        assert "sgtree_node_accesses_total" in out
        assert "sgtree_query_seconds_bucket" in out

    def test_json_output_parses(self, index, capsys):
        import json as json_mod

        assert main(["stats", str(index), "--format", "json", "--probe", "3"]) == 0
        doc = json_mod.loads(capsys.readouterr().out)
        assert doc["sgtree_queries_total"]["series"]["knn"] == 3.0
        assert doc["sgtree_height"]["series"]["default"] >= 1

    def test_no_probe_reports_idle_metrics(self, index, capsys):
        assert main(["stats", str(index)]) == 0
        out = capsys.readouterr().out
        assert "sgtree_node_accesses_total" in out


class TestServeCommand:
    def test_serve_answers_http_and_shuts_down(self, index):
        """`repro-sgtree serve` end to end, as a subprocess."""
        import json as json_mod
        import re
        import signal
        import subprocess
        import sys as sys_mod
        import time as time_mod
        import urllib.request

        process = subprocess.Popen(
            [
                sys_mod.executable, "-m", "repro.cli", "serve", str(index),
                "--port", "0", "--max-inflight", "2", "--max-queue", "4",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = process.stdout.readline()
            match = re.search(r"http://[\d.]+:(\d+)", line)
            assert match, f"no address in startup line: {line!r}"
            base = match.group(0)
            deadline = time_mod.monotonic() + 30
            health = None
            while time_mod.monotonic() < deadline:
                try:
                    with urllib.request.urlopen(f"{base}/healthz", timeout=5) as r:
                        health = json_mod.loads(r.read())
                    break
                except OSError:
                    time_mod.sleep(0.05)
            assert health is not None and health["status"] == "ok"
            assert health["max_inflight"] == 2

            body = json_mod.dumps({"items": [1, 2, 3], "k": 2}).encode()
            request = urllib.request.Request(
                f"{base}/query/knn", data=body, method="POST",
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=10) as r:
                answer = json_mod.loads(r.read())
            assert len(answer["results"]) == 2
        finally:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=15)
        assert process.returncode == 0

    def test_serve_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "idx.sgt"])
        assert args.command == "serve"
        assert args.max_inflight == 8
        assert args.max_queue == 32
        assert args.deadline_ms is None


class TestInitialThresholdFlag:
    """`query --initial-threshold`; serve has no bound-sharing knobs."""

    def test_seed_at_infinity_changes_nothing(self, index, capsys):
        assert main([
            "query", str(index), "--items", "1,2,3", "--knn", "3",
        ]) == 0
        unseeded = capsys.readouterr().out
        assert main([
            "query", str(index), "--items", "1,2,3", "--knn", "3",
            "--initial-threshold", "inf",
        ]) == 0
        assert capsys.readouterr().out == unseeded

    def test_binding_seed_prints_provenance_under_stats(self, index, capsys):
        assert main([
            "query", str(index), "--items", "1,2,3", "--knn", "3",
            "--initial-threshold", "0", "--stats",
        ]) == 0
        out = capsys.readouterr().out
        assert "pruning bound: provenance=pilot" in out

    def test_unseeded_stats_omit_the_bound_line(self, index, capsys):
        assert main([
            "query", str(index), "--items", "1,2,3", "--knn", "3", "--stats",
        ]) == 0
        assert "pruning bound" not in capsys.readouterr().out

    @pytest.mark.parametrize("bad", ["-1", "nan", "-0.5", "pretty-tight"])
    def test_invalid_seed_is_rejected_by_the_parser(self, bad, capsys):
        with pytest.raises(SystemExit):
            main([
                "query", "idx.sgt", "--items", "1,2", "--knn", "3",
                "--initial-threshold", bad,
            ])
        err = capsys.readouterr().err
        assert "initial threshold" in err or "expected a number" in err

    def test_seed_requires_a_knn_query(self, index):
        with pytest.raises(SystemExit, match="--knn queries only"):
            main([
                "query", str(index), "--items", "1,2", "--contains",
                "--initial-threshold", "5",
            ])
        with pytest.raises(SystemExit, match="--knn queries only"):
            main([
                "query", str(index), "--items", "1,2", "--range", "10",
                "--initial-threshold", "5",
            ])

    def test_explain_accepts_the_seed(self, index, capsys):
        assert main([
            "query", str(index), "--items", "1,2,3", "--knn", "3",
            "--explain", "--initial-threshold", "40",
        ]) == 0
        assert "EXPLAIN knn" in capsys.readouterr().out

    def test_batch_knn_accepts_a_scalar_seed(self, index, tmp_path, capsys):
        queries = tmp_path / "queries.jsonl"
        assert main([
            "generate", "quest", "--t", "8", "--i", "4", "--d", "10",
            "--n-items", "200", "--seed", "12", "-o", str(queries),
        ]) == 0
        capsys.readouterr()
        assert main([
            "query", str(index), "--batch", str(queries), "--knn", "2",
            "--initial-threshold", "inf",
        ]) == 0
        assert "10 queries in" in capsys.readouterr().out

    def test_removed_batch_flags_exit_2(self, capsys):
        from repro.cli import build_parser

        for argv in (["query", "idx.sgt", "--items", "1", "--workers", "2"],
                     ["serve", "idx.sgt", "--batch-size", "8"]):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_removed_serve_bound_flags_exit_2(self, capsys):
        from repro.cli import build_parser

        for flag in (["--no-bound-sharing"], ["--bound-report-interval", "4"]):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(["serve", "idx.sgt", *flag])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
