"""Index persistence: save, reopen, keep querying and updating."""

from __future__ import annotations

import json

import pytest

from repro import HammingMetric, LinearScan, SGTree, recover_tree
from repro.errors import RecoveryError
from repro.sgtree import NodeStore, validate_tree
from repro.sgtree.persistence import load_tree, save_tree
from repro.storage import FilePager, WriteAheadLog
from support import random_signature, random_transactions

import numpy as np

N_BITS = 150


@pytest.fixture
def transactions():
    return random_transactions(seed=61, count=250, n_bits=N_BITS)


def assert_equivalent(tree, transactions):
    scan = LinearScan(transactions)
    rng = np.random.default_rng(3)
    for _ in range(8):
        query = random_signature(rng, N_BITS)
        got = tree.nearest(query, k=3)
        expected = scan.nearest(query, k=3)
        assert [n.distance for n in got] == [n.distance for n in expected]


class TestExportAndReload:
    def test_sim_tree_round_trip(self, transactions, tmp_path):
        tree = SGTree(N_BITS, max_entries=8, split_policy="minsplit")
        for t in transactions:
            tree.insert(t)
        path = tmp_path / "index.sgt"
        save_tree(tree, path)
        assert path.exists()
        assert (tmp_path / "index.sgt.meta.json").exists()

        reopened = load_tree(path)
        assert len(reopened) == len(transactions)
        assert reopened.height == tree.height
        assert reopened.max_entries == tree.max_entries
        assert reopened.split_policy == "minsplit"
        validate_tree(reopened)
        assert dict(reopened.items()) == dict(tree.items())
        assert_equivalent(reopened, transactions)
        reopened.store.pager.close()

    def test_disk_tree_in_place_flush(self, transactions, tmp_path):
        path = tmp_path / "live.sgt"
        pager = FilePager(path, page_size=4096)
        store = NodeStore(N_BITS, page_size=4096, frames=8, mode="disk", pager=pager)
        tree = SGTree(N_BITS, max_entries=8, store=store)
        for t in transactions:
            tree.insert(t)
        save_tree(tree, path)
        pager.close()

        reopened = load_tree(path, frames=16)
        validate_tree(reopened)
        assert_equivalent(reopened, transactions)
        reopened.store.pager.close()

    def test_reopened_tree_supports_updates(self, transactions, tmp_path):
        tree = SGTree(N_BITS, max_entries=8)
        for t in transactions[:200]:
            tree.insert(t)
        path = tmp_path / "upd.sgt"
        save_tree(tree, path)

        reopened = load_tree(path)
        for t in transactions[200:]:
            reopened.insert(t)
        for t in transactions[:50]:
            assert reopened.delete(t)
        validate_tree(reopened)
        assert_equivalent(reopened, transactions[50:])
        # persist the updates in place and reload once more
        save_tree(reopened, path)
        reopened.store.pager.close()
        final = load_tree(path)
        validate_tree(final)
        assert_equivalent(final, transactions[50:])
        final.store.pager.close()

    def test_metric_round_trips(self, transactions, tmp_path):
        tree = SGTree(N_BITS, max_entries=8, metric=HammingMetric(fixed_area=9))
        for t in transactions[:40]:
            tree.insert(t)
        path = tmp_path / "metric.sgt"
        save_tree(tree, path)
        reopened = load_tree(path)
        assert reopened.metric.fixed_area == 9
        reopened.store.pager.close()

    def test_overwrites_previous_index(self, transactions, tmp_path):
        path = tmp_path / "twice.sgt"
        for subset in (transactions[:50], transactions[:120]):
            tree = SGTree(N_BITS, max_entries=8)
            for t in subset:
                tree.insert(t)
            save_tree(tree, path)
        reopened = load_tree(path)
        assert len(reopened) == 120
        validate_tree(reopened)
        reopened.store.pager.close()

    def test_unsupported_version_rejected(self, transactions, tmp_path):
        tree = SGTree(N_BITS, max_entries=8)
        tree.insert(transactions[0])
        path = tmp_path / "ver.sgt"
        save_tree(tree, path)
        meta_path = tmp_path / "ver.sgt.meta.json"
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 99
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="format"):
            load_tree(path)

    def test_varint_page_format_rejected(self, transactions, tmp_path):
        """Format 1 stored varint pages; its meta must fail to open with
        the typed error rather than decode its pages as columns."""
        tree = SGTree(N_BITS, max_entries=8)
        tree.insert(transactions[0])
        path = tmp_path / "v1.sgt"
        save_tree(tree, path)
        meta_path = tmp_path / "v1.sgt.meta.json"
        meta = json.loads(meta_path.read_text())
        assert meta["format_version"] == 2
        meta["format_version"] = 1
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="unsupported index format 1"):
            load_tree(path)

    def test_varint_page_format_log_rejected_before_replay(
        self, transactions, tmp_path
    ):
        """A log written by format 1 carries no ``format_version`` in its
        catalogue entries; recovery refuses it before touching the page
        file, rather than rescuing and quarantining its pages."""
        tree = SGTree(N_BITS, max_entries=8)
        for t in transactions[:40]:
            tree.insert(t)
        path = tmp_path / "v1.sgt"
        save_tree(tree, path)
        meta = tree.catalogue()
        assert meta.pop("format_version") == 2
        wal = WriteAheadLog(tmp_path / "v1.wal")
        wal.append_write(0, b"\x01\x00\x00")  # a format-1 leaf image
        wal.append_meta(meta)
        wal.append_commit()
        wal.close()
        before = path.read_bytes()
        with pytest.raises(RecoveryError, match="unsupported index format None"):
            recover_tree(path, tmp_path / "v1.wal")
        assert path.read_bytes() == before

    def test_empty_tree_round_trip(self, tmp_path):
        tree = SGTree(N_BITS, max_entries=8)
        path = tmp_path / "empty.sgt"
        save_tree(tree, path)
        reopened = load_tree(path)
        assert len(reopened) == 0
        assert reopened.nearest(random_signature(np.random.default_rng(0), N_BITS), k=1) == []
        reopened.store.pager.close()
