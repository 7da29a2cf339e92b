"""The crash matrix: kill the workload at randomized storage operations
and prove recovery restores exactly the last committed state.

The campaign is deterministic per seed (``REPRO_CRASH_SEED``, default 0):
a fault-free control run counts the workload's total storage operations,
a sample of kill points is drawn from that range, and each kill point is
replayed in a fresh directory with a :class:`FaultPlan` that crashes at
that exact operation — tearing the in-flight write and refusing all I/O
afterwards.  ``plan.commits_durable`` then says which commit snapshot the
recovered tree must equal, bit for bit and query for query (distances
checked against a :class:`LinearScan` over the same committed prefix).
"""

from __future__ import annotations

import gc
import os
import random
import threading
import time

import numpy as np
import pytest

from repro import LinearScan, SGTree, Transaction, recover_tree
from repro.errors import CrashError, PageCorruptError, RecoveryError
from repro.sgtree import (
    ConcurrentSGTree,
    NodeStore,
    bulk_load,
    scrub_index,
    scrub_tree,
    validate_tree,
)
from repro.sgtree.persistence import load_tree, save_tree
from repro.storage import (
    FaultInjectingLog,
    FaultInjectingPager,
    FaultPlan,
    FilePager,
    WriteAheadLog,
)
from support import random_signature, random_transactions

SEED = int(os.environ.get("REPRO_CRASH_SEED", "0"))
N_BITS = 120
PAGE_SIZE = 2048
COMMIT_EVERY = 30
N_KILL_POINTS = 26


def make_script(transactions):
    """An insert/delete/commit script plus the expected {tid: signature}
    state at each commit — computed in pure python, no tree involved."""
    script, snapshots = [], []
    state: dict[int, object] = {}
    for i, t in enumerate(transactions):
        script.append(("insert", t))
        state[t.tid] = t.signature
        if (i + 1) % COMMIT_EVERY == 0:
            for tid in sorted(state)[:3]:  # age out a few: exercises FREEs
                script.append(("delete", (tid, state.pop(tid))))
            script.append(("commit", None))
            snapshots.append(dict(state))
    return script, snapshots


def run_script(tmp_path, script, plan, name="crashy"):
    """Drive the script against a fault-injected disk tree.  Returns the
    (pages, wal) paths; raises CrashError when the plan kills the run."""
    pages = tmp_path / f"{name}.pages"
    wal_path = tmp_path / f"{name}.wal"
    pager = FaultInjectingPager(FilePager(pages, page_size=PAGE_SIZE), plan)
    wal = FaultInjectingLog(wal_path, plan)
    store = NodeStore(
        N_BITS, page_size=PAGE_SIZE, frames=8, mode="disk", pager=pager, wal=wal
    )
    try:
        tree = SGTree(N_BITS, max_entries=8, store=store)
        for op, arg in script:
            if op == "insert":
                tree.insert(arg)
            elif op == "delete":
                tid, signature = arg
                assert tree.delete(tid, signature)
            else:
                tree.commit()
    finally:
        pager.close()
        wal.close()
    return pages, wal_path


def check_recovered(recovered, expected):
    """The recovered tree must hold exactly `expected` and answer
    queries identically to a linear scan over it."""
    validate_tree(recovered)
    assert dict(recovered.items()) == expected
    scan = LinearScan(
        [Transaction(tid, signature) for tid, signature in expected.items()]
    )
    rng = np.random.default_rng(SEED + 1)
    for _ in range(3):
        query = random_signature(rng, N_BITS)
        got = recovered.nearest(query, k=3)
        want = scan.nearest(query, k=3)
        assert [n.distance for n in got] == [n.distance for n in want]


class TestCrashMatrix:
    @pytest.fixture(scope="class")
    def campaign(self):
        transactions = random_transactions(seed=SEED + 40, count=120, n_bits=N_BITS)
        return make_script(transactions)

    @pytest.fixture(scope="class")
    def total_ops(self, campaign, tmp_path_factory):
        """Fault-free control run: counts the workload's op timeline and
        sanity-checks the script against its own final snapshot."""
        script, snapshots = campaign
        plan = FaultPlan(seed=SEED)
        pages, wal_path = run_script(
            tmp_path_factory.mktemp("control"), script, plan
        )
        assert plan.commits_durable == len(snapshots)
        recovered = recover_tree(pages, wal_path, keep_wal=False)
        check_recovered(recovered, snapshots[-1])
        recovered.store.pager.close()
        return plan.ops

    def test_control_run_has_room_for_the_matrix(self, total_ops):
        assert total_ops > N_KILL_POINTS * 2

    @pytest.mark.parametrize("point", range(N_KILL_POINTS))
    def test_kill_point_recovers_last_commit(
        self, point, campaign, total_ops, tmp_path
    ):
        script, snapshots = campaign
        rng = random.Random(SEED * 1000 + 17)
        kill_points = sorted(rng.sample(range(1, total_ops), N_KILL_POINTS))
        crash_after = kill_points[point]
        plan = FaultPlan(seed=SEED, crash_after=crash_after)
        with pytest.raises(CrashError):
            run_script(tmp_path, script, plan)
        assert plan.crashed
        if plan.commits_durable == 0:
            # Killed before the first commit became durable: there is
            # nothing to recover, and recovery must say so — loudly.
            with pytest.raises(RecoveryError):
                recover_tree(
                    tmp_path / "crashy.pages", tmp_path / "crashy.wal",
                    keep_wal=False,
                )
        else:
            recovered = recover_tree(
                tmp_path / "crashy.pages", tmp_path / "crashy.wal", keep_wal=False
            )
            check_recovered(recovered, snapshots[plan.commits_durable - 1])
            recovered.store.pager.close()

    def test_lost_fsyncs_lose_everything_after_last_real_sync(
        self, campaign, total_ops, tmp_path
    ):
        """With fsyncs dropped, no commit is ever durable: a crash plus
        OS-cache loss leaves nothing for recovery to restore."""
        script, _ = campaign
        plan = FaultPlan(
            seed=SEED, crash_after=total_ops // 2, drop_fsync=True
        )
        with pytest.raises(CrashError):
            run_script(tmp_path, script, plan)
        assert plan.commits_durable == 0
        with pytest.raises(RecoveryError):
            recover_tree(
                tmp_path / "crashy.pages", tmp_path / "crashy.wal", keep_wal=False
            )


class TestCorruptionHandling:
    def _committed_tree(self, tmp_path, with_wal=True):
        transactions = random_transactions(seed=SEED + 60, count=80, n_bits=N_BITS)
        pages = tmp_path / "c.pages"
        wal_path = tmp_path / "c.wal"
        pager = FilePager(pages, page_size=PAGE_SIZE)
        wal = WriteAheadLog(wal_path) if with_wal else None
        store = NodeStore(
            N_BITS, page_size=PAGE_SIZE, frames=None, mode="disk",
            pager=pager, wal=wal,
        )
        tree = SGTree(N_BITS, max_entries=8, store=store)
        for t in transactions:
            tree.insert(t)
        if with_wal:
            tree.commit()
        else:
            tree.store.flush()
        return tree, transactions

    def _evict_all(self, tree):
        tree.store.clear_cache()
        gc.collect()  # drop weakly-held live nodes so reads hit the pager

    def test_corrupt_page_rescued_from_wal_image(self, tmp_path):
        tree, transactions = self._committed_tree(tmp_path, with_wal=True)
        root = tree.root_id
        self._evict_all(tree)
        tree.store.pager.corrupt(root, bit=13)
        rng = np.random.default_rng(SEED + 2)
        query = random_signature(rng, N_BITS)
        got = tree.nearest(query, k=3)  # triggers the rescue path
        assert root in tree.store.rescued
        assert tree.store.quarantined == set()
        scan = LinearScan(transactions)
        assert [n.distance for n in got] == [
            n.distance for n in scan.nearest(query, k=3)
        ]
        # the rescue rewrote the slot: the file verifies clean again
        report = scrub_tree(tree)
        assert report.ok, [str(issue) for issue in report.issues]
        tree.store.pager.close()
        tree.store.wal.close()

    def test_corrupt_page_without_wal_is_quarantined(self, tmp_path):
        tree, _ = self._committed_tree(tmp_path, with_wal=False)
        root = tree.root_id
        self._evict_all(tree)
        tree.store.pager.corrupt(root, bit=5)
        rng = np.random.default_rng(SEED + 3)
        with pytest.raises(PageCorruptError):
            tree.nearest(random_signature(rng, N_BITS), k=1)
        assert root in tree.store.quarantined
        report = scrub_tree(tree)
        assert not report.ok
        kinds = {issue.kind for issue in report.issues}
        assert "corrupt-slot" in kinds
        assert "lost-subtree" in kinds
        assert report.pages_quarantined == 1
        tree.store.pager.close()

    def test_flipped_bit_in_any_slot_detected(self, tmp_path):
        """Acceptance: one flipped bit in **each** populated slot, one at
        a time, is always caught — at the pager and by the scrubber."""
        tree, _ = self._committed_tree(tmp_path, with_wal=False)
        path = tmp_path / "saved.sgt"
        save_tree(tree, path)  # fresh export + catalogue for scrub_index
        tree.store.pager.close()
        pristine = path.read_bytes()
        rng = random.Random(SEED + 4)

        probe = FilePager(path, page_size=PAGE_SIZE)
        populated = [
            slot for slot in range(probe.slot_count) if probe.read(slot).data
        ]
        probe.close()
        assert len(populated) > 1  # root plus leaves at minimum

        for slot in populated:
            path.write_bytes(pristine)
            pager = FilePager(path, page_size=PAGE_SIZE)
            pager.corrupt(slot, bit=rng.randrange(1 << 16))
            assert pager.verify(slot) is not None, f"slot {slot} rot undetected"
            pager.close()
            report = scrub_index(path)
            assert not report.ok
            assert any(
                issue.kind == "corrupt-slot" and issue.page_id == slot
                for issue in report.issues
            ), f"scrub missed the flipped bit in slot {slot}"


class TestScrubInvariants:
    """Checksum-valid but logically wrong pages: the scrubber's tree walk
    must catch what the CRC layer cannot."""

    def _tree(self):
        tree = SGTree(N_BITS, max_entries=6)
        for t in random_transactions(seed=SEED + 90, count=60, n_bits=N_BITS):
            tree.insert(t)
        assert tree.height >= 2
        return tree

    def test_clean_tree_scrubs_clean(self):
        report = self._tree().scrub()
        assert report.ok, [str(issue) for issue in report.issues]
        assert report.transactions_seen == 60
        assert report.nodes_walked > 1

    def test_or_invariant_violation_detected(self):
        from repro import Signature

        tree = self._tree()
        root = tree.store.get(tree.root_id)
        entry = root.entries[0]
        entry.signature = Signature(
            np.zeros_like(entry.signature.words), N_BITS
        )  # no longer covers the child
        root.invalidate()
        report = tree.scrub()
        assert any(issue.kind == "or-invariant" for issue in report.issues)

    def test_stats_mismatch_detected(self):
        tree = self._tree()
        root = tree.store.get(tree.root_id)
        entry = root.entries[0]
        assert entry.count is not None  # insert maintains Section-6 stats
        entry.count += 5
        report = tree.scrub()
        assert any(issue.kind == "stats-mismatch" for issue in report.issues)

    def test_size_mismatch_detected(self):
        from repro.sgtree import scrub_store

        tree = self._tree()
        report = scrub_store(tree.store, tree.root_id, expected_size=61)
        assert any(issue.kind == "size-mismatch" for issue in report.issues)


class TestConcurrentCrashRecovery:
    def test_readers_stay_consistent_across_writer_crash_and_swap(self, tmp_path):
        """Readers keep querying while the writer crashes; recovery is
        built off to the side and swapped in atomically.  Every reader
        result is well-formed, and post-swap results equal a linear scan
        of the committed prefix."""
        transactions = random_transactions(seed=SEED + 80, count=90, n_bits=N_BITS)
        committed = transactions[:60]
        pages = tmp_path / "cc.pages"
        wal_path = tmp_path / "cc.wal"
        plan = FaultPlan(seed=SEED)
        pager = FaultInjectingPager(FilePager(pages, page_size=PAGE_SIZE), plan)
        wal = FaultInjectingLog(wal_path, plan)
        store = NodeStore(
            N_BITS, page_size=PAGE_SIZE, frames=None, mode="disk",
            pager=pager, wal=wal,
        )
        tree = SGTree(N_BITS, max_entries=8, store=store)
        for t in committed:
            tree.insert(t)
        tree.commit()
        ctree = ConcurrentSGTree(tree)  # disk mode: reads serialize

        rng = np.random.default_rng(SEED + 5)
        queries = [random_signature(rng, N_BITS) for _ in range(4)]
        # warm the (unbounded) buffer so reads never touch the pager:
        # queries on the in-memory image stay safe while the writer dies
        for query in queries:
            ctree.nearest(query, k=3)

        errors: list[BaseException] = []
        stop = threading.Event()

        def reader(query):
            while not stop.is_set():
                try:
                    hits = ctree.nearest(query, k=3)
                    assert len(hits) == 3
                    assert all(
                        hits[i].distance <= hits[i + 1].distance for i in range(2)
                    )
                except BaseException as exc:  # noqa: BLE001 - test harness
                    errors.append(exc)
                    return
                # In disk mode every read takes the write lock; an unpaced
                # spin re-acquires it before the woken writer can run,
                # starving the insert loop indefinitely.
                time.sleep(0.002)

        threads = [
            threading.Thread(target=reader, args=(query,)) for query in queries
        ]
        for thread in threads:
            thread.start()
        try:
            # the writer dies somewhere in the uncommitted tail (the
            # final commit guarantees enough storage ops to get there)
            plan.crash_after = plan.ops + 2
            with pytest.raises(CrashError):
                for t in transactions[60:]:
                    ctree.insert(t)
                ctree.commit()
            # recover off to the side, then swap in atomically
            recovered = recover_tree(pages, wal_path, keep_wal=False)
            old = ctree.swap(recovered)
            assert old is tree
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        assert not errors, errors
        check_recovered(ctree.tree, {t.tid: t.signature for t in committed})
        pager.close()
        wal.close()
        recovered.store.pager.close()


class TestCopyOnWriteCrashBetweenCommits:
    def test_reclaimed_build_pages_survive_a_crash_before_commit(self, tmp_path):
        """A bulk-loaded index has no log image of its pages.  After a
        commit, copy-on-write updates supersede and reclaim some of them;
        a crash before the next commit must still recover the committed
        tree: those pages keep their slots until a commit logs the free."""
        transactions = random_transactions(seed=SEED + 90, count=400, n_bits=N_BITS)
        pages = tmp_path / "built.pages"
        wal_path = tmp_path / "built.wal"
        save_tree(
            bulk_load(transactions, N_BITS, max_entries=8, page_size=PAGE_SIZE),
            pages,
        )
        tree = load_tree(pages, frames=8, wal_path=wal_path)
        index = ConcurrentSGTree(tree)
        state = {t.tid: t.signature for t in transactions}
        extra = random_transactions(seed=SEED + 91, count=120, n_bits=N_BITS)
        rng = random.Random(SEED)

        def update(fresh):
            index.insert(fresh)
            state[fresh.tid] = fresh.signature
            victim = rng.choice(sorted(state))
            assert index.delete(victim, state.pop(victim))
            index.reclaim()

        moved = [Transaction(10_000 + i, t.signature) for i, t in enumerate(extra)]
        for fresh in moved[:20]:
            update(fresh)
        index.commit()
        committed = dict(state)
        # enough uncommitted updates to recycle reclaimed build pages
        for fresh in moved[20:]:
            update(fresh)
        assert index.reclaimed_pages > 0
        # crash: drop the files as they are, with no commit
        tree.store.pager.close()
        tree.store.wal.close()

        recovered = recover_tree(pages, wal_path, keep_wal=False)
        try:
            check_recovered(recovered, committed)
        finally:
            recovered.store.pager.close()
