"""Pager behaviour: allocation, recycling, I/O accounting, file backing."""

from __future__ import annotations

import os
import sys
import threading

import pytest

from repro.errors import PageCorruptError
from repro.storage import FilePager, MemoryPager
from repro.storage.page import Page, PageNotFoundError, PageOverflowError


@pytest.fixture(params=["memory", "file"])
def pager(request, tmp_path):
    if request.param == "memory":
        yield MemoryPager(page_size=256)
    else:
        file_pager = FilePager(tmp_path / "pages.bin", page_size=256)
        yield file_pager
        file_pager.close()


class TestPagerContract:
    def test_write_read_round_trip(self, pager):
        pid = pager.allocate()
        pager.write(Page(page_id=pid, capacity=256, data=b"hello"))
        assert pager.read(pid).data == b"hello"

    def test_fresh_page_is_empty(self, pager):
        pid = pager.allocate()
        assert pager.read(pid).data == b""

    def test_overwrite(self, pager):
        pid = pager.allocate()
        pager.write(Page(page_id=pid, capacity=256, data=b"one"))
        pager.write(Page(page_id=pid, capacity=256, data=b"two"))
        assert pager.read(pid).data == b"two"

    def test_multiple_pages_independent(self, pager):
        pids = [pager.allocate() for _ in range(5)]
        for i, pid in enumerate(pids):
            pager.write(Page(page_id=pid, capacity=256, data=bytes([i]) * (i + 1)))
        for i, pid in enumerate(pids):
            assert pager.read(pid).data == bytes([i]) * (i + 1)

    def test_free_and_recycle(self, pager):
        pid = pager.allocate()
        pager.free(pid)
        with pytest.raises(PageNotFoundError):
            pager.read(pid)
        recycled = pager.allocate()
        assert recycled == pid  # free list is LIFO

    def test_recycled_page_reads_fresh_after_write(self, pager):
        pid = pager.allocate()
        pager.write(Page(page_id=pid, capacity=256, data=b"old"))
        pager.free(pid)
        new_pid = pager.allocate()
        pager.write(Page(page_id=new_pid, capacity=256, data=b"new"))
        assert pager.read(new_pid).data == b"new"

    def test_read_unknown_page(self, pager):
        with pytest.raises(PageNotFoundError):
            pager.read(999)

    def test_write_unknown_page(self, pager):
        with pytest.raises(PageNotFoundError):
            pager.write(Page(page_id=999, capacity=256, data=b""))

    def test_oversized_payload_rejected(self, pager):
        pid = pager.allocate()
        with pytest.raises(PageOverflowError):
            pager.write(Page(page_id=pid, capacity=9999, data=b"x" * 257))

    def test_io_stats_counting(self, pager):
        pid = pager.allocate()
        pager.write(Page(page_id=pid, capacity=256, data=b"a"))
        pager.read(pid)
        pager.read(pid)
        assert pager.stats.allocations == 1
        assert pager.stats.writes == 1
        assert pager.stats.reads == 2

    def test_len_counts_live_pages(self, pager):
        a = pager.allocate()
        pager.allocate()
        assert len(pager) == 2
        pager.free(a)
        assert len(pager) == 1


class TestFilePagerPersistence:
    def test_data_survives_reopen(self, tmp_path):
        path = tmp_path / "persist.bin"
        pager = FilePager(path, page_size=128)
        pids = [pager.allocate() for _ in range(3)]
        for i, pid in enumerate(pids):
            pager.write(Page(page_id=pid, capacity=128, data=f"page-{i}".encode()))
        pager.close()

        reopened = FilePager(path, page_size=128)
        for i, pid in enumerate(pids):
            assert reopened.read(pid).data == f"page-{i}".encode()
        reopened.close()

    def test_context_manager(self, tmp_path):
        with FilePager(tmp_path / "ctx.bin", page_size=64) as pager:
            pid = pager.allocate()
            pager.write(Page(page_id=pid, capacity=64, data=b"z"))
            assert pager.read(pid).data == b"z"

    def test_stats_reset(self, tmp_path):
        with FilePager(tmp_path / "s.bin", page_size=64) as pager:
            pager.allocate()
            pager.stats.reset()
            assert pager.stats.allocations == 0


class TestEnsure:
    def test_ensure_existing_is_noop(self, pager):
        pid = pager.allocate()
        pager.write(Page(page_id=pid, capacity=256, data=b"keep"))
        pager.ensure(pid)
        assert pager.read(pid).data == b"keep"

    def test_ensure_beyond_end_extends(self, pager):
        pager.ensure(5)
        assert pager.read(5).data == b""
        pager.write(Page(page_id=5, capacity=256, data=b"five"))
        assert pager.read(5).data == b"five"
        # ids below may or may not be live, but a fresh allocation must
        # not collide with the ensured page
        fresh = pager.allocate()
        assert fresh != 5

    def test_ensure_revives_freed_page(self, pager):
        pid = pager.allocate()
        pager.free(pid)
        pager.ensure(pid)
        assert pager.read(pid).data == b""
        # the revived id must no longer be on the free list
        assert pager.allocate() != pid


class TestSelfVerifyingSlots:
    """The FilePager's CRC32 slot armour: torn writes and bit rot are
    surfaced as PageCorruptError instead of garbage payloads."""

    def test_checksums_survive_reopen(self, tmp_path):
        path = tmp_path / "sv.bin"
        pager = FilePager(path, page_size=128)
        pid = pager.allocate()
        pager.write(Page(page_id=pid, capacity=128, data=b"armoured"))
        pager.close()
        reopened = FilePager(path, page_size=128)
        assert reopened.verify(pid) is None
        assert reopened.read(pid).data == b"armoured"
        reopened.close()

    def test_truncated_final_slot_still_addressable_and_detected(self, tmp_path):
        """A file whose last slot was torn mid-write must reopen with
        that page still addressable — and reading it must raise, not
        silently shrink the store or serve a short payload."""
        path = tmp_path / "torn.bin"
        pager = FilePager(path, page_size=128)
        first = pager.allocate()
        second = pager.allocate()
        pager.write(Page(page_id=first, capacity=128, data=b"intact"))
        pager.write(Page(page_id=second, capacity=128, data=b"torn away"))
        pager.close()
        slot_size = 8 + 128
        os.truncate(path, slot_size + 12)  # header + 4 of 9 payload bytes

        reopened = FilePager(path, page_size=128)
        assert reopened.slot_count == 2  # partial bytes round UP to a slot
        assert reopened.read(first).data == b"intact"
        with pytest.raises(PageCorruptError):
            reopened.read(second)
        assert reopened.verify(second) is not None
        reopened.close()

    def test_bit_flip_raises_checksum_mismatch(self, tmp_path):
        path = tmp_path / "rot.bin"
        pager = FilePager(path, page_size=128)
        pid = pager.allocate()
        pager.write(Page(page_id=pid, capacity=128, data=b"pristine bytes"))
        pager.corrupt(pid, bit=21)
        with pytest.raises(PageCorruptError, match="checksum mismatch"):
            pager.read(pid)
        assert pager.verify(pid) == "checksum mismatch"
        pager.close()

    def test_torn_write_hook_detected(self, tmp_path):
        path = tmp_path / "hook.bin"
        pager = FilePager(path, page_size=128)
        pid = pager.allocate()
        page = Page(page_id=pid, capacity=128, data=b"only half of this lands")
        pager.write_torn(page, keep_bytes=11)
        with pytest.raises(PageCorruptError):
            pager.read(pid)
        pager.close()

    def test_overlong_length_field_rejected(self, tmp_path):
        """A corrupted length that exceeds the page size is caught by the
        framing check before any payload is trusted."""
        path = tmp_path / "len.bin"
        pager = FilePager(path, page_size=64)
        pid = pager.allocate()
        pager.write(Page(page_id=pid, capacity=64, data=b"x" * 10))
        pager._file.seek(pid * pager._slot_size + 4)
        pager._file.write((10_000).to_bytes(4, "little"))
        pager._file.flush()
        with pytest.raises(PageCorruptError, match="exceeds page size"):
            pager.read(pid)
        pager.close()

    def test_zero_filled_slot_reads_empty(self, tmp_path):
        pager = FilePager(tmp_path / "zero.bin", page_size=64)
        pager.ensure(3)
        assert pager.read(3).data == b""
        assert pager.verify(3) is None
        pager.close()


class TestPositionFreeSlotIO:
    """Slots move with one pread/pwrite on an unbuffered descriptor: no
    user-space copy can serve stale bytes, and readers share no file
    position."""

    def test_write_visible_to_next_read_without_flush(self, tmp_path):
        path = tmp_path / "fresh.bin"
        pager = FilePager(path, page_size=64)
        pid = pager.allocate()
        pager.write(Page(page_id=pid, capacity=64, data=b"first"))
        assert pager.read(pid).data == b"first"
        pager.write(Page(page_id=pid, capacity=64, data=b"second"))
        # nothing waits in a user-space buffer: another handle sees the
        # write before this pager touches the file again
        other = FilePager(path, page_size=64)
        assert other.read(pid).data == b"second"
        other.close()
        assert pager.read(pid).data == b"second"
        pager.close()

    def test_bytes_rewritten_behind_the_pager_fail_the_next_read(self, tmp_path):
        path = tmp_path / "behind.bin"
        pager = FilePager(path, page_size=64)
        pid = pager.allocate()
        pager.write(Page(page_id=pid, capacity=64, data=b"committed payload"))
        assert pager.read(pid).data == b"committed payload"
        with open(path, "r+b") as raw:
            raw.seek(pid * (8 + 64) + 8)
            raw.write(b"ROTTEN")
        with pytest.raises(PageCorruptError, match="checksum mismatch"):
            pager.read(pid)
        pager.close()

    def test_concurrent_readers_of_different_pages_get_their_own_bytes(
        self, tmp_path
    ):
        pager = FilePager(tmp_path / "shared.bin", page_size=256)
        payloads = {}
        for index in range(4):
            pid = pager.allocate()
            payloads[pid] = bytes([index + 1]) * (64 + 40 * index)
            pager.write(Page(page_id=pid, capacity=256, data=payloads[pid]))
        barrier, wrong = threading.Barrier(len(payloads)), []

        def reader(pid):
            barrier.wait()
            for _ in range(2000):
                if pager.read(pid).data != payloads[pid]:
                    wrong.append(pid)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the readers as often as possible
        try:
            threads = [threading.Thread(target=reader, args=(pid,)) for pid in payloads]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
            pager.close()
        assert wrong == []
