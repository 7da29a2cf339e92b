"""Disk-page substrate: pages, pagers, buffer policies, codecs, compression,
write-ahead logging, and fault injection for crash testing."""

from ..errors import (
    CrashError,
    InjectedIOError,
    NodeDecodeError,
    PageCorruptError,
    PageNotFoundError,
    PageOverflowError,
    StorageError,
)
from . import compression, faults, serialization, wal
from .buffer import BufferStats, ClockPolicy, FIFOPolicy, LRUPolicy
from .epoch import Epoch, EpochManager
from .faults import FaultInjectingLog, FaultInjectingPager, FaultPlan
from .page import DEFAULT_PAGE_SIZE, INVALID_PAGE, Page, PageId
from .pager import FilePager, IOStats, MemoryPager, Pager
from .wal import (
    LogRecord,
    LogScanner,
    LogTruncation,
    RecoveryReport,
    WriteAheadLog,
    read_records,
    recover,
)

__all__ = [
    "compression",
    "serialization",
    "faults",
    "BufferStats",
    "LRUPolicy",
    "FIFOPolicy",
    "ClockPolicy",
    "Epoch",
    "EpochManager",
    "Page",
    "PageId",
    "StorageError",
    "PageNotFoundError",
    "PageOverflowError",
    "PageCorruptError",
    "NodeDecodeError",
    "CrashError",
    "InjectedIOError",
    "DEFAULT_PAGE_SIZE",
    "INVALID_PAGE",
    "Pager",
    "MemoryPager",
    "FilePager",
    "IOStats",
    "FaultPlan",
    "FaultInjectingPager",
    "FaultInjectingLog",
    "wal",
    "WriteAheadLog",
    "LogRecord",
    "LogScanner",
    "LogTruncation",
    "RecoveryReport",
    "read_records",
    "recover",
]
