"""Trace a served subprocess from outside the program.

The benchmark puts this directory first on ``PYTHONPATH`` of a traced
``repro-sgtree serve`` and sets ``PERFBENCH_TRACE_DIR``.  Python imports
``sitecustomize`` at start-up, so every process of the server — forked
shard workers included — wraps the layer functions with a
:class:`perfbench.tracer.Tracer` and rewrites ``<pid>.json`` in that
directory every 0.2 s and at exit.
"""

import os
import sys

_TRACE_DIR = os.environ.get("PERFBENCH_TRACE_DIR")

if _TRACE_DIR:
    import atexit
    import threading
    import time

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))
    from perfbench.tracer import Tracer

    _tracer = Tracer().install()

    def _flush() -> None:
        _tracer.write(os.path.join(_TRACE_DIR, f"{os.getpid()}.json"))

    def _flusher() -> None:
        while True:
            time.sleep(0.2)
            try:
                _flush()
            except OSError:
                pass

    def _start_flusher() -> None:
        threading.Thread(target=_flusher, name="perfbench-trace", daemon=True).start()

    def _after_fork() -> None:
        _tracer.reset()
        _start_flusher()

    os.register_at_fork(after_in_child=_after_fork)
    atexit.register(_flush)
    _start_flusher()
