"""Serving an index over HTTP: clients, deadlines, live reload.

Run with::

    python examples/serving_client.py

Boots an in-process query server (the same stack `repro-sgtree serve`
runs), then demonstrates the three serving behaviours from the client's
side of the wire:

1. concurrent clients fanning k-NN requests at the JSON API,
2. a request whose deadline expires mid-traversal coming back as a
   typed 504 instead of hogging the server,
3. a live snapshot reload (`/admin/reload`) swapping the served index
   under the running clients with zero failed requests.
"""

from __future__ import annotations

import json
import tempfile
import threading
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np

from repro import QueryService, SGTree, Signature, Transaction, make_server
from repro.sgtree import save_tree

N_BITS = 128


def random_transactions(seed: int, count: int) -> list[Transaction]:
    rng = np.random.default_rng(seed)
    transactions = []
    for tid in range(count):
        items = rng.choice(N_BITS, size=int(rng.integers(2, 9)), replace=False)
        transactions.append(
            Transaction(tid, Signature.from_items(items.tolist(), N_BITS))
        )
    return transactions


def build_tree(seed: int, count: int) -> SGTree:
    tree = SGTree(n_bits=N_BITS, max_entries=8)
    for t in random_transactions(seed, count):
        tree.insert(t)
    return tree


def post(base: str, path: str, body: dict) -> tuple[int, dict]:
    request = urllib.request.Request(
        f"{base}{path}",
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def main() -> None:
    # --- boot the server over a 500-transaction index ------------------------
    tree = build_tree(seed=7, count=500)
    service = QueryService(tree, max_inflight=8, max_queue=32)
    server = make_server(service, host="127.0.0.1", port=0)
    server.serve_background()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    print(f"serving {len(tree)} transactions on {base}")

    # --- 1. concurrent clients ----------------------------------------------
    counts = {"ok": 0}
    lock = threading.Lock()

    def client(offset: int) -> None:
        for i in range(25):
            status, body = post(
                base, "/query/knn",
                {"items": [(offset + i) % N_BITS, (offset + 2 * i) % N_BITS],
                 "k": 3},
            )
            assert status == 200, body
            with lock:
                counts["ok"] += 1

    clients = [threading.Thread(target=client, args=(17 * j,)) for j in range(4)]
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join()
    print(f"4 concurrent clients completed {counts['ok']} k-NN requests")

    # --- 2. a deadline-exceeded request -------------------------------------
    status, body = post(
        base, "/query/knn", {"items": [1, 2, 3], "k": 5, "deadline_ms": 0}
    )
    print(f"expired deadline -> HTTP {status}: {body['error']}")
    assert status == 504

    # --- 3. live reload under traffic ---------------------------------------
    replacement = build_tree(seed=99, count=750)
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "replacement.sgt"
        save_tree(replacement, path)
        replacement.store.pager.close()

        stop = threading.Event()
        swap_counts = {"ok": 0, "failed": 0}

        def steady_client() -> None:
            i = 0
            while not stop.is_set():
                status, _body = post(
                    base, "/query/knn", {"items": [i % N_BITS], "k": 2}
                )
                with lock:
                    key = "ok" if status in (200, 429) else "failed"
                    swap_counts[key] += 1
                i += 1

        runners = [threading.Thread(target=steady_client) for _ in range(2)]
        for thread in runners:
            thread.start()
        status, info = post(base, "/admin/reload", {"index_path": str(path)})
        stop.set()
        for thread in runners:
            thread.join()
        assert status == 200, info
        assert swap_counts["failed"] == 0
        print(
            f"hot-swapped to generation {info['generation']} "
            f"({info['transactions']} transactions) with "
            f"{swap_counts['ok']} requests in flight and 0 failures"
        )

    health = json.loads(
        urllib.request.urlopen(f"{base}/healthz", timeout=30).read()
    )
    print(f"final health: generation {health['generation']}, "
          f"{health['transactions']} transactions served")
    server.close()


if __name__ == "__main__":
    main()
