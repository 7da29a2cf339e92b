"""``repro-sgtree`` — the command-line front door.

Subcommands::

    generate   draw a synthetic dataset (Quest baskets or CENSUS tuples)
    build      build a persistent SG-tree index over a dataset file
    query      run k-NN / range / containment queries against an index
    join       similarity-join two indexes (or rank their closest pairs)
    cluster    tree-guided clustering of an index's transactions
    recover    replay a write-ahead log and report the recovered state
    scrub      verify every page checksum and tree invariant
    info       print an index's structural report
    stats      export telemetry metrics (Prometheus text or JSON)
    serve      run the HTTP query server over an index
    trace      pretty-print distributed request traces (file or server)

``query --explain`` prints a per-node EXPLAIN trace of a single query —
which directory entries were pruned versus descended and at what bound —
and ``--trace-out FILE`` saves the same trace as JSON lines.

Exit codes: ``recover`` and ``scrub`` return 0 on success/clean, 1 when
``scrub`` finds integrity issues, and 2 when the index or log cannot be
opened or holds nothing to recover.

A typical session::

    repro-sgtree generate quest --t 10 --i 6 --d 5000 -o baskets.jsonl
    repro-sgtree build baskets.jsonl -o baskets.sgt --split-policy gasplit
    repro-sgtree query baskets.sgt --items 3,17,512 --knn 5
    repro-sgtree info baskets.sgt

Every subcommand is also reachable programmatically through
:func:`main`, which takes an argv list and returns an exit status — the
test-suite drives it that way.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections.abc import Sequence

from .core.signature import Signature
from .data.census import CensusConfig, CensusGenerator
from .data.io import load_transactions, save_transactions
from .data.quest import QuestConfig, QuestGenerator
from .sgtree.persistence import load_tree, save_tree
from .sgtree.search import SearchStats
from .sgtree.stats import tree_report
from .sgtree.tree import SGTree

__all__ = ["main", "build_parser"]


def _initial_threshold(value: str) -> float:
    """argparse type for ``--initial-threshold``: finite-or-inf, >= 0."""
    try:
        threshold = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {value!r}"
        ) from None
    if threshold != threshold or threshold < 0:
        raise argparse.ArgumentTypeError(
            f"initial threshold must be a non-negative number, got {value!r}"
        )
    return threshold


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sgtree",
        description="SG-tree similarity search for sets and categorical data",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="draw a synthetic dataset")
    kinds = generate.add_subparsers(dest="kind", required=True)

    quest = kinds.add_parser("quest", help="Quest-style market baskets")
    quest.add_argument("--t", type=float, default=10, help="mean transaction size")
    quest.add_argument("--i", type=float, default=6, help="mean large-itemset size")
    quest.add_argument("--d", type=int, default=1000, help="number of transactions")
    quest.add_argument("--n-items", type=int, default=1000)
    quest.add_argument("--n-patterns", type=int, default=200)
    quest.add_argument("--seed", type=int, default=7)
    quest.add_argument("-o", "--output", required=True)

    census = kinds.add_parser("census", help="CENSUS-like categorical tuples")
    census.add_argument("--count", type=int, default=1000)
    census.add_argument("--seed", type=int, default=0)
    census.add_argument("-o", "--output", required=True)

    build = commands.add_parser("build", help="index a dataset file")
    build.add_argument("dataset", help="transaction file (JSON lines)")
    build.add_argument("-o", "--output", required=True, help="index path")
    build.add_argument("--split-policy", default="gasplit",
                       choices=["gasplit", "qsplit", "minsplit", "linear"])
    build.add_argument("--choose-policy", default="enlargement",
                       choices=["enlargement", "overlap"])
    build.add_argument("--max-entries", type=int, default=None)
    build.add_argument("--page-size", type=int, default=8192)
    build.add_argument("--compress", action="store_true",
                       help="Section-3.2 sparse-signature page encoding")
    build.add_argument("--bulk", choices=["gray", "minhash"], default=None,
                       help="bulk-load instead of one-by-one insertion")

    query = commands.add_parser("query", help="search an index")
    query.add_argument("index", help="index path from `build`")
    query.add_argument("--items",
                       help="comma-separated item ids of the query signature")
    query.add_argument("--batch", metavar="FILE",
                       help="transaction file (JSON lines) of query signatures; "
                            "answers every query via batched traversals")
    mode = query.add_mutually_exclusive_group()
    mode.add_argument("--knn", type=int, metavar="K",
                      help="k nearest neighbours (default: --knn 1)")
    mode.add_argument("--range", dest="epsilon", type=float, metavar="EPS",
                      help="all transactions within distance EPS")
    mode.add_argument("--count", dest="count_epsilon", type=float, metavar="EPS",
                      help="count (not retrieve) transactions within EPS")
    mode.add_argument("--contains", action="store_true",
                      help="transactions containing all query items")
    query.add_argument("--metric", default="hamming",
                       choices=["hamming", "jaccard", "dice", "overlap", "cosine"])
    query.add_argument("--best-first", action="store_true",
                       help="use the best-first k-NN algorithm")
    query.add_argument("--initial-threshold", type=_initial_threshold,
                       default=None, metavar="DIST",
                       help="seed the k-NN pruning bound with a known "
                            "distance (e.g. another index's k-th distance); "
                            "results are unchanged whenever DIST >= the true "
                            "k-th distance, only less work is done")
    query.add_argument("--stats", action="store_true",
                       help="print node accesses / I/Os / data fraction")
    query.add_argument("--explain", action="store_true",
                       help="print the per-node EXPLAIN trace (single-query "
                            "--knn/--range/--contains; depth-first engine)")
    query.add_argument("--trace-out", metavar="FILE",
                       help="also write the trace as JSON lines to FILE "
                            "(implies --explain)")

    join = commands.add_parser("join", help="similarity-join two indexes")
    join.add_argument("index_a")
    join.add_argument("index_b")
    join_mode = join.add_mutually_exclusive_group(required=True)
    join_mode.add_argument("--epsilon", type=float,
                           help="report all cross pairs within this distance")
    join_mode.add_argument("--closest", type=int, metavar="K",
                           help="report the K closest cross pairs")
    join.add_argument("--limit", type=int, default=50,
                      help="max pairs to print (default 50)")

    cluster = commands.add_parser(
        "cluster", help="tree-guided clustering (leaf merging)"
    )
    cluster.add_argument("index")
    cluster.add_argument("-k", "--n-clusters", type=int, default=8)
    cluster.add_argument("--members", action="store_true",
                         help="also print each cluster's transaction ids")

    recover = commands.add_parser(
        "recover", help="replay a write-ahead log onto a page file"
    )
    recover.add_argument("pages", help="page file path")
    recover.add_argument("wal", help="write-ahead log path")
    recover.add_argument("--save-meta", action="store_true",
                         help="also write <pages>.meta.json so `query`/`info` work")
    recover.add_argument("--json", action="store_true",
                         help="print the recovery report as JSON")

    scrub = commands.add_parser(
        "scrub", help="verify page checksums and tree invariants"
    )
    scrub.add_argument("index", help="index path from `build`")
    scrub.add_argument("--wal", default=None,
                       help="write-ahead log path (enables page rescue)")
    scrub.add_argument("--json", action="store_true",
                       help="print the scrub report as JSON")

    info = commands.add_parser("info", help="print an index report")
    info.add_argument("index")

    stats = commands.add_parser(
        "stats", help="export an index's telemetry metrics"
    )
    stats.add_argument("index", help="index path from `build`")
    stats.add_argument("--format", dest="fmt", default="prom",
                       choices=["prom", "json"],
                       help="Prometheus text exposition or a JSON snapshot")
    stats.add_argument("--probe", type=int, default=0, metavar="N",
                       help="run N sampled self-queries first so latency "
                            "and access histograms are populated")
    stats.add_argument("--watch", type=float, default=None, metavar="SECS",
                       help="re-render every SECS seconds until interrupted")
    stats.add_argument("--seed", type=int, default=0,
                       help="sampling seed for --probe")

    serve = commands.add_parser(
        "serve", help="serve an index over HTTP (knn/range/containment/batch)"
    )
    serve.add_argument("index", help="index path from `build`")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="TCP port (0 picks a free one)")
    serve.add_argument("--max-inflight", type=int, default=8,
                       help="requests executing concurrently (default 8)")
    serve.add_argument("--max-queue", type=int, default=32,
                       help="requests allowed to wait for a slot before "
                            "admission control sheds with 429 (default 32)")
    serve.add_argument("--deadline-ms", type=float, default=None,
                       help="default per-request deadline in milliseconds; "
                            "requests may override with their own deadline_ms")
    serve.add_argument("--events-out", metavar="FILE", default=None,
                       help="also append structured events (snapshot swaps, "
                            "startup) to FILE as JSON lines")
    serve.add_argument("--shards", type=int, default=0,
                       help="partition the index across N supervised shard "
                            "workers with scatter-gather, circuit breakers, "
                            "and partial results (default 0 = single tree)")
    serve.add_argument("--quorum", type=int, default=None,
                       help="shards that must be up for readiness "
                            "(default: a majority)")
    serve.add_argument("--drain-timeout", type=float, default=5.0,
                       help="seconds to drain in-flight requests on "
                            "SIGTERM/SIGINT before exiting (default 5)")
    serve.add_argument("--trace-sample", type=float, default=0.01,
                       metavar="RATE",
                       help="head-sample this fraction of requests for "
                            "per-node distributed tracing (default 0.01; "
                            "0 disables sampling, slow/error/partial "
                            "requests are still kept)")
    serve.add_argument("--trace-capacity", type=int, default=256,
                       help="retained traces behind /debug/traces "
                            "(default 256)")
    serve.add_argument("--traces-out", metavar="FILE", default=None,
                       help="also append every retained trace to FILE as "
                            "JSON lines (feed to `repro-sgtree trace`)")
    serve.add_argument("--slow-query-ms", type=float, default=None,
                       help="requests slower than this emit a slow_query "
                            "event and are always kept in the trace ring")
    serve.add_argument("--no-tracing", action="store_true",
                       help="disable request tracing entirely (no trace "
                            "ids, no /debug/traces)")

    trace = commands.add_parser(
        "trace", help="pretty-print distributed request traces"
    )
    trace.add_argument("source",
                       help="a --traces-out JSONL file, or a running "
                            "server's base URL (http://host:port)")
    trace.add_argument("--id", dest="trace_id", default=None,
                       help="print one trace in full (default: list "
                            "summaries, or render everything in a file "
                            "holding a single trace)")
    trace.add_argument("--check", action="store_true",
                       help="verify every printed trace stitches cleanly "
                            "(exit 1 on the first inconsistency)")

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "quest":
        generator = QuestGenerator(
            QuestConfig(
                n_transactions=args.d,
                avg_transaction_size=args.t,
                avg_itemset_size=args.i,
                n_items=args.n_items,
                n_patterns=args.n_patterns,
                pattern_seed=args.seed,
            )
        )
        transactions = generator.generate()
        n_bits = args.n_items
        label = generator.config.name
    else:
        generator = CensusGenerator(CensusConfig(stream_seed=args.seed))
        transactions = generator.generate(args.count)
        n_bits = generator.n_bits
        label = f"CENSUS.D{args.count}"
    count = save_transactions(transactions, args.output, n_bits)
    print(f"wrote {count} transactions ({label}, {n_bits}-bit) to {args.output}")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    transactions, n_bits = load_transactions(args.dataset)
    start = time.perf_counter()
    if args.bulk:
        from .sgtree.bulkload import bulk_load

        tree = bulk_load(
            transactions,
            n_bits,
            method=args.bulk,
            max_entries=args.max_entries,
            split_policy=args.split_policy,
            choose_policy=args.choose_policy,
            page_size=args.page_size,
            compress=args.compress,
        )
    else:
        tree = SGTree(
            n_bits,
            max_entries=args.max_entries,
            split_policy=args.split_policy,
            choose_policy=args.choose_policy,
            page_size=args.page_size,
            compress=args.compress,
        )
        for transaction in transactions:
            tree.insert(transaction)
    elapsed = time.perf_counter() - start
    save_tree(tree, args.output)
    print(
        f"indexed {len(tree)} transactions in {elapsed:.2f}s "
        f"(height {tree.height}, M={tree.max_entries}, "
        f"split={tree.split_policy}) -> {args.output}"
    )
    return 0


def _parse_items(text: str) -> list[int]:
    try:
        return [int(piece) for piece in text.split(",") if piece.strip()]
    except ValueError:
        raise SystemExit(f"--items must be comma-separated integers, got {text!r}")


def _run_batch_query(tree: SGTree, args: argparse.Namespace) -> int:
    if args.contains or args.count_epsilon is not None:
        raise SystemExit("--batch supports --knn and --range only")
    transactions, n_bits = load_transactions(args.batch)
    if n_bits != tree.n_bits:
        raise SystemExit(
            f"batch file is {n_bits}-bit but the index is {tree.n_bits}-bit"
        )
    if not transactions:
        raise SystemExit(f"batch file {args.batch} holds no queries")
    queries = [transaction.signature for transaction in transactions]
    stats = SearchStats()
    start = time.perf_counter()
    if args.epsilon is not None:
        results = tree.batch_range_query(
            queries, args.epsilon, metric=args.metric, stats=stats
        )
    else:
        k = args.knn if args.knn is not None else 1
        results = tree.batch_nearest(
            queries, k=k, metric=args.metric, stats=stats,
            initial_thresholds=args.initial_threshold,
        )
    elapsed = time.perf_counter() - start
    for transaction, hits in zip(transactions[:10], results):
        head = ", ".join(f"{hit.tid}:{hit.distance:g}" for hit in hits[:5])
        print(f"  query {transaction.tid}: {len(hits)} hits  [{head}]")
    if len(results) > 10:
        print(f"  ... and {len(results) - 10} more queries")
    qps = len(queries) / elapsed if elapsed > 0 else float("inf")
    print(
        f"{len(queries)} queries in {elapsed:.3f}s ({qps:.0f} queries/s)"
    )
    if args.stats:
        print(
            f"stats: {stats.node_accesses} node accesses "
            f"({stats.node_accesses / len(queries):.1f}/query), "
            f"{stats.random_ios} random I/Os, "
            f"buffer hit ratio {_format_ratio(stats.hit_ratio)}"
        )
    return 0


def _format_ratio(ratio: "float | None") -> str:
    """Render a hit ratio, honest about the idle case (no accesses yet)."""
    return "n/a" if ratio is None else f"{ratio:.2f}"


def _run_explain(tree: SGTree, query: Signature, args: argparse.Namespace) -> int:
    if args.count_epsilon is not None:
        raise SystemExit("--explain supports --knn, --range and --contains only")
    if args.best_first:
        raise SystemExit("--explain traces the depth-first k-NN engine only")
    if args.contains:
        kind = "containment"
    elif args.epsilon is not None:
        kind = "range"
    else:
        kind = "knn"
    report = tree.explain(
        query,
        k=args.knn if args.knn is not None else 1,
        epsilon=args.epsilon,
        kind=kind,
        metric=args.metric,
        initial_threshold=args.initial_threshold if kind == "knn" else None,
    )
    print(report.render())
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            handle.write(report.to_jsonl())
        print(f"trace written to {args.trace_out} ({len(report.tracer.spans)} spans)")
    if args.stats:
        stats = report.stats
        print(
            f"stats: {stats.node_accesses} node accesses, "
            f"{stats.random_ios} random I/Os, "
            f"{stats.data_fraction(len(tree)):.2f}% of data compared"
        )
    if not report.tracer.reconciles(report.stats):
        print(
            "explain: trace does not reconcile with search stats "
            f"({len(report.tracer.spans)} spans vs "
            f"{report.stats.node_accesses} node accesses)",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    if (args.items is None) == (args.batch is None):
        raise SystemExit("query: exactly one of --items or --batch is required")
    if args.initial_threshold is not None and (
        args.contains or args.epsilon is not None
        or args.count_epsilon is not None
    ):
        raise SystemExit("--initial-threshold applies to --knn queries only")
    tree = load_tree(args.index)
    try:
        if args.batch is not None:
            return _run_batch_query(tree, args)
        items = _parse_items(args.items)
        query = Signature.from_items(items, tree.n_bits)
        if args.explain or args.trace_out:
            return _run_explain(tree, query, args)
        stats = SearchStats()
        if args.contains:
            tids = tree.containment_query(query, stats=stats)
            print(f"{len(tids)} transactions contain {{{args.items}}}: {tids[:50]}")
        elif args.count_epsilon is not None:
            count = tree.range_count(query, args.count_epsilon, metric=args.metric,
                                     stats=stats)
            print(f"{count} transactions within {args.count_epsilon:g}")
        elif args.epsilon is not None:
            hits = tree.range_query(query, args.epsilon, metric=args.metric, stats=stats)
            print(f"{len(hits)} transactions within {args.epsilon:g}:")
            for hit in hits[:50]:
                print(f"  tid {hit.tid}  distance {hit.distance:g}")
        else:
            k = args.knn if args.knn is not None else 1
            algorithm = "best-first" if args.best_first else "depth-first"
            hits = tree.nearest(
                query, k=k, metric=args.metric, algorithm=algorithm,
                stats=stats, initial_threshold=args.initial_threshold,
            )
            for hit in hits:
                print(f"  tid {hit.tid}  distance {hit.distance:g}")
        if args.stats:
            print(
                f"stats: {stats.node_accesses} node accesses, "
                f"{stats.random_ios} random I/Os, "
                f"{stats.data_fraction(len(tree)):.2f}% of data compared"
            )
            if stats.bound_provenance is not None:
                print(f"pruning bound: provenance={stats.bound_provenance}")
        return 0
    finally:
        tree.store.pager.close()


def _cmd_info(args: argparse.Namespace) -> int:
    tree = load_tree(args.index)
    try:
        print(repr(tree))
        print(tree_report(tree))
        return 0
    finally:
        tree.store.pager.close()


def _cmd_join(args: argparse.Namespace) -> int:
    from .sgtree.join import closest_pairs, similarity_join

    tree_a = load_tree(args.index_a)
    tree_b = load_tree(args.index_b)
    try:
        if args.closest is not None:
            pairs = closest_pairs(tree_a, tree_b, k=args.closest)
            print(f"{len(pairs)} closest pairs:")
        else:
            pairs = similarity_join(tree_a, tree_b, args.epsilon)
            print(f"{len(pairs)} pairs within distance {args.epsilon:g}:")
        for pair in pairs[: args.limit]:
            print(f"  A#{pair.tid_a}  B#{pair.tid_b}  distance {pair.distance:g}")
        if len(pairs) > args.limit:
            print(f"  ... and {len(pairs) - args.limit} more")
        return 0
    finally:
        tree_a.store.pager.close()
        tree_b.store.pager.close()


def _cmd_cluster(args: argparse.Namespace) -> int:
    from .sgtree.clustering import cluster_leaves

    tree = load_tree(args.index)
    try:
        clusters = cluster_leaves(tree, args.n_clusters)
        print(f"{len(clusters)} clusters over {len(tree)} transactions:")
        for i, cluster in enumerate(clusters):
            print(
                f"  cluster {i}: {len(cluster)} transactions, "
                f"coverage area {cluster.signature.area}"
            )
            if args.members:
                print(f"    tids: {cluster.tids}")
        return 0
    finally:
        tree.store.pager.close()


def _cmd_recover(args: argparse.Namespace) -> int:
    import json

    from .errors import RecoveryError
    from .sgtree.persistence import _meta_path, recover_tree

    try:
        tree = recover_tree(args.pages, args.wal, keep_wal=False)
    except (RecoveryError, OSError) as exc:
        print(f"recover failed: {exc}", file=sys.stderr)
        return 2
    try:
        report = tree.store.last_recovery
        if args.json and report is not None:
            print(json.dumps(report.to_dict(), indent=2))
        else:
            print(
                f"recovered {len(tree)} transactions "
                f"(height {tree.height}, root page {tree.root_id})"
            )
            if report is not None:
                print(f"replay: {report.summary()}")
        if args.save_meta:
            with open(_meta_path(args.pages), "w", encoding="utf-8") as handle:
                json.dump(tree.catalogue(), handle, indent=2)
            print(f"wrote {_meta_path(args.pages)}")
        return 0
    finally:
        tree.store.pager.close()


def _cmd_scrub(args: argparse.Namespace) -> int:
    import json

    from .errors import ScrubError
    from .sgtree.scrub import scrub_index

    try:
        report = scrub_index(args.index, wal_path=args.wal)
    except ScrubError as exc:
        print(f"scrub failed: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.summary())
        for issue in report.issues:
            print(f"  {issue}")
    return 0 if report.ok else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    from .telemetry import MetricsRegistry, Telemetry

    tree = load_tree(args.index)
    telemetry = Telemetry(registry=MetricsRegistry())
    tree.attach_telemetry(telemetry)
    try:
        if args.probe:
            for _tid, signature in tree.sample(args.probe, seed=args.seed):
                tree.nearest(signature, k=1)
        while True:
            if args.fmt == "json":
                text = json.dumps(telemetry.snapshot(), indent=2, sort_keys=True)
            else:
                text = telemetry.render_prometheus().rstrip("\n")
            print(text)
            if args.watch is None:
                return 0
            sys.stdout.flush()
            try:
                time.sleep(args.watch)
            except KeyboardInterrupt:
                return 0
            print()  # blank line between successive renders
    finally:
        tree.store.pager.close()


def _cmd_serve(args: argparse.Namespace) -> int:
    from .server import QueryService, make_server, serve_forever
    from .telemetry import (
        EventLog,
        JsonlEventSink,
        JsonlTraceSink,
        MetricsRegistry,
        RequestTracing,
        Telemetry,
    )

    events = EventLog()
    if args.events_out:
        events.add_sink(JsonlEventSink(args.events_out))
    telemetry = Telemetry(registry=MetricsRegistry(), events=events)
    tracing = None
    if not args.no_tracing:
        tracing = RequestTracing(
            sample_rate=args.trace_sample,
            capacity=args.trace_capacity,
            slow_threshold=(
                args.slow_query_ms / 1e3
                if args.slow_query_ms is not None else None
            ),
            sink=JsonlTraceSink(args.traces_out) if args.traces_out else None,
        )
    tree = load_tree(args.index)
    default_deadline = (
        args.deadline_ms / 1e3 if args.deadline_ms is not None else None
    )
    pager = tree.store.pager
    if args.shards > 0:
        from .server import (
            ShardedQueryService,
            ShardedTree,
            ShardSupervisor,
            make_shard_handles,
            partition_routed,
        )
        from .core.transaction import Transaction

        transactions = [Transaction(tid, sig) for tid, sig in tree.items()]
        n_bits = tree.n_bits
        pager.close()  # shards rebuild from the rows; the source is done
        pager = None
        partitions, router = partition_routed(transactions, args.shards)
        handles = make_shard_handles(partitions, n_bits, telemetry=telemetry)
        supervisor = ShardSupervisor(handles, telemetry=telemetry).start()
        service = ShardedQueryService(
            ShardedTree(handles, n_bits, telemetry=telemetry, router=router),
            supervisor=supervisor,
            telemetry=telemetry,
            max_inflight=args.max_inflight,
            max_queue=args.max_queue,
            default_deadline=default_deadline,
            quorum=args.quorum,
            tracing=tracing,
        )
    else:
        tree.attach_telemetry(telemetry)
        service = QueryService(
            tree,
            telemetry=telemetry,
            max_inflight=args.max_inflight,
            max_queue=args.max_queue,
            default_deadline=default_deadline,
            tracing=tracing,
        )
    try:
        server = make_server(service, host=args.host, port=args.port)
        host, port = server.server_address[:2]
        sharding = (
            f"shards={args.shards}" if args.shards > 0 else "single-tree"
        )
        print(
            f"serving {args.index} on http://{host}:{port}  "
            f"[{sharding}, max-inflight={args.max_inflight}, "
            f"max-queue={args.max_queue}] — Ctrl-C to stop"
        )
        serve_forever(server, drain_timeout=args.drain_timeout)
        return 0
    finally:
        if pager is not None:
            # After a hot-swap the service closed the old pager itself,
            # so close whatever tree is current at shutdown, not `tree`.
            service.tree.tree.store.pager.close()
        events.close()


def _load_trace_docs(source: str, trace_id: "str | None") -> list[dict]:
    """Trace documents from a JSONL file or a running server.

    A file yields every line (filtered to ``--id`` when given); a URL
    hits ``/debug/traces`` for summaries or ``/debug/traces/<id>`` for
    one full trace.
    """
    import json

    if source.startswith(("http://", "https://")):
        import urllib.request

        base = source.rstrip("/")
        path = f"/debug/traces/{trace_id}" if trace_id else "/debug/traces"
        with urllib.request.urlopen(base + path, timeout=30) as resp:
            doc = json.loads(resp.read())
        return [doc] if trace_id else doc.get("traces", [])
    docs = []
    with open(source, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            doc = json.loads(line)
            if trace_id is None or doc.get("trace_id") == trace_id:
                docs.append(doc)
    return docs


def _cmd_trace(args: argparse.Namespace) -> int:
    from .telemetry import RequestTrace

    try:
        docs = _load_trace_docs(args.source, args.trace_id)
    except OSError as exc:
        print(f"cannot read traces from {args.source}: {exc}", file=sys.stderr)
        return 2
    if not docs:
        wanted = f" with id {args.trace_id!r}" if args.trace_id else ""
        print(f"no traces{wanted} in {args.source}", file=sys.stderr)
        return 2
    failures = 0
    for doc in docs:
        if "spans" not in doc:
            # A /debug/traces summary row, not a full document.
            print(
                f"{doc.get('trace_id')}  {doc.get('route')}  "
                f"code={doc.get('code')}  "
                f"{float(doc.get('duration') or 0.0) * 1e3:.2f}ms  "
                f"spans={doc.get('spans')}  shards={doc.get('shards')}"
            )
            continue
        trace = RequestTrace.from_dict(doc)
        print(trace.render())
        if args.check:
            report = doc.get("stitch") or trace.stitch_report()
            if not report.get("ok", False):
                failures += 1
                for problem in report.get("problems", []):
                    print(f"  STITCH PROBLEM: {problem}", file=sys.stderr)
    if args.check and failures:
        print(f"{failures} trace(s) failed the stitch check", file=sys.stderr)
        return 1
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "build": _cmd_build,
    "query": _cmd_query,
    "join": _cmd_join,
    "cluster": _cmd_cluster,
    "recover": _cmd_recover,
    "scrub": _cmd_scrub,
    "info": _cmd_info,
    "stats": _cmd_stats,
    "serve": _cmd_serve,
    "trace": _cmd_trace,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
