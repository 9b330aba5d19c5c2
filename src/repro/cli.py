"""Command-line interface: ``python -m repro <command>``.

Commands mirror the classic ``gpmetis`` binary plus this repo's extras:

* ``partition`` — partition a graph file (Metis/.gr/.npz) into k parts,
  write a Metis ``.part`` file, print quality and modeled time;
* ``generate`` — build a synthetic graph (Table I analogues or any
  generator family) and write it to a file;
* ``bench`` — run the paper's evaluation grid and print the tables;
* ``info`` — print a graph file's statistics;
* ``profile`` — partition under the span profiler and export the run as
  Chrome trace-event JSON (``--trace-out``, open in Perfetto) and/or a
  flat metrics JSON (``--metrics-out``), printing the ASCII span tree;
  ``--ledger runs.jsonl`` appends the run to a JSONL run ledger;
* ``compare`` — diff two ledger runs (or cohorts) with exact per-phase
  delta attribution down the span tree;
* ``report`` — render a ledger as a self-contained HTML report (engine
  comparison tables, phase breakdowns, trend over time);
* ``gate`` — the generalized perf-regression gate: compare fresh (or
  recorded) runs against a committed baseline ledger under a
  schema-validated tolerance policy, exiting non-zero on violation;
* ``trace`` — per-request waterfall from a service drain's ledger
  record: the critical path through queue/dispatch/engine phases plus a
  latency attribution table; ``--trace-out`` exports the drain's request
  timeline as Chrome trace-event JSON with flow arrows joining batch
  leaders to their followers;
* ``slo`` — the SLO monitor: evaluate declared objectives (latency
  percentiles per lane, error/degraded budgets, quality vs a baseline)
  over the ledger window and report burn rates, exiting 1 when any
  error budget is blown;
* ``serve`` — drive the concurrent partition service
  (:mod:`repro.service`) with a deterministic mixed workload and print
  throughput, latency percentiles and cache statistics; ``bench
  --service`` runs the same driver with differential verification and a
  machine-readable JSON report;
* ``roofline`` — hardware-utilization report for one run (fresh or from
  a ledger record): ASCII roofline chart, per-kernel bound-ness table,
  and CPU/PCIe/MPI utilization against the machine model's peaks;
* ``sanitize`` — self-check of the GPU data-race sanitizer: a clean
  GP-metis pipeline must come out race-free and a deliberately broken
  matching kernel (conflict resolution disabled) must be flagged;
* ``faults`` — deterministic fault injection (see :mod:`repro.faults`):
  run an engine under a fault plan and print the fault/recovery
  timeline, emit plan files, or ``--self-check`` the recovery machinery
  (a full fault plan must survive with a valid, ``degraded`` partition,
  and the same plan must crash once recovery is disabled).
"""

from __future__ import annotations

import argparse
import sys
import time

from . import api
from .bench import (
    DEFAULT_SCALES,
    ExperimentConfig,
    check_paper_shape,
    render_fig5,
    render_table1,
    render_table2,
    render_table3,
    run_experiment,
)
from .graphs import (
    PAPER_DATASETS,
    evaluate_partition,
    load_dataset,
    read_graph,
    save_npz,
    write_metis,
    write_partition,
)
from .graphs import generators as gen

__all__ = ["main", "build_parser"]

_GENERATORS = {
    "grid2d": lambda n, seed: gen.grid2d(int(n**0.5) or 1, int(n**0.5) or 1),
    "delaunay": gen.delaunay,
    "rgg": gen.random_geometric,
    "road": gen.road_network,
    "bubble": gen.bubble_mesh,
    "fe": gen.fe_matrix,
    "rmat": lambda n, seed: gen.rmat(max(1, int(n).bit_length() - 1), seed=seed),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pp = sub.add_parser("partition", help="partition a graph file")
    pp.add_argument("graph", help="input .graph/.metis/.gr/.npz file")
    pp.add_argument("-k", type=int, default=64, help="number of partitions")
    pp.add_argument(
        "--method", default="gp-metis", choices=api.available_methods(),
    )
    pp.add_argument("--ubfactor", type=float, default=1.03)
    pp.add_argument("--seed", type=int, default=1)
    pp.add_argument(
        "--sanitize", action="store_true",
        help="run GPU kernels under the data-race sanitizer (gp-metis only) "
             "and print the per-launch race report",
    )
    pp.add_argument(
        "--fault-plan", metavar="FILE",
        help="inject faults from this plan JSON (repro.faults.plan/1) and "
             "print the fault/recovery timeline",
    )
    pp.add_argument(
        "--fault-seed", type=int, default=None, metavar="N",
        help="inject faults from a plan derived deterministically from N",
    )
    pp.add_argument("-o", "--output", help="write a Metis .part file here")

    pg = sub.add_parser("generate", help="generate a synthetic graph")
    group = pg.add_mutually_exclusive_group(required=True)
    group.add_argument("--dataset", choices=list(PAPER_DATASETS),
                       help="a Table I analogue")
    group.add_argument("--family", choices=list(_GENERATORS),
                       help="a generator family")
    pg.add_argument("-n", type=int, default=10_000, help="vertices (family mode)")
    pg.add_argument("--scale", type=float, default=0.01, help="scale (dataset mode)")
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("-o", "--output", required=True,
                    help="output file (.graph or .npz)")

    pb = sub.add_parser("bench", help="run the paper's evaluation grid")
    pb.add_argument("-k", type=int, default=64)
    pb.add_argument("--scale", type=float, default=1.0,
                    help="multiplier on the default dataset scales")
    pb.add_argument("--repeats", type=int, default=1)
    pb.add_argument(
        "--datasets", metavar="A,B",
        help="comma-separated subset of the paper datasets (default: all)",
    )
    pb.add_argument(
        "--methods", metavar="A,B",
        help="comma-separated subset of methods (default: all four); "
             "comparative tables and shape checks need the full grid",
    )
    pb.add_argument("-o", "--output", help="write a markdown report here")
    pb.add_argument(
        "--json", metavar="FILE", default="BENCH_results.json",
        help="write machine-readable per-engine/per-graph results here "
             "(default: BENCH_results.json)",
    )
    pb.add_argument(
        "--no-json", action="store_true",
        help="skip writing the machine-readable results file",
    )
    pb.add_argument(
        "--service", action="store_true",
        help="benchmark the concurrent partition service instead of the "
             "paper grid: run the standard mixed workload with "
             "differential verification and write BENCH_service.json",
    )
    _add_service_arguments(pb)

    psrv = sub.add_parser(
        "serve",
        help="drive the concurrent partition service with a mixed workload",
    )
    _add_service_arguments(psrv)
    psrv.add_argument(
        "--verify", action="store_true",
        help="differentially check every unique configuration against a "
             "direct synchronous partition() call",
    )
    psrv.add_argument(
        "--json", metavar="FILE",
        help="write the machine-readable service report here",
    )
    psrv.add_argument(
        "--ledger", metavar="FILE",
        help="append one ledger record per served request (plus one "
             "engine=service record per drain) to this JSONL file",
    )

    pi = sub.add_parser("info", help="print a graph file's statistics")
    pi.add_argument("graph")

    pf = sub.add_parser(
        "profile",
        help="partition under the span profiler and export trace/metrics",
    )
    pf.add_argument("graph", help="input .graph/.metis/.gr/.npz file")
    pf.add_argument("-k", type=int, default=64, help="number of partitions")
    pf.add_argument(
        "--method", default="gp-metis", choices=api.available_methods(),
    )
    pf.add_argument("--ubfactor", type=float, default=1.03)
    pf.add_argument("--seed", type=int, default=1)
    pf.add_argument(
        "--trace-out", metavar="FILE",
        help="write Chrome trace-event JSON here (open at ui.perfetto.dev)",
    )
    pf.add_argument(
        "--metrics-out", metavar="FILE", help="write the flat metrics JSON here"
    )
    pf.add_argument(
        "--depth", type=int, default=None,
        help="limit the printed ASCII tree to this many levels",
    )
    pf.add_argument(
        "--ledger", metavar="FILE",
        help="append this run to a JSONL run ledger (one record per run: "
             "config fingerprint, span rollup, metrics snapshot)",
    )

    pc = sub.add_parser(
        "compare",
        help="diff two ledger runs with per-phase delta attribution",
    )
    pc.add_argument(
        "run_a", help="baseline run: LEDGER.jsonl[:INDEX] (default index -1, "
                      "the newest record; ':*' averages the whole file as a cohort)",
    )
    pc.add_argument("run_b", help="current run, same forms as run_a")
    pc.add_argument(
        "--ledger", metavar="FILE",
        help="resolve bare indices / ':*' operands against this ledger file",
    )

    pr = sub.add_parser(
        "report", help="render a run ledger as a self-contained HTML report"
    )
    pr.add_argument("--ledger", metavar="FILE", required=True,
                    help="the JSONL run ledger to render")
    pr.add_argument("-o", "--output", default="report.html",
                    help="output HTML file (default: report.html)")
    pr.add_argument("--title", default="repro run ledger")
    pr.add_argument(
        "--slo-policy", metavar="FILE",
        help="SLO policy JSON (schema repro.obs.slo-policy/1); adds the "
             "SLO page (objective verdicts + per-lane budget burn-down)",
    )

    ptr = sub.add_parser(
        "trace",
        help="per-request waterfall: critical path and latency attribution "
             "from a service drain's ledger record",
    )
    ptr.add_argument("ledger", help="JSONL run ledger with service drains")
    ptr.add_argument(
        "--request", metavar="ID",
        help="fingerprint or trace-id prefix of the request to render "
             "(default: the slowest request of the latest drain)",
    )
    ptr.add_argument(
        "--list", action="store_true",
        help="list every request in the window instead of rendering one",
    )
    ptr.add_argument(
        "--window", type=int, default=1, metavar="N",
        help="look at the last N service drains (default 1, 0 = all)",
    )
    ptr.add_argument(
        "--trace-out", metavar="FILE",
        help="also export the latest drain's request timeline as Chrome "
             "trace-event JSON (flow arrows join batch leaders/followers)",
    )

    pslo = sub.add_parser(
        "slo",
        help="evaluate SLO objectives (latency percentiles, error/degraded "
             "budgets, quality) over a run ledger; exit 1 on budget burn",
    )
    pslo.add_argument("ledger", help="JSONL run ledger to evaluate")
    pslo.add_argument(
        "--policy", metavar="FILE", required=True,
        help="SLO policy JSON (schema repro.obs.slo-policy/1)",
    )
    pslo.add_argument(
        "--baseline", metavar="FILE",
        help="baseline ledger for quality max_ratio objectives",
    )
    pslo.add_argument(
        "--json", metavar="FILE", dest="json_out",
        help="also write the evaluation as machine-readable JSON",
    )

    pgate = sub.add_parser(
        "gate",
        help="perf-regression gate: current runs vs a committed baseline "
             "ledger under a tolerance policy",
    )
    pgate.add_argument(
        "--baseline", metavar="FILE", required=True,
        help="committed baseline ledger (JSONL)",
    )
    pgate.add_argument(
        "--policy", metavar="FILE",
        help="gate policy JSON (schema repro.obs.gate-policy/1); "
             "defaults to phases+total+cut at 10%%",
    )
    pgate.add_argument(
        "--current", metavar="FILE",
        help="compare these recorded runs instead of freshly profiling "
             "the standard gate workload",
    )
    pgate.add_argument(
        "--update", action="store_true",
        help="rewrite the baseline ledger from the current runs and exit 0",
    )

    pa = sub.add_parser("analyze", help="structural profile + cut bounds")
    pa.add_argument("graph")
    pa.add_argument("-k", type=int, default=64,
                    help="partition count for the cut lower bounds")

    prf = sub.add_parser(
        "roofline",
        help="hardware-utilization report: per-kernel roofline and "
             "bound-ness, plus CPU/PCIe/MPI utilization vs machine peaks",
    )
    prf.add_argument(
        "graph", nargs="?",
        help="input graph file (default: a built-in delaunay mesh of -n "
             "vertices)",
    )
    prf.add_argument("-k", type=int, default=8, help="number of partitions")
    prf.add_argument(
        "--method", default="gp-metis", choices=api.available_methods(),
    )
    prf.add_argument("-n", type=int, default=20000,
                     help="vertices of the built-in graph (default 20000, "
                          "large enough that the hybrid keeps levels on "
                          "the GPU)")
    prf.add_argument("--seed", type=int, default=1)
    prf.add_argument(
        "--ledger", metavar="FILE[:INDEX]",
        help="render a recorded run's hw block instead of running fresh "
             "(default index -1, the newest record)",
    )
    prf.add_argument(
        "--json", metavar="FILE", dest="json_out",
        help="also write the hw section as JSON ('-' for stdout)",
    )
    prf.add_argument("--no-chart", action="store_true",
                     help="skip the ASCII roofline chart")

    ps = sub.add_parser("sanitize", help="data-race sanitizer self-check")
    ps.add_argument("-n", type=int, default=9000,
                    help="vertices of the clean-run test graph")
    ps.add_argument("--schedules", type=int, default=3,
                    help="fuzzed thread schedules per kernel launch")
    ps.add_argument("--seed", type=int, default=1)

    pfa = sub.add_parser(
        "faults",
        help="run an engine under a deterministic fault plan "
             "(or --self-check the recovery machinery)",
    )
    pfa.add_argument(
        "graph", nargs="?",
        help="input graph file (default: a built-in delaunay mesh of -n vertices)",
    )
    pfa.add_argument("-k", type=int, default=8, help="number of partitions")
    pfa.add_argument(
        "--method", default="gp-metis", choices=api.available_methods(),
    )
    pfa.add_argument("-n", type=int, default=9000,
                     help="vertices of the built-in graph")
    pfa.add_argument("--seed", type=int, default=1, help="engine RNG seed")
    pfa.add_argument(
        "--plan", metavar="FILE",
        help="fault plan JSON (schema repro.faults.plan/1); default is the "
             "exhaustive built-in plan covering every injection site",
    )
    pfa.add_argument(
        "--fault-seed", type=int, default=None, metavar="N",
        help="derive a random plan deterministically from N instead of --plan",
    )
    pfa.add_argument(
        "--intensity", type=float, default=0.5,
        help="fault density of --fault-seed plans, 0..1 (default 0.5)",
    )
    pfa.add_argument(
        "--no-recover", action="store_true",
        help="disable recovery: injected faults crash the run instead of "
             "being retried or degraded around",
    )
    pfa.add_argument(
        "--emit-plan", metavar="FILE",
        help="write the selected plan JSON here and exit (edit + replay "
             "with --plan)",
    )
    pfa.add_argument(
        "--ledger", metavar="FILE",
        help="append the faulted run to this JSONL run ledger",
    )
    pfa.add_argument(
        "--self-check", action="store_true",
        help="mutation-style check of the recovery machinery: the full "
             "plan must survive with a valid degraded partition, and the "
             "same plan must fail once recovery is disabled",
    )
    return p


def _add_service_arguments(parser) -> None:
    parser.add_argument("--workers", type=int, default=4,
                        help="simulated CPU workers in the pool (default 4)")
    parser.add_argument("--gpu-slots", type=int, default=1,
                        help="concurrent GPU leases (default 1, the paper testbed)")
    parser.add_argument("--requests", type=int, default=100,
                        help="workload size (default 100)")
    parser.add_argument("--queue-limit", type=int, default=64,
                        help="admission limit per priority lane (default 64)")
    parser.add_argument("--graph-n", type=int, default=600,
                        help="vertices of the workload graphs (default 600)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the fingerprint result cache")
    parser.add_argument("--no-batching", action="store_true",
                        help="disable identical-graph batch amortization")


def _run_service_load(args, *, verify: bool) -> dict:
    """Build the standard workload, serve it, and return the report."""
    from .service import (
        PartitionService,
        ServiceConfig,
        WorkloadSpec,
        build_workload,
        run_load,
    )

    spec = WorkloadSpec(requests=args.requests, graph_n=args.graph_n)
    service = PartitionService(
        ServiceConfig(
            num_workers=args.workers,
            gpu_slots=args.gpu_slots,
            queue_limit=args.queue_limit,
            cache_enabled=not args.no_cache,
            batching=not args.no_batching,
        )
    )
    report = run_load(service, build_workload(spec), verify=verify)
    report["config"] = {
        "workers": args.workers,
        "gpu_slots": args.gpu_slots,
        "requests": args.requests,
        "queue_limit": args.queue_limit,
        "graph_n": args.graph_n,
        "cache": not args.no_cache,
        "batching": not args.no_batching,
    }
    return report


def _render_service_report(report: dict) -> None:
    svc = report["service"]
    cfg = report["config"]
    print(f"service: {cfg['workers']} worker(s), {cfg['gpu_slots']} GPU "
          f"slot(s), queue limit {cfg['queue_limit']}/lane")
    print(f"requests        : {report['requests']} "
          f"(served {report['served']}, failed {report['failed']}, "
          f"dropped {report['dropped']})")
    print(f"backpressure    : {report['resubmissions']} resubmission(s) "
          "after overload")
    print(f"cache           : {report['cache_hits']} hit(s), "
          f"{report['cache_misses']} miss(es), "
          f"hit rate {svc['cache']['hit_rate']:.2f}, "
          f"saved {svc['cache']['saved_seconds']:.6f} modeled s")
    print(f"batching        : {report['batched_followers']} follower(s) "
          "amortized the CSR transfer")
    print(f"throughput      : {svc['throughput_rps']:.1f} req/s "
          "(modeled, last drain)")
    print(f"latency p50/p95 : {svc['latency_p50']:.6f} / "
          f"{svc['latency_p95']:.6f} s")
    print(f"queue wait p95  : {svc['queue_wait_p95']:.6f} s")
    print(f"utilization     : {svc['utilization']:.2f}")
    if "verification" in report:
        v = report["verification"]
        status = "PASS" if v["ok"] else "FAIL"
        print(f"verification    : {status} ({v['unique_configs']} unique "
              f"config(s) vs direct partition(); "
              f"{len(v['mismatches'])} mismatch(es))")


def _cmd_serve(args) -> int:
    from .obs import ledger as ledger_mod

    if getattr(args, "ledger", None):
        ledger_mod.set_default_ledger(args.ledger)
    try:
        report = _run_service_load(args, verify=args.verify)
    finally:
        if getattr(args, "ledger", None):
            ledger_mod.set_default_ledger(None)
    _render_service_report(report)
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True, default=str)
        print(f"wrote {args.json}")
    failed = report["failed"] or report["dropped"]
    if args.verify and not report["verification"]["ok"]:
        failed = True
    return 1 if failed else 0


def _cmd_bench_service(args) -> int:
    """``bench --service``: the load driver with verification gates.

    Exit 0 requires: every request completed (none dropped), at least
    one cache hit, and every service result identical to a direct
    synchronous run.
    """
    import json

    report = _run_service_load(args, verify=True)
    _render_service_report(report)
    checks = [
        ("all requests completed",
         report["completed"] == report["requests"] and not report["dropped"]),
        ("no failed requests", report["failed"] == 0),
        ("cache produced at least one hit", report["cache_hits"] >= 1),
        ("latency percentiles reported",
         report["service"]["latency_p50"] is not None
         and report["service"]["latency_p95"] is not None),
        ("service results match direct partition()",
         report["verification"]["ok"]),
        ("request spans share their ticket's trace id",
         report["tracing"]["spans_share_trace"]
         and report["tracing"]["trace_ids_present"]
         and report["tracing"]["trace_ids_unique"]),
        ("attribution buckets sum to latency (1e-6)",
         report["tracing"]["attribution_sums_to_latency"]),
    ]
    ok = True
    for label, passed in checks:
        print(("PASS" if passed else "FAIL"), label)
        ok = ok and passed
    out = args.json if args.json != "BENCH_results.json" else "BENCH_service.json"
    if not args.no_json:
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True, default=str)
        print(f"wrote {out} (machine-readable service report)")
    print("service bench:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def _select_fault_plan(args):
    """The fault plan chosen by ``--plan`` / ``--fault-seed`` (or default).

    Returns ``(plan, error_exit_code)``; exactly one of the two is set.
    """
    from .faults import FaultPlan, load_plan

    if getattr(args, "plan", None) and args.fault_seed is not None:
        print("error: --plan and --fault-seed are mutually exclusive",
              file=sys.stderr)
        return None, 2
    if getattr(args, "plan", None):
        try:
            return load_plan(args.plan), None
        except (OSError, ValueError) as exc:
            print(f"error: bad fault plan: {exc}", file=sys.stderr)
            return None, 2
    if args.fault_seed is not None:
        intensity = getattr(args, "intensity", 0.5)
        return FaultPlan.from_seed(args.fault_seed, intensity=intensity), None
    return FaultPlan.full(args.seed), None


def _render_fault_summary(result) -> None:
    events = result.extras.get("fault_events", [])
    injected = sum(1 for e in events if e.category == "fault")
    recovered = sum(1 for e in events if e.category == "recovery")
    print(f"faults injected : {injected}")
    print(f"recoveries      : {recovered}")
    print(f"degraded        : {result.extras.get('degraded', False)}")
    if events:
        print("fault/recovery timeline:")
        for event in events:
            print(event.render())


def _cmd_partition(args) -> int:
    graph = read_graph(args.graph)
    print(f"input: {graph}")
    opts = {}
    if args.sanitize:
        if args.method not in ("gp-metis", "gpmetis", "gp_metis"):
            print("--sanitize requires --method gp-metis", file=sys.stderr)
            return 2
        opts["sanitize"] = True
    if args.fault_plan or args.fault_seed is not None:
        from .faults import FaultPlan, load_plan

        if args.fault_plan and args.fault_seed is not None:
            print("error: --fault-plan and --fault-seed are mutually "
                  "exclusive", file=sys.stderr)
            return 2
        try:
            if args.fault_plan:
                opts["fault_plan"] = load_plan(args.fault_plan)
            else:
                opts["fault_plan"] = FaultPlan.from_seed(args.fault_seed)
        except (OSError, ValueError) as exc:
            print(f"error: bad fault plan: {exc}", file=sys.stderr)
            return 2
    t0 = time.perf_counter()
    result = api.partition(
        graph, args.k, method=args.method, ubfactor=args.ubfactor,
        seed=args.seed, **opts,
    )
    wall = time.perf_counter() - t0
    q = evaluate_partition(graph, result.part, args.k)
    print(f"method={args.method} k={args.k}")
    print(f"edge cut      : {q.cut}")
    print(f"imbalance     : {q.imbalance:.4f} (tolerance {args.ubfactor})")
    print(f"comm volume   : {q.comm_volume}")
    print(f"modeled time  : {result.modeled_seconds:.6f} s (simulated testbed)")
    print(f"wall time     : {wall:.3f} s (this Python process)")
    if "fault_plan" in opts:
        _render_fault_summary(result)
    san = result.extras.get("sanitizer") if args.sanitize else None
    if san is not None:
        print(san.render())
    if args.output:
        write_partition(result.part, args.output)
        print(f"wrote {args.output}")
    return 1 if san is not None and not san.race_free else 0


def _cmd_profile(args) -> int:
    from .obs import (
        render_tree,
        validate_chrome_trace,
        validate_metrics,
        write_chrome_trace,
        write_metrics_json,
    )
    from .obs import ledger as ledger_mod

    graph = read_graph(args.graph)
    print(f"input: {graph}")
    if args.ledger:
        # Route through the finish_run hook, so the engine itself writes
        # the record — the same path any library caller gets.
        ledger_mod.set_default_ledger(args.ledger)
    try:
        result = api.partition(
            graph, args.k, method=args.method, ubfactor=args.ubfactor,
            seed=args.seed,
        )
    finally:
        if args.ledger:
            ledger_mod.set_default_ledger(None)
    profiler = result.profiler
    if profiler is None:
        print(f"method {args.method!r} does not attach a profiler", file=sys.stderr)
        return 2
    print(render_tree(profiler, max_depth=args.depth))
    if args.ledger:
        last = ledger_mod.read_ledger(args.ledger)[-1]
        print(f"appended run {last['run_id']} to {args.ledger}")
    if args.trace_out:
        validate_chrome_trace(write_chrome_trace(profiler, args.trace_out))
        print(f"wrote {args.trace_out} (chrome trace-event; open at ui.perfetto.dev)")
    if args.metrics_out:
        validate_metrics(write_metrics_json(profiler, args.metrics_out))
        print(f"wrote {args.metrics_out}")
    return 0


def _resolve_runs(operand: str, default_ledger: str | None):
    """A ``compare`` operand -> list of ledger records.

    Forms: ``PATH``, ``PATH:INDEX``, ``PATH:*`` (whole-file cohort), and
    with ``--ledger`` also bare ``INDEX`` / ``*``.
    """
    from .obs import read_ledger

    path, _, selector = operand.rpartition(":")
    if not path:
        # No ':' in the operand: a bare path, or (with --ledger) a selector.
        if default_ledger and (operand == "*" or _is_int(operand)):
            path, selector = default_ledger, operand
        else:
            path, selector = operand, "-1"
    elif not selector or not (selector == "*" or _is_int(selector)):
        path, selector = operand, "-1"
    records = read_ledger(path)
    if not records:
        raise ValueError(f"{path}: ledger is empty")
    if selector == "*":
        return records
    index = int(selector)
    try:
        return [records[index]]
    except IndexError:
        raise ValueError(
            f"{path}: index {index} out of range ({len(records)} records)"
        ) from None


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


def _cmd_compare(args) -> int:
    from .obs import aggregate_records, compare_runs, render_comparison

    try:
        base = aggregate_records(_resolve_runs(args.run_a, args.ledger))
        cur = aggregate_records(_resolve_runs(args.run_b, args.ledger))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_comparison(compare_runs(base, cur)))
    return 0


def _cmd_report(args) -> int:
    from .obs import (
        evaluate_slo,
        lane_burn_down,
        load_slo_policy,
        read_ledger,
        write_html_report,
    )

    try:
        records = read_ledger(args.ledger)
        slo = None
        if args.slo_policy:
            policy = load_slo_policy(args.slo_policy)
            slo = {
                "results": evaluate_slo(policy, records),
                "burn_down": lane_burn_down(policy, records),
                "window": int(policy.get("window_drains", 0)),
            }
        write_html_report(records, args.output, title=args.title, slo=slo)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"wrote {args.output} ({len(records)} run(s); self-contained HTML, "
        "open in any browser)"
    )
    return 0


def _cmd_trace(args) -> int:
    import json

    from .obs import read_ledger, render_waterfall, requests_chrome_trace
    from .obs.schema import validate_chrome_trace
    from .obs.slo import service_drain_records

    try:
        records = read_ledger(args.ledger)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    drains = service_drain_records(records, max(0, args.window))
    if not drains:
        print(f"error: {args.ledger}: no service drain records with a "
              "requests section (run `repro serve --ledger ...`)",
              file=sys.stderr)
        return 2
    entries = [e for d in drains for e in d["requests"]]

    if args.list:
        print(f"{len(entries)} request(s) across {len(drains)} drain(s):")
        for e in sorted(entries, key=lambda e: -e["latency"]):
            print(
                f"  {e['trace_id']}  {e['fingerprint'][:12]:<12s} "
                f"{e['engine']:<14s} {e['graph']:<12s} lane={e['lane']} "
                f"{e['status']:<9s} {e['cache']:<5s} "
                f"latency={e['latency'] * 1e3:8.3f} ms"
            )
        return 0

    if args.request:
        needle = args.request
        matches = [
            e for e in entries
            if e["fingerprint"].startswith(needle)
            or e["trace_id"].startswith(needle)
        ]
        if not matches:
            print(f"error: no request matches {needle!r} "
                  f"(try `repro trace {args.ledger} --list`)", file=sys.stderr)
            return 2
        if len({e["trace_id"] for e in matches}) > 1:
            print(f"error: {needle!r} is ambiguous "
                  f"({len(matches)} requests); use a trace-id prefix",
                  file=sys.stderr)
            return 2
        entry = matches[-1]
    else:
        entry = max(entries, key=lambda e: e["latency"])

    print(render_waterfall(entry))

    if args.trace_out:
        doc = requests_chrome_trace(drains[-1])
        validate_chrome_trace(doc)
        with open(args.trace_out, "w") as fh:
            json.dump(doc, fh, indent=1)
        print(f"\nwrote {args.trace_out} "
              f"({len(doc['traceEvents'])} events; open in Perfetto)")
    return 0


def _cmd_slo(args) -> int:
    import dataclasses
    import json

    from .obs import (
        evaluate_slo,
        load_slo_policy,
        read_ledger,
        render_slo,
        slo_ok,
    )

    try:
        policy = load_slo_policy(args.policy)
    except (OSError, ValueError) as exc:
        print(f"error: bad policy: {exc}", file=sys.stderr)
        return 2
    try:
        records = read_ledger(args.ledger)
        baseline = read_ledger(args.baseline) if args.baseline else None
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    results = evaluate_slo(policy, records, baseline_records=baseline)
    window = int(policy.get("window_drains", 0))
    print(render_slo(results, window=window))

    if args.json_out:
        import math

        def _jsonable(r):
            d = dataclasses.asdict(r)
            if math.isinf(d["burn_rate"]):
                d["burn_rate"] = None  # JSON has no Infinity
            d["budget_remaining"] = r.budget_remaining
            return d

        doc = {
            "schema": "repro.obs.slo-report/1",
            "policy": args.policy,
            "window_drains": window,
            "ok": slo_ok(results),
            "objectives": [_jsonable(r) for r in results],
        }
        with open(args.json_out, "w") as fh:
            json.dump(doc, fh, indent=1, default=str)
        print(f"wrote {args.json_out}")
    return 0 if slo_ok(results) else 1


def _cmd_gate(args) -> int:
    import json
    import pathlib

    from .obs import (
        DEFAULT_POLICY,
        collect_workload_records,
        evaluate_gate,
        load_policy,
        read_ledger,
        render_gate,
    )

    try:
        policy = load_policy(args.policy) if args.policy else DEFAULT_POLICY
    except (OSError, ValueError) as exc:
        print(f"error: bad policy: {exc}", file=sys.stderr)
        return 2

    if args.current:
        try:
            current = read_ledger(args.current)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if not current:
            print(f"error: {args.current}: ledger is empty", file=sys.stderr)
            return 2
        print(f"current: {len(current)} recorded run(s) from {args.current}")
    else:
        print("collecting the standard gate workload "
              "(see repro.obs.gate.BaselineConfig)...")
        current = collect_workload_records()

    baseline_path = pathlib.Path(args.baseline)
    if args.update or not baseline_path.exists():
        with open(baseline_path, "w") as fh:
            for record in current:
                fh.write(json.dumps(record, sort_keys=True,
                                    separators=(",", ":")) + "\n")
        print(f"wrote baseline ledger {baseline_path} ({len(current)} run(s))")
        return 0

    try:
        baseline = read_ledger(baseline_path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not baseline:
        print(f"error: {baseline_path}: ledger is empty", file=sys.stderr)
        return 2
    violations, checks, notes = evaluate_gate(policy, baseline, current)
    print(render_gate(violations, checks, notes))
    return 1 if violations else 0


def _cmd_generate(args) -> int:
    if args.dataset:
        graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    else:
        graph = _GENERATORS[args.family](args.n, args.seed)
    print(f"generated: {graph}")
    if str(args.output).endswith(".npz"):
        save_npz(graph, args.output)
    else:
        write_metis(graph, args.output)
    print(f"wrote {args.output}")
    return 0


def _cmd_bench(args) -> int:
    from .bench import DEFAULT_METHODS

    if args.service:
        return _cmd_bench_service(args)
    extra = {}
    if args.datasets:
        extra["datasets"] = tuple(args.datasets.split(","))
    if args.methods:
        extra["methods"] = tuple(args.methods.split(","))
    cfg = ExperimentConfig(
        k=args.k,
        repeats=args.repeats,
        scales={name: s * args.scale for name, s in DEFAULT_SCALES.items()},
        **extra,
    )
    results = run_experiment(cfg, verbose=True)
    full_grid = set(DEFAULT_METHODS) <= set(cfg.methods)
    print()
    blocks = [render_table1(results)]
    if full_grid:
        blocks += [render_fig5(results), render_table2(results), render_table3(results)]
    for block in blocks:
        print(block)
        print()
    failed = []
    if full_grid:
        failed = [c for c in check_paper_shape(results) if not c.holds]
        for c in check_paper_shape(results):
            print(("PASS" if c.holds else "FAIL"), c.claim)
    if args.output:
        from .bench import write_report

        write_report(results, args.output)
        print(f"wrote {args.output}")
    if args.json and not args.no_json:
        from .bench import write_results_json

        write_results_json(results, args.json)
        print(f"wrote {args.json} (machine-readable per-engine results)")
    return 1 if failed else 0


def _cmd_info(args) -> int:
    graph = read_graph(args.graph)
    deg = graph.degrees()
    print(f"name            : {graph.name}")
    print(f"vertices        : {graph.num_vertices}")
    print(f"edges           : {graph.num_edges}")
    print(f"avg degree      : {2 * graph.num_edges / max(1, graph.num_vertices):.2f}")
    print(f"max degree      : {graph.max_degree}")
    print(f"total vwgt      : {graph.total_vertex_weight}")
    print(f"total ewgt      : {graph.total_edge_weight}")
    print(f"memory (CSR)    : {graph.nbytes} bytes")
    if graph.num_vertices:
        comps = len(set(graph.connected_components().tolist()))
        print(f"components      : {comps}")
    return 0


def _cmd_analyze(args) -> int:
    from .graphs import (
        perfect_balance_cut_lower_bound,
        profile_graph,
        spectral_cut_lower_bound,
    )

    graph = read_graph(args.graph)
    p = profile_graph(graph)
    print(p.describe())
    print(f"degree cv       : {p.degree_cv:.3f}")
    print(f"avg bandwidth   : {p.avg_bandwidth:.1f}")
    print(f"index locality  : {p.index_locality:.3f} "
          "(fraction of arcs within +-64 ids; drives GPU coalescing)")
    print(f"components      : {p.components}")
    print(f"weighted        : edges={p.weighted_edges} vertices={p.weighted_vertices}")
    spectral = spectral_cut_lower_bound(graph, args.k)
    degree = perfect_balance_cut_lower_bound(graph, args.k)
    print(f"cut lower bounds (k={args.k}): spectral >= {spectral:.1f}, "
          f"degree >= {degree}")
    return 0


def _cmd_sanitize(args) -> int:
    """Self-check the race sanitizer: clean pipeline, then a planted race."""
    import numpy as np

    from .gpmetis.kernels.matching import gpu_match
    from .gpusim.device import Device
    from .gpusim.transfer import transfer_graph_to_device
    from .runtime.clock import SimClock
    from .runtime.machine import PAPER_MACHINE

    if args.schedules < 1:
        print("--schedules must be >= 1", file=sys.stderr)
        return 2
    if args.n < 3000:
        print(f"-n {args.n} is below the GPU threshold; the clean-run check "
              "needs a graph the GPU path actually executes (>= 3000)",
              file=sys.stderr)
        return 2

    ok = True

    # 1. The full GP-metis pipeline must be race-free under fuzzing.
    graph = gen.delaunay(args.n, seed=args.seed)
    result = api.partition(
        graph, 8, method="gp-metis", seed=args.seed,
        sanitize=True, fuzz_schedules=args.schedules, gpu_threshold_min=2048,
    )
    san = result.extras["sanitizer"]
    print(san.summary())
    kernels = san.kernels_checked()
    families = sorted({name.split(".")[-1].split("_")[0] for name in kernels})
    print(f"kernels checked: {sorted(kernels)}")
    if not san.race_free:
        print("FAIL clean pipeline reported races:")
        for r in san.racy_reports:
            print(r.render())
        ok = False
    else:
        print(f"PASS clean pipeline race-free ({len(san.reports)} launches, "
              f"families: {', '.join(families)})")
    if not any(n.startswith("coarsen.match") for n in kernels):
        print("FAIL clean run never reached the GPU matching kernel")
        ok = False

    # 2. Disabling conflict resolution must be caught (mutation self-check).
    star = gen.star_graph(64)
    dev = Device(PAPER_MACHINE.gpu, SimClock())
    mut = dev.enable_sanitizer(fuzz_schedules=args.schedules, seed=args.seed)
    d_csr = transfer_graph_to_device(dev, star, PAPER_MACHINE.interconnect)
    gpu_match(
        dev, d_csr, star, n_threads=32, scheme="hem",
        rng=np.random.default_rng(args.seed), resolve_conflicts=False,
    )
    if mut.num_races:
        kinds = sorted({
            f.kind for r in mut.racy_reports for f in r.findings
            if f.severity == "race"
        })
        print(f"PASS mutation detected: {mut.num_races} race(s) "
              f"({', '.join(kinds)}) with resolution disabled")
    else:
        print("FAIL mutation not detected: resolution disabled but no race flagged")
        ok = False

    print("sanitizer self-check:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_faults(args) -> int:
    from .exceptions import ReproError
    from .obs import ledger as ledger_mod

    plan, err = _select_fault_plan(args)
    if err is not None:
        return err
    if args.emit_plan:
        plan.dump(args.emit_plan)
        print(f"wrote {args.emit_plan} ({len(plan.specs)} spec(s), "
              f"seed {plan.seed})")
        return 0
    if args.self_check:
        return _faults_self_check(args)

    graph = read_graph(args.graph) if args.graph else gen.delaunay(
        args.n, seed=args.seed
    )
    print(f"input: {graph}")
    print(plan.describe())
    if args.ledger:
        ledger_mod.set_default_ledger(args.ledger)
    try:
        result = api.partition(
            graph, args.k, method=args.method, seed=args.seed,
            fault_plan=plan, fault_recovery=not args.no_recover,
        )
    except ReproError as exc:
        if getattr(exc, "injected", False):
            print(f"run failed on an injected fault: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        raise
    finally:
        if args.ledger:
            ledger_mod.set_default_ledger(None)
    q = evaluate_partition(graph, result.part, args.k)
    print(f"method={args.method} k={args.k}")
    print(f"edge cut        : {q.cut}")
    print(f"imbalance       : {q.imbalance:.4f}")
    print(f"modeled time    : {result.modeled_seconds:.6f} s")
    _render_fault_summary(result)
    if args.ledger:
        last = ledger_mod.read_ledger(args.ledger)[-1]
        print(f"appended run {last['run_id']} to {args.ledger}")
    return 0


def _faults_self_check(args) -> int:
    """Mutation-style proof that the recovery machinery carries the run.

    1. GP-metis under the exhaustive built-in plan must finish with a
       valid, balanced k-way partition flagged ``degraded``, and the
       ledger record must carry the fault/recovery evidence.
    2. The identical plan with recovery disabled must fail on an
       injected fault — showing the pass above is the recovery code's
       doing, not the faults being harmless.
    """
    import os
    import tempfile

    from .exceptions import ReproError
    from .faults import FaultPlan
    from .graphs.metrics import imbalance as imbalance_of
    from .obs import ledger as ledger_mod

    ok = True
    plan = FaultPlan.full(args.seed)
    graph = gen.delaunay(args.n, seed=args.seed)
    k = args.k
    ubfactor = 1.03
    print(f"graph: {graph}")
    print(f"plan : exhaustive, seed {args.seed}, {len(plan.specs)} spec(s) "
          "covering every injection site")

    # 1. Recovery on: survive, degrade, and leave evidence in the ledger.
    with tempfile.TemporaryDirectory() as tmpdir:
        ledger_path = os.path.join(tmpdir, "faults.jsonl")
        ledger_mod.set_default_ledger(ledger_path)
        try:
            result = api.partition(
                graph, k, method="gp-metis", seed=args.seed, ubfactor=ubfactor,
                fault_plan=plan, gpu_threshold_min=2048,
            )
        except ReproError as exc:
            print(f"FAIL recovery-enabled run died: {type(exc).__name__}: {exc}")
            ledger_mod.set_default_ledger(None)
            print("faults self-check: FAIL")
            return 1
        finally:
            ledger_mod.set_default_ledger(None)
        record = ledger_mod.read_ledger(ledger_path)[-1]

    part = result.part
    events = result.extras.get("fault_events", [])
    injected = sum(1 for e in events if e.category == "fault")
    recovered = sum(1 for e in events if e.category == "recovery")
    checks = [
        ("partition covers all k parts",
         part.shape[0] == graph.num_vertices
         and set(part.tolist()) == set(range(k))),
        (f"imbalance within tolerance ({ubfactor})",
         imbalance_of(graph, part, k) <= ubfactor + 1e-9),
        ("result flagged degraded", bool(result.extras.get("degraded"))),
        (f"faults were injected ({injected})", injected > 0),
        (f"recoveries were taken ({recovered})", recovered > 0),
        ("ledger record carries fault metrics",
         any(key.startswith("faults.injected")
             for key in record["metrics"]["counters"])
         and any(key.startswith("faults.recovered")
                 for key in record["metrics"]["counters"])),
        ("ledger record flagged degraded",
         bool(record["run"].get("degraded"))),
    ]
    for label, passed in checks:
        print(("PASS" if passed else "FAIL"), label)
        ok = ok and passed

    # 2. Mutation: the same plan with recovery off must fail.
    try:
        api.partition(
            graph, k, method="gp-metis", seed=args.seed, ubfactor=ubfactor,
            fault_plan=plan, fault_recovery=False, gpu_threshold_min=2048,
        )
        print("FAIL mutation not detected: recovery disabled but the run "
              "still completed")
        ok = False
    except ReproError as exc:
        if getattr(exc, "injected", False):
            print(f"PASS mutation detected: recovery off -> "
                  f"{type(exc).__name__}: {exc}")
        else:
            print(f"FAIL recovery-off run died on a non-injected error: "
                  f"{type(exc).__name__}: {exc}")
            ok = False

    print("faults self-check:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_roofline(args) -> int:
    import json as json_mod

    from .obs import ledger as ledger_mod
    from .obs.hw import (
        render_kernel_table,
        render_roofline_chart,
        validate_hw_section,
    )

    if args.ledger:
        path, _, idx = args.ledger.partition(":")
        records = ledger_mod.read_ledger(path)
        try:
            record = records[int(idx) if idx else -1]
        except IndexError:
            print(f"{path}: no record at index {idx or -1} "
                  f"({len(records)} record(s))", file=sys.stderr)
            return 1
        section = record.get("hw")
        if section is None:
            print(f"record {record['run_id']} carries no hw block "
                  f"(schema {record['schema']}); re-run it under the "
                  "current code", file=sys.stderr)
            return 1
        cfg = record["config"]
        header = (f"run {record['run_id']}: {cfg['engine']} on "
                  f"{cfg['graph']} k={cfg['k']}")
    else:
        graph = read_graph(args.graph) if args.graph else gen.delaunay(
            args.n, seed=args.seed
        )
        result = api.partition(graph, args.k, method=args.method,
                               seed=args.seed)
        section = getattr(result.profiler, "hw", None)
        if section is None:
            print("engine produced no hw section", file=sys.stderr)
            return 1
        header = (f"{args.method} on {graph.name} k={args.k} "
                  f"({result.modeled_seconds:.6f} modeled s)")
    validate_hw_section(section)

    mach = section["machine"]
    print(header)
    print(f"machine: cpu={mach['cpu']}  gpu={mach['gpu']}")
    print()
    gpu = section.get("gpu")
    if gpu is not None and gpu.get("kernels"):
        if not args.no_chart:
            print(render_roofline_chart(gpu))
            print()
        print(render_kernel_table(gpu))
        print()
    elif gpu is not None:
        print("gpu: aggregate only (no per-kernel data in this record)")
        print(f"  bytes moved {gpu['bytes_moved']:.3e} B, dram util "
              f"{gpu['dram_utilization']:.2f}, compute util "
              f"{gpu['compute_utilization']:.2f}")
        print()
    else:
        print("no GPU kernels in this run (CPU-only engine)")
        print()

    cpu, mpi, pcie = section["cpu"], section["mpi"], section["pcie"]
    print(f"cpu : busy {cpu['busy_seconds']:.6f} s at util "
          f"{cpu['utilization']:.2f}  "
          f"({cpu['edge_visits']:.3g} edge visits, "
          f"{cpu['vertex_ops']:.3g} vertex ops, "
          f"{cpu['random_bytes'] / 1e6:.1f} MB random access)")
    if pcie["transfers"]:
        print(f"pcie: {pcie['transfers']} transfer(s), "
              f"{pcie['bytes'] / 1e6:.2f} MB in {pcie['seconds']:.6f} s — "
              f"util {pcie['utilization']:.2f}, "
              f"alpha share {pcie['alpha_share']:.2f}")
    if mpi["messages"]:
        print(f"mpi : {mpi['messages']:.0f} message(s), "
              f"{mpi['bytes'] / 1e6:.2f} MB — util {mpi['utilization']:.2f}")
    avoid = section.get("transfer_avoidance")
    if avoid is not None:
        print(f"transfer avoidance: {avoid:.4f} "
              "(device-resident bytes / all bytes touched)")
    if section["phases"]:
        print()
        print(f"{'phase':<16s} {'seconds':>10s} {'gpu%':>6s} {'pcie%':>6s} "
              f"{'cpu%':>6s} {'dram-util':>10s} {'pcie-util':>10s}")
        for row in section["phases"]:
            total = row["seconds"] or 1.0
            print(f"{row['phase']:<16s} {row['seconds']:>10.6f} "
                  f"{100 * row['gpu_seconds'] / total:>5.1f}% "
                  f"{100 * row['pcie_seconds'] / total:>5.1f}% "
                  f"{100 * row['cpu_seconds'] / total:>5.1f}% "
                  f"{row['gpu_dram_utilization']:>10.3f} "
                  f"{row['pcie_utilization']:>10.3f}")

    if args.json_out:
        text = json_mod.dumps(section, indent=2, sort_keys=True)
        if args.json_out == "-":
            print(text)
        else:
            with open(args.json_out, "w") as fh:
                fh.write(text + "\n")
            print(f"\nwrote {args.json_out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "partition": _cmd_partition,
        "generate": _cmd_generate,
        "bench": _cmd_bench,
        "info": _cmd_info,
        "profile": _cmd_profile,
        "compare": _cmd_compare,
        "report": _cmd_report,
        "trace": _cmd_trace,
        "slo": _cmd_slo,
        "gate": _cmd_gate,
        "analyze": _cmd_analyze,
        "sanitize": _cmd_sanitize,
        "faults": _cmd_faults,
        "roofline": _cmd_roofline,
        "serve": _cmd_serve,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
