"""Generalized regression gate over ledger records.

Tolerances for *any* gated quantity (per-phase seconds, total, edge
cut, imbalance, any scalar metric such as PCIe bytes or the matching
conflict rate) are declared in one schema-validated policy
file, evaluated between a committed baseline ledger and a freshly
collected (or separately recorded) current ledger, and any violation
makes the gate exit non-zero.

Policy file (schema ``repro.obs.gate-policy/1``)::

    {
      "schema": "repro.obs.gate-policy/1",
      "rules": [
        {"quantity": "total",      "tolerance": 0.10, "floor": 1e-6},
        {"quantity": "phase:*",    "tolerance": 0.10, "floor": 1e-6},
        {"quantity": "cut",        "tolerance": 0.05},
        {"quantity": "metric:transfer.h2d_bytes", "tolerance": 0.10},
        {"quantity": "metric:kernel.coalescing_efficiency",
         "tolerance": 0.05, "direction": "decrease"}
      ]
    }

``quantity`` targets: ``total``, ``cut``, ``imbalance``,
``phase:<name>`` (``phase:*`` expands over the baseline's phases), and
``metric:<key>`` (a counter or gauge key, labels included; append
``#p50``/``#p95``/``#p99``/``#mean``/``#max``/``#count`` to read a
histogram summary stat).  A rule whose quantity is missing or
non-numeric on one side is WARN-skipped, never a crash; missing on both
sides is a silent non-match (service rules against engine records).
``direction`` declares which way is *worse*: ``increase`` (default),
``decrease`` (e.g. coalescing efficiency), or ``both``.  A violation
needs both the relative ``tolerance`` and the absolute ``floor``
exceeded, so microscopic quantities cannot fail the build.

A rule may carry ``"match": {"engine": "gp-metis"}`` (any config keys):
it then applies only to record pairs whose baseline ``config`` carries
those exact values, so per-engine expectations (the async-streams
overlap win, say) don't leak onto the CPU engines.

Baseline and current records are matched on (engine, graph, k, seed);
the config fingerprint additionally detects silent option drift.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .schema import GATE_POLICY_SCHEMA, validate_gate_policy

__all__ = [
    "GATE_POLICY_SCHEMA",
    "DEFAULT_POLICY",
    "Violation",
    "load_policy",
    "match_key",
    "resolve_quantity",
    "evaluate_gate",
    "render_gate",
    "BaselineConfig",
    "collect_workload_records",
    "GATE_PAPER_SCALES",
]

#: The policy the gate falls back to when none is given: phases, total
#: and cut at 10 %.
DEFAULT_POLICY: dict = {
    "schema": GATE_POLICY_SCHEMA,
    "rules": [
        {"quantity": "total", "tolerance": 0.10, "floor": 1e-6},
        {"quantity": "phase:*", "tolerance": 0.10, "floor": 1e-6},
        {"quantity": "cut", "tolerance": 0.10},
    ],
}


@dataclass(frozen=True)
class Violation:
    """One gated quantity that moved past its declared tolerance."""

    run_label: str
    quantity: str
    direction: str
    baseline: float
    current: float
    tolerance: float

    @property
    def ratio(self) -> float:
        return self.current / self.baseline if self.baseline else float("inf")


def load_policy(path) -> dict:
    """Read and schema-validate a gate policy file."""
    with open(path) as fh:
        doc = json.load(fh)
    validate_gate_policy(doc)
    return doc


def match_key(record: dict) -> tuple:
    """The identity baseline/current records are joined on."""
    cfg = record.get("config", {})
    return (cfg.get("engine"), cfg.get("graph"), cfg.get("k"), cfg.get("seed"))


def _latest_by_key(records: list[dict]) -> dict[tuple, dict]:
    out: dict[tuple, dict] = {}
    for record in records:  # append order; last record wins
        out[match_key(record)] = record
    return out


def resolve_quantity(record: dict, quantity: str):
    """The record's value for one rule target (None when absent)."""
    if quantity == "total":
        return record.get("run", {}).get("modeled_seconds")
    if quantity == "cut":
        return record.get("quality", {}).get("cut")
    if quantity == "imbalance":
        return record.get("quality", {}).get("imbalance")
    if quantity.startswith("phase:"):
        entry = record.get("phases", {}).get(quantity[len("phase:"):])
        return None if entry is None else entry.get("seconds")
    if quantity.startswith("metric:"):
        key = quantity[len("metric:"):]
        stat = None
        if "#" in key:
            key, stat = key.rsplit("#", 1)
        metrics = record.get("metrics", {})
        if stat is None:
            for kind in ("counters", "gauges"):
                if key in metrics.get(kind, {}):
                    return metrics[kind][key]
        hist = metrics.get("histograms", {}).get(key)
        if isinstance(hist, dict):
            # Histogram summary stat (``metric:<key>#p95``); may be None
            # for an empty histogram — the evaluator warns and skips.
            return hist.get(stat if stat is not None else "mean")
        return None
    raise ValueError(f"unknown gate quantity {quantity!r}")


def _numeric(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _rule_matches(rule: dict, record: dict) -> bool:
    """Whether a rule's ``match`` filter accepts this record's config."""
    cfg = record.get("config", {})
    return all(cfg.get(k) == v for k, v in rule.get("match", {}).items())


def _expand_rule(rule: dict, baseline: dict) -> list[dict]:
    if rule["quantity"] == "phase:*":
        return [
            {**rule, "quantity": f"phase:{name}"}
            for name in sorted(baseline.get("phases", {}))
        ]
    return [rule]


def _violates(rule: dict, base_value: float, cur_value: float) -> str | None:
    """The offending direction, or None when within tolerance."""
    tolerance = float(rule["tolerance"])
    floor = float(rule.get("floor", 0.0))
    direction = rule.get("direction", "increase")
    if direction in ("increase", "both"):
        if cur_value > base_value * (1.0 + tolerance) and (
            cur_value - base_value
        ) > floor:
            return "increase"
    if direction in ("decrease", "both"):
        if cur_value < base_value * (1.0 - tolerance) and (
            base_value - cur_value
        ) > floor:
            return "decrease"
    return None


def evaluate_gate(
    policy: dict, baseline_records: list[dict], current_records: list[dict]
) -> tuple[list[Violation], int, list[str]]:
    """Apply the policy to every matched (baseline, current) record pair.

    Returns ``(violations, checks_performed, notes)``.  Baseline records
    with no current counterpart produce a note (the workload shrank —
    that deserves eyes, not a silent pass); quantities missing on either
    side are skipped, so new phases/metrics fail nothing until a
    baseline containing them is committed.
    """
    validate_gate_policy(policy)
    violations: list[Violation] = []
    notes: list[str] = []
    checks = 0
    current_by_key = _latest_by_key(current_records)
    for key, base_record in _latest_by_key(baseline_records).items():
        cur_record = current_by_key.get(key)
        label = "{}/{} k={} seed={}".format(*key)
        if cur_record is None:
            notes.append(f"{label}: no current run to compare (baseline unmatched)")
            continue
        if base_record.get("fingerprint") != cur_record.get("fingerprint"):
            notes.append(
                f"{label}: config fingerprint changed "
                f"({base_record.get('fingerprint')} -> "
                f"{cur_record.get('fingerprint')}); options drifted?"
            )
        for rule in policy["rules"]:
            if not _rule_matches(rule, base_record):
                continue
            for concrete in _expand_rule(rule, base_record):
                base_value = resolve_quantity(base_record, concrete["quantity"])
                cur_value = resolve_quantity(cur_record, concrete["quantity"])
                if not _numeric(base_value) or not _numeric(cur_value):
                    if base_value is None and cur_value is None:
                        # Rule does not apply to this record pair (e.g.
                        # a service.* rule against an engine record).
                        continue
                    # Present on one side but missing/None/non-numeric on
                    # the other (an empty histogram's p50, a null gauge):
                    # warn and skip instead of crashing the gate run.
                    sides = []
                    if not _numeric(base_value):
                        sides.append(f"baseline={base_value!r}")
                    if not _numeric(cur_value):
                        sides.append(f"current={cur_value!r}")
                    notes.append(
                        f"WARN {label} {concrete['quantity']}: metric missing "
                        f"or non-numeric ({', '.join(sides)}); rule skipped"
                    )
                    continue
                checks += 1
                direction = _violates(concrete, float(base_value), float(cur_value))
                if direction is not None:
                    violations.append(
                        Violation(
                            run_label=label,
                            quantity=concrete["quantity"],
                            direction=direction,
                            baseline=float(base_value),
                            current=float(cur_value),
                            tolerance=float(concrete["tolerance"]),
                        )
                    )
    return violations, checks, notes


def render_gate(
    violations: list[Violation], checks: int, notes: list[str]
) -> str:
    """The gate verdict as a printable report."""
    lines: list[str] = []
    for note in notes:
        lines.append(f"note: {note}")
    for v in violations:
        worse = "above" if v.direction == "increase" else "below"
        lines.append(
            f"REGRESSED {v.run_label} {v.quantity}: "
            f"{v.baseline:g} -> {v.current:g} ({v.ratio:.2f}x), "
            f"{worse} the {v.tolerance:.0%} tolerance"
        )
    if violations:
        lines.append(
            f"FAIL: {len(violations)} violation(s) in {checks} gated checks"
        )
    else:
        lines.append(f"PASS: {checks} gated checks within tolerance")
    return "\n".join(lines)


# ----------------------------------------------------------------------
#: The gate's paper-dataset sweep: gp-metis on all four Table I analogue
#: graphs at CI-sized scales.  These are the records the async-streams
#: rules (scoped ``metric:hw.pcie.exposed_seconds`` / ``total``) gate —
#: regressing the overlap win on any of them fails the build.
GATE_PAPER_SCALES: dict[str, float] = {
    "ldoor": 0.008,
    "delaunay": 0.012,
    "hugebubble": 0.0006,
    "usa_roads": 0.0005,
}


@dataclass(frozen=True)
class BaselineConfig:
    """The fixed engine workload the gate profiles."""

    family: str = "delaunay"
    n: int = 6000
    k: int = 16
    seed: int = 7
    methods: tuple[str, ...] = ("gp-metis", "mt-metis")
    #: Method-specific option overrides applied on top of the defaults.
    options: dict = field(
        default_factory=lambda: {"gp-metis": {"gpu_threshold_min": 2048}}
    )

    def make_graph(self):
        from ..graphs import generators

        maker = getattr(generators, self.family)
        return maker(self.n, seed=self.seed)


def collect_workload_records(config=None) -> list[dict]:
    """Freshly profile the standard gate workload into ledger records.

    One full ledger record per :class:`BaselineConfig` method, so every
    policy quantity is gateable.  On top of that come one gp-metis run
    per Table I analogue dataset (``GATE_PAPER_SCALES``) — the workload
    the paper's end-to-end claim and the async-streams overlap win are
    asserted on — and one
    ``engine="service"`` record covering the concurrent partition
    service (a fixed mixed workload on a 4-worker pool), so
    ``metric:service.*`` rules gate throughput, latency percentiles and
    cache behaviour alongside the engine runs.
    """
    # Imported lazily: repro.api pulls in every engine, and the engines
    # import repro.obs.
    from ..api import partition
    from ..graphs.datasets import PAPER_DATASETS
    from .ledger import ledger_record

    config = config or BaselineConfig()
    graph = config.make_graph()
    records: list[dict] = []
    for method in config.methods:
        opts = dict(config.options.get(method, {}))
        result = partition(graph, config.k, method=method, seed=config.seed, **opts)
        profiler = result.profiler
        if profiler is None:
            raise RuntimeError(f"method {method!r} did not attach a profiler")
        records.append(ledger_record(profiler))
    for name, scale in GATE_PAPER_SCALES.items():
        ds_graph = PAPER_DATASETS[name].build(scale=scale, seed=config.seed)
        result = partition(
            ds_graph, config.k, method="gp-metis", seed=config.seed,
            gpu_threshold_min=2048,
        )
        if result.profiler is None:
            raise RuntimeError("gp-metis did not attach a profiler")
        records.append(ledger_record(result.profiler))
    records.append(_service_workload_record())
    return records


def _service_workload_record() -> dict:
    """One deterministic service drain as a gateable ledger record."""
    from ..service import PartitionService, ServiceConfig, WorkloadSpec, build_workload
    from .critical import request_entry
    from .ledger import ledger_record

    service = PartitionService(ServiceConfig(num_workers=4, gpu_slots=1))
    for request in build_workload(WorkloadSpec(requests=30, graph_n=400)):
        service.submit(request)
    tickets = service.drain()
    assert service.last_profiler is not None
    entries = [
        request_entry(
            t, dispatch_seconds=service.config.dispatch_seconds,
            batch_wait=t.batch_wait, links=t.links,
        )
        for t in tickets
    ]
    return ledger_record(
        service.last_profiler, sections={"requests": entries}
    )
