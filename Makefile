PYTHON ?= python
export PYTHONPATH := src

.PHONY: check tier1 sanitize-smoke faults-smoke profile-smoke roofline-smoke overlap-smoke serve-smoke slo-smoke gate report fuzz faults bench test

# The gate: tier-1 suite + the sanitizer, fault-injection, observability,
# hardware-utilization, async-overlap, partition-service and SLO
# self-checks + the policy-driven perf-regression gate on the committed
# ledger + the differential fault matrix and adversarial-schedule sweeps.
# CI runs exactly this target.
check: tier1 sanitize-smoke faults-smoke profile-smoke roofline-smoke overlap-smoke serve-smoke slo-smoke gate
	$(PYTHON) -m pytest -q -m "faults or fuzz"

# Tier-1: the fast suite (fuzz/bench-marked tests excluded via pyproject).
tier1:
	$(PYTHON) -m pytest -x -q

# Race-sanitizer self-check: clean pipeline race-free, planted race caught.
sanitize-smoke:
	$(PYTHON) -m repro sanitize

# Fault-injection self-check: survive the exhaustive fault storm with a
# valid partition, then prove the mutation (recovery off) crashes.
faults-smoke:
	$(PYTHON) -m repro faults --self-check

# Observability self-check: profile a tiny graph, export both formats,
# schema-validate the JSON, require the per-engine metric set.
profile-smoke:
	$(PYTHON) benchmarks/profile_smoke.py

# Hardware-utilization smoke: a fresh GP-metis run must produce a valid
# hw section (utilizations in [0,1], phase slices summing to phase time,
# classified kernel bounds) and render the roofline chart + table; the
# committed baseline ledger's newest record must render too.
roofline-smoke:
	$(PYTHON) -m repro roofline -n 20000 -k 8 --json - > /dev/null
	$(PYTHON) -m repro roofline --ledger benchmarks/BENCH_ledger.jsonl \
		--no-chart > /dev/null

# Async-streams overlap smoke: GP-metis on every paper dataset with
# streams on vs off must produce byte-identical partition vectors while
# strictly reducing end-to-end simulated seconds and exposed PCIe time.
overlap-smoke:
	$(PYTHON) benchmarks/overlap_smoke.py

# Partition-service acceptance: 100-request mixed workload over 4 workers,
# every served vector differentially verified against a direct partition()
# call; exits non-zero on drops, failures, a cold cache or a verify mismatch.
serve-smoke:
	$(PYTHON) -m repro bench --service --workers 4 --no-json

# SLO monitor smoke: the committed baseline ledger must meet the declared
# objectives (self-baselined so quality ratios evaluate), and a freshly
# served workload must pass the same policy end-to-end, including the
# per-request waterfall + Chrome-trace export.
slo-smoke:
	$(PYTHON) -m repro slo benchmarks/BENCH_ledger.jsonl \
		--policy benchmarks/slo_policy.json \
		--baseline benchmarks/BENCH_ledger.jsonl
	rm -f .slo_smoke_ledger.jsonl
	$(PYTHON) -m repro serve --requests 40 --graph-n 400 \
		--ledger .slo_smoke_ledger.jsonl > /dev/null
	$(PYTHON) -m repro slo .slo_smoke_ledger.jsonl \
		--policy benchmarks/slo_policy.json
	$(PYTHON) -m repro trace .slo_smoke_ledger.jsonl \
		--trace-out .slo_smoke_trace.json
	rm -f .slo_smoke_ledger.jsonl .slo_smoke_trace.json

# Generalized perf-regression gate: fresh runs of the gate workload vs the
# committed baseline ledger, under the multi-metric tolerance policy.
# After an intentional perf change: `python -m repro gate --baseline
# benchmarks/BENCH_ledger.jsonl --policy benchmarks/gate_policy.json --update`
# and commit the rewritten ledger with the PR that moved it.
gate:
	$(PYTHON) -m repro gate --baseline benchmarks/BENCH_ledger.jsonl \
		--policy benchmarks/gate_policy.json

# Render the committed baseline ledger as a self-contained HTML report.
report:
	$(PYTHON) -m repro report --ledger benchmarks/BENCH_ledger.jsonl -o report.html

# Long adversarial-schedule sweeps (not part of tier-1).
fuzz:
	$(PYTHON) -m pytest -q -m fuzz

# Differential fault matrix: plans x engines (faults-marked, not tier-1).
faults:
	$(PYTHON) -m pytest -q -m faults

# Slow end-to-end benchmark tests (bench-marked, not part of tier-1).
bench:
	$(PYTHON) -m pytest -q -m bench

test: check
