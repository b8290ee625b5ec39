# Test tiers (see FAULTS.md §7).
#
#   make test       - tier 1: the fast default suite (chaos tests excluded
#                     via the `-m 'not chaos'` addopts in pyproject.toml)
#   make bench-test - the benchmark recorder's own tests (bench/): they
#                     patch Engine.park/run/spawn from outside, so they
#                     are the cheapest early warning that an engine
#                     change broke host-time attribution
#   make bench-smoke - the BENCHMARK.json command on table1-np32 and
#                     kernel-bulk at a CI-sized 6 s with one traced rep;
#                     that form exits 0 even when an output check fails,
#                     so the result line is held to correct / failed == 0
#   make bench-pairs PARENT=<checkout> W=<workload> SEEDS=101..110
#                   - ten alternating parent/change runs of the
#                     BENCHMARK.json command (tools/bench_pairs.py):
#                     per-pair values, medians, quartiles, wins and
#                     failures of every end-to-end metric — what a
#                     performance claim is made from (~8 min a workload)
#   make cohort-census W=<workload>
#                   - where the gapped cohort's rows are on one
#                     bench/workloads.py workload (tools/cohort_census.py):
#                     per band, cohort calls / halves / clipped / rows /
#                     seconds; rows are a pure function of the seed, and
#                     CI gates table1-np32 on them (--rows-at-most)
#   make park-census W=<workload>
#                   - what the simulator's message path does on one
#                     bench/workloads.py workload (tools/park_census.py):
#                     parks and baton hand-offs by parker label, messages
#                     by tag and pull-RPC kind, payload_nbytes entries per
#                     message, hand-offs x measured lock ping-pong next to
#                     the host seconds, and the requests group sub-masters
#                     held (long-polled) with how each hold ended; all
#                     counts are pure functions of the seed and CI gates
#                     ft-hier-kill and service-groupkill on them.
#                     `python tools/park_census.py --poll-bench` is the
#                     layer's micro-benchmark (us and calls per message)
#   make chaos      - tier 2: randomized fault-injection sweeps over fixed
#                     seeds (slower; exercises FaultPlan.random + the
#                     exhaustive kill-subset enumeration)
#   make docs-check - fail when a user-facing doc cites a path, a
#                     BENCH_*.json, a make target or a `python -m repro`
#                     subcommand that does not exist (tools/docs_check.py)
#   make report     - assemble archived benchmark tables
#   make bench-json - run the table1/fig3a/np128..1024/flat-vs-hier/service
#                     sweep plus the kernel scenarios with tracing on and
#                     write BENCH_pr10.json (slow; see OBSERVABILITY.md §6,
#                     PERFORMANCE.md)
#   make perf-smoke - CI-sized wall-clock gate: quick bench under a hard
#                     host-time budget, then diff against the committed
#                     quick baseline (BENCH_pr10_quick.json): virtual
#                     keys must match exactly (--threshold 0; they are
#                     deterministic); host keys are not compared
#                     (bench/ owns host time)
#   make service-smoke - online-service smoke: Poisson arrivals at
#                     np=16 under a wall-clock budget, latency table +
#                     byte-identity against the serial oracle
#   make hier-smoke - two-level driver smoke: np=64 in 4 replication
#                     groups with a sub-master kill, byte-identity
#                     against the serial oracle under a wall-clock budget
#   make hier-service-smoke - elastic service smoke: np=32 in 4 groups
#                     serving a Poisson stream with a whole group killed
#                     mid-run, byte-identity against the serial oracle
#                     under a wall-clock budget

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench-test bench-smoke bench-pairs cohort-census park-census chaos docs-check report bench-json perf-smoke \
	service-smoke hier-smoke hier-service-smoke

test:
	$(PYTHON) -m pytest -x -q

bench-test:
	$(PYTHON) -m pytest bench -q

bench-smoke:
	for w in table1-np32 kernel-bulk; do \
		$(PYTHON) bench/run.py --workload $$w --seed 1 --seconds 6 --trace 1 \
		| tail -n 1 | $(PYTHON) -c "import json, sys; r = json.load(sys.stdin); \
		sys.exit(not (r['correct'] is True and r['failed'] == 0))" \
		|| exit 1; \
	done

W ?= kernel-bulk
SEEDS ?= 101..110
bench-pairs:
	$(PYTHON) tools/bench_pairs.py --parent $(PARENT) --workload $(W) \
		--seeds $(SEEDS)

cohort-census:
	$(PYTHON) tools/cohort_census.py --workload $(W)

park-census:
	$(PYTHON) tools/park_census.py --workload $(W)

chaos:
	$(PYTHON) -m pytest -m chaos -q

docs-check:
	$(PYTHON) tools/docs_check.py

report:
	$(PYTHON) -m repro report

bench-json:
	$(PYTHON) -m repro.obs.bench --out BENCH_pr10.json
	$(PYTHON) -m repro.obs.bench --quick --out BENCH_pr10_quick.json

perf-smoke:
	$(PYTHON) -m repro.obs.bench --quick --host-budget 120 \
		--out /tmp/perf_smoke.json
	$(PYTHON) -m repro.obs.compare BENCH_pr10_quick.json \
		/tmp/perf_smoke.json --threshold 0 --host-threshold inf

service-smoke:
	$(PYTHON) -m repro service --nprocs 16 --rate 0.2 --max-wave 4 \
		--verify-oracle --host-budget 60

hier-smoke:
	$(PYTHON) -m repro hier --nprocs 64 --groups 4 \
		--faults 'crash=submaster:g2@40' --verify-oracle --host-budget 90

hier-service-smoke:
	$(PYTHON) -m repro hier-service --nprocs 32 --groups 4 \
		--faults 'crash=group:g1@40' --verify-oracle --host-budget 90
