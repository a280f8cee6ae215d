# Developer / CI entry points.  `make check` is the gate: tier-1 tests
# plus a smoke pass through the CLI (a parallel sweep, and `repro run`
# flag overrides on a catalog entry and on a scenario file), the trace oracle
# over the full scenario catalog, and the frozen host-time benchmark's
# view of src/ at a tenth of its scale, and the behavioural differential
# of the tree against itself (two runs, two hash seeds).

PYTHON ?= python
PYTHONPATH := src
export PYTHONPATH

.PHONY: check test smoke catalog-check report-smoke fuzz-smoke search-smoke perf-smoke perf-gates perf-compare perf-pairs profile differential differential-smoke bench bench-smoke bench-scaling bench-soak soak-smoke pipelining-smoke large-n-smoke claims clean

check: test smoke catalog-check report-smoke search-smoke perf-smoke differential-smoke
	@echo "check: OK"

test:
	$(PYTHON) -m pytest -x -q

smoke:
	$(PYTHON) -m repro.cli list-scenarios
	$(PYTHON) -m repro.cli sweep honest --grid n=4,5 --seeds 2 --jobs 2 --out /tmp/repro-smoke.json
	$(PYTHON) -m repro.cli run honest -n 5 --rounds 2 --check
	$(PYTHON) -m repro.cli run lossy-honest -n 5 --protocol pbft --check > /tmp/repro-smoke-run.txt
	grep -q "protocol *| pbft" /tmp/repro-smoke-run.txt
	$(PYTHON) -c 'import json; from repro import get_scenario; json.dump(get_scenario("crash-leader").to_dict(), open("/tmp/repro-smoke-scenario.json", "w"))'
	$(PYTHON) -m repro.cli run /tmp/repro-smoke-scenario.json --rounds 1 --check > /tmp/repro-smoke-run.txt
	grep -q "final blocks *| 1" /tmp/repro-smoke-run.txt

# Every catalog entry through the trace oracle (exit 1 on violation).
catalog-check:
	$(PYTHON) -m repro.cli check-catalog

# Results-warehouse smoke: ingest a fresh sweep's JSON into one SQLite
# file, prove re-ingest is a no-op (0 new rows), and run the campaign
# triage report over the stored runs.
report-smoke:
	rm -f /tmp/repro-warehouse.sqlite
	$(PYTHON) -m repro.cli sweep honest --grid n=4 --seeds 2 --out /tmp/repro-report-sweep.json
	$(PYTHON) -m repro.cli ingest /tmp/repro-report-sweep.json --db /tmp/repro-warehouse.sqlite
	$(PYTHON) -m repro.cli ingest /tmp/repro-report-sweep.json --db /tmp/repro-warehouse.sqlite \
		| grep -q "| 0 *$$"
	$(PYTHON) -m repro.cli report campaign --db /tmp/repro-warehouse.sqlite

# Bounded-budget fuzzer gate: the seeded property tests (marker
# `fuzz`) plus a CLI fuzz pass with a deliberately injected violation
# proving the oracle -> shrinker -> repro-JSON pipeline end to end
# (exit 2 = violations found, which for the injected run is success).
fuzz-smoke:
	$(PYTHON) -m pytest -q -m fuzz
	$(PYTHON) -m repro.cli fuzz --budget 40 --seed 0 --jobs 2 \
		--artifacts /tmp/repro-fuzz-artifacts --out /tmp/repro-fuzz.json
	$(PYTHON) -m repro.cli fuzz --budget 5 --seed 0 --inject-violation \
		--artifacts /tmp/repro-fuzz-artifacts; test $$? -eq 2
	test -f /tmp/repro-fuzz-artifacts/fuzz-0-injected.json
	$(PYTHON) -m repro.cli run /tmp/repro-fuzz-artifacts/fuzz-0-injected.json \
		| grep -q "trace oracle: VIOLATED"

# Adversary-search gate: the seeded search property tests (marker
# `search`) plus two bounded best-response sweeps.  pRFT and TRAP at
# n=4 must hold the equilibrium for every rational type (exit 0),
# while the unincentivised pBFT baseline must surface the Table 2
# fork coalition (exit 2 = profitable deviation found, which for the
# baseline is success).  The exported repro is oracle-checked by the
# search command itself and must replay through `repro run`.
search-smoke:
	$(PYTHON) -m pytest -q -m search
	$(PYTHON) -m repro.cli search equilibrium --protocol prft --protocol trap \
		-n 4 --jobs 2 --artifacts /tmp/repro-search-artifacts
	$(PYTHON) -m repro.cli search equilibrium --protocol pbft --theta 1 \
		--jobs 2 --artifacts /tmp/repro-search-artifacts \
		--out /tmp/repro-search.json; test $$? -eq 2
	test -f /tmp/repro-search-artifacts/deviation-pbft-th1.json
	$(PYTHON) -m repro.cli run /tmp/repro-search-artifacts/deviation-pbft-th1.json

# The frozen benchmark (perf/, BENCHMARK.json) wraps named attributes
# of src/ classes from outside and checks every run's outputs.  Its own
# tests plus all four workloads at a tenth of the scale (~30 s) exit 1
# on any correctness gate or on a wrap-list AttributeError, so a
# refactor that breaks the benchmark's view of src/ fails here, not in
# the benchmark pipeline.  The timings it prints are not gated.
perf-smoke:
	$(PYTHON) -m pytest perf -q
	$(PYTHON) perf/run.py --scale 0.1 --repeats 3

# The benchmark's own correctness gates at full scale, seed by seed:
# `perf/run.py --seed S --repeats 1` runs every workload once untraced
# and once traced and exits 1 if a child crashes (a name perf/layers.py
# wraps is gone), an oracle, agreement or cell-count check fails, or
# record_sha256 / ops / events / msgs differ between the two repeats.
# perf-smoke's tenth of the scale covers one catalog seed and a tenth
# of pBFT's run; this covers what the benchmark itself runs.  Stops at
# the first seed that fails.  ~25 s per seed on 2 vCPUs.
SEEDS ?= 0 1 2
perf-gates:
	@set -e; for seed in $(SEEDS); do \
		echo "perf-gates: seed $$seed"; \
		$(PYTHON) perf/run.py --seed $$seed --repeats 1 >/dev/null; \
	done; echo "perf-gates: seeds $(SEEDS) OK"

# Both before/after gates below need BASE's files next to the working
# tree.  `git archive | tar` only reads the repository — no worktree is
# registered, so it also runs where `git worktree` is refused — and
# perf/run.py and tools/differential.py cope with a tree that is not a
# repository.  Leaves $$tmp (removed on exit) and $$base set.
define extract_base
tmp=$$(mktemp -d); base=$$tmp/base; trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$base"; git archive "$(BASE)" | tar -x -C "$$base"
endef

# Host-time before/after: `make perf-compare BASE=<rev>` extracts BASE
# into a temporary directory and runs the frozen benchmark on it and
# on the working tree — same seed, one workload at a time, the two
# trees taking turns at going first so a slow minute of the host does
# not land on one side — then prints perf/compare.py's verdict per
# workload.  One alternation can read a noisy metric `worse` on an
# unchanged path, so a workload it reads `worse` goes on to
# tools/perf_pairs.py (10 pairs, same seed), and the `worse` fails only
# if the change's median there is worse by more than the metric's
# BENCHMARK.json bound.  Exits 1 on a confirmed `worse`, a changed
# record_sha256 or more failed operations.  ~4 min (plus ~1 min per
# workload to confirm); PERF_SEED picks the seed, and
# WORKLOAD="name ..." narrows the run to the named BENCHMARK.json
# workloads (~1 min each) for iterating on one hot path.
PERF_SEED ?= 0
WORKLOAD ?=
perf_compare_usage = usage: make perf-compare BASE=<rev> [WORKLOAD="<BENCHMARK.json workload> ..."] [PERF_SEED=0]
perf-compare:
	@test -n "$(BASE)" || { echo '$(perf_compare_usage)'; exit 2; }
	@set -e; workloads=$$($(PYTHON) -c 'import json, sys; known = [w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]]; want = sys.argv[1:] or known; unknown = [w for w in want if w not in known]; sys.exit("perf-compare: unknown workload(s) %s; choose from %s" % (unknown, known)) if unknown else print(*want)' $(WORKLOAD)) \
		|| { echo '$(perf_compare_usage)'; exit 2; }; \
	$(extract_base); status=0; order="base change"; \
	for workload in $$workloads; do \
		for side in $$order; do \
			if [ $$side = base ]; then tree=$$base; else tree=$(CURDIR); fi; \
			echo "perf-compare: $$workload, $$side ($$tree)"; \
			(cd "$$tree" && $(PYTHON) perf/run.py --workload $$workload --seed $(PERF_SEED) \
				--out "$$tmp/$$side-$$workload.json" >/dev/null); \
		done; \
		verdict=$$tmp/verdict-$$workload.txt; \
		$(PYTHON) perf/compare.py "$$tmp/base-$$workload.json" "$$tmp/change-$$workload.json" \
			> "$$verdict" && compared=0 || compared=$$?; \
		cat "$$verdict"; \
		if grep '^FAIL: ' "$$verdict" | grep -qv ' worse by '; then status=1; \
		elif grep -q '^FAIL: .* worse by ' "$$verdict"; then \
			echo "perf-compare: $$workload reads worse; confirming over 10 pairs"; \
			$(PYTHON) tools/perf_pairs.py "$$base" "$(CURDIR)" $$workload --pairs 10 \
				--seed $(PERF_SEED) || status=1; \
		elif [ $$compared -ne 0 ]; then status=1; fi; \
		order=$$(echo $$order | awk '{print $$2, $$1}'); \
	done; exit $$status

# A claimed gain, shown pair by pair: `make perf-pairs BASE=<rev>
# WORKLOAD=<w> [N=10] [PERF_SEED=0]` extracts BASE as perf-compare does
# and runs tools/perf_pairs.py: N perf/child.py pairs per named
# workload, alternating which tree goes first, then per end-to-end
# metric each side's median and quartiles, BASE's IQR and CHANGE's
# wins out of N, and whether CHANGE's median is worse than BASE's by
# more than the metric's bound.  Exit 1 on such a loss, if a child fails
# or if one side's record_sha256 varies.  perf-compare's single
# alternation can flip its verdict on a noisy metric; this is the test
# a claim has to pass, and the one that confirms a loss.  ~1 min per
# workload at N=10 (catalog-sweep longer).
perf-pairs: N = 10
perf-pairs:
	@test -n "$(BASE)" -a -n "$(WORKLOAD)" || { echo 'usage: make perf-pairs BASE=<rev> WORKLOAD="<BENCHMARK.json workload> ..." [N=10] [PERF_SEED=0]'; exit 2; }
	@set -e; $(extract_base); \
	$(PYTHON) tools/perf_pairs.py "$$base" "$(CURDIR)" $(WORKLOAD) --pairs $(N) --seed $(PERF_SEED)

# Where a workload's host time goes: `make profile WORKLOAD=<name>`
# prints one BENCHMARK.json workload's top self-time rows under cProfile,
# the same table for one `post` call (oracle, record, hash) on that run,
# that run's retained trace records and column bytes per record,
# then the cycle collector's passes and the seconds inside them per
# generation from a second, unprofiled run, and the tracked objects
# alive at its end with their six most common types, then the objects a
# third run leaves for the collector once its result is dropped.
# Candidates for the next hot-path change, never a number to claim —
# that is perf-compare's.
profile:
	@test -n "$(WORKLOAD)" || { echo 'usage: make profile WORKLOAD=<BENCHMARK.json workload> [PERF_SEED=0]'; exit 2; }
	$(PYTHON) tools/profile_workload.py $(WORKLOAD) --seed $(PERF_SEED)

# Behaviour before/after: `make differential BASE=<rev> [N=200]` extracts
# BASE into a temporary directory (as perf-compare does) and runs
# tools/differential.py on it and on the working tree under
# PYTHONHASHSEED=0: every catalog scenario, every pin_matrix shape x 5
# protocols, the attacked-run set and N generated fuzz trials, comparing
# canonical record, full trace, per-replica chains and proofs, and
# per-message-type counts/bytes.  Each tree then runs again under
# PYTHONHASHSEED=1 and is compared with itself.  Exits 1 after listing
# every differing (cell, section) pair, or if the working tree disagrees
# with itself across hash seeds (BASE doing so is only reported).  A
# refactor PR runs it against its parent; ~20 s at N=200.
N ?= 200
differential:
	@test -n "$(BASE)" || { echo "usage: make differential BASE=<rev> [N=200]"; exit 2; }
	@set -e; $(extract_base); \
	$(PYTHON) tools/differential.py "$$base" "$(CURDIR)" --fuzz $(N)

# The tree against itself (no BASE, so it also runs on a tarball of
# the sources): keeps the tool from rotting and proves that one tree run
# twice, and under two hash seeds, is identical in every compared
# section, so a set/dict-order leak into behaviour fails `make check`.
differential-smoke:
	$(PYTHON) tools/differential.py "$(CURDIR)" "$(CURDIR)" --fuzz 5

# Every paper claim (benchmarks/claims.py, one CLAIMS row per theorem,
# claim, table and figure) evaluated by its tier-1 test, each row's
# paper-shaped table printed.
claims:
	$(PYTHON) -m pytest tests/test_claims.py -q -s

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# One untimed pass over every bench_*.py study.  REPRO_BENCH_SMOKE
# shrinks the size knobs and relaxes the wall-clock assertions of the
# studies that expose them; only their correctness assertions fail it.
# Each study prints its table (-s), so CI's bench-smoke job log shows
# the numbers; nothing is written.
bench-smoke:
	REPRO_BENCH_SMOKE=1 REPRO_BENCH_NO_SPEEDUP_ASSERT=1 \
		$(PYTHON) -m pytest benchmarks/ --ignore=benchmarks/bench_soak.py \
		--benchmark-disable -q -s

bench-scaling:
	$(PYTHON) -m pytest benchmarks/bench_sweep_scaling.py --benchmark-only -s

# Bounded-memory soak (E20): one million Poisson submissions per
# protocol through a single retention-enabled Deployment over a
# two-region RegionalDelay matrix, gated on a tracemalloc heap peak
# that must stay sub-linear in the event count.  Prints its table;
# nothing is written.
bench-soak:
	$(PYTHON) -m pytest benchmarks/bench_soak.py --benchmark-only -s

# The soak gates at a tenth the scale (10^5 tx per protocol), untimed,
# table printed; run by CI's bench-smoke job.  Excluded from the
# bench-smoke glob above so CI never pays for it twice.
soak-smoke:
	REPRO_BENCH_SMOKE=1 \
		$(PYTHON) -m pytest benchmarks/bench_soak.py --benchmark-disable -q -s

# One depth-2 pipelined run per protocol through the real CLI with the
# trace oracle checking every invariant (exit 1 on violation).  The
# differential suite (tests/test_pipelining.py) covers the semantics;
# this drives the end-to-end CLI path CI runs.
pipelining-smoke:
	$(PYTHON) -m repro.cli run honest --protocol prft -n 16 --rounds 2 --pipeline-depth 2 --block-txs 16 --check
	$(PYTHON) -m repro.cli run honest --protocol pbft -n 16 --rounds 2 --pipeline-depth 2 --block-txs 16 --check
	$(PYTHON) -m repro.cli run honest --protocol hotstuff -n 16 --rounds 2 --pipeline-depth 2 --block-txs 16 --check
	$(PYTHON) -m repro.cli run honest --protocol polygraph -n 16 --rounds 2 --pipeline-depth 2 --block-txs 16 --check
	$(PYTHON) -m repro.cli run honest --protocol trap -n 16 --rounds 2 --pipeline-depth 2 --block-txs 16 --check

# One n=64 run per protocol through the real CLI with aggregate
# certificates on the wire and the trace oracle checking every
# invariant (exit 1 on violation), then one pRFT run at
# Scenario.MAX_N = 256 (~8 s) so the committee-size ceiling stays
# exercised.  The tier-1 suite keeps a faster in-process n=64 smoke;
# this drives the end-to-end path CI runs.
large-n-smoke:
	$(PYTHON) -m repro.cli run honest --protocol prft -n 64 --rounds 1 --aggregate-certs --check
	$(PYTHON) -m repro.cli run honest --protocol pbft -n 64 --rounds 1 --aggregate-certs --check
	$(PYTHON) -m repro.cli run honest --protocol hotstuff -n 64 --rounds 1 --aggregate-certs --check
	$(PYTHON) -m repro.cli run honest --protocol polygraph -n 64 --rounds 1 --aggregate-certs --check
	$(PYTHON) -m repro.cli run honest --protocol trap -n 64 --rounds 1 --aggregate-certs --check
	$(PYTHON) -m repro.cli run honest --protocol prft -n 256 --rounds 1 --aggregate-certs --check

clean:
	rm -rf .pytest_cache .benchmarks
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
