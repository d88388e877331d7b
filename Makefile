GO ?= go

.PHONY: all build test race vet fmt bench-smoke golden modelcheck fuzz-smoke determinism artifacts artifacts-check compaction benchmark-check ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Fails, naming the files, when gofmt would change any file.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# One-iteration pass over every benchmark in every package: catches bit-rot
# in bench code without paying for a measurement run.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Flags of the bench smoke run: a tiny instrumented workload through the CLI
# whose Prometheus exposition must be byte-identical to the committed golden.
# The exposition is deterministic, so any drift is a real behavior change. The
# check is the tier-1 TestSmokeMatchesGolden in cmd/bandslim-bench, which reads
# these flags from this line.
SMOKE_FLAGS = -shards 2 -scale 1000 -seed 42 -metrics-interval-us 100

# Regenerate the goldens (exposition and sampled series) after an intentional
# metrics change.
golden:
	$(GO) run ./cmd/bandslim-bench $(SMOKE_FLAGS) -metrics-out results/golden/bench_smoke.prom -series-out results/golden/bench_smoke_series.csv

# Model-based differential harness + crash-consistency sweep: 1000+ seeded
# op sequences against an in-memory reference model, with and without fault
# plans, plus a power cut at every command boundary of a fixed workload.
# TestModelCheckScenarios* pump every YCSB scenario (and the mixed stream)
# through the same model; TestChaosUnderLoad cuts power inside live scenario
# runs and re-proves determinism.
modelcheck:
	$(GO) test -run 'TestModelCheck|TestCrashSweep|TestFaultRaceSharded|TestChaosUnderLoad' -count=1 -timeout 600s .

# The determinism gate: every producer of a simulated artifact (each registry
# experiment, the expositions and series, the trace JSONL, the blame CSV, the
# batch and scenario drives, record against replay, and the CLI's analyze and
# trace subcommands) runs twice in process and must publish byte-identical
# files; record and replay must publish the same files. It is three tier-1
# tests: TestDeterminism (root package and cmd/bandslim-cli, a new producer
# is one more row), TestReplayEquivalence (root) and internal/bench's
# TestEveryExperimentRunsAndRepeats (one subtest per registry ID).
determinism:
	$(GO) test -count=1 -run '^(TestDeterminism|TestReplayEquivalence|TestEveryExperimentRunsAndRepeats)$$' . ./internal/bench ./cmd/bandslim-cli

# Short fixed-budget fuzz pass over the fault-plan parser, the SSTable page
# cursor, the MemTable against a sorted reference, the compaction merge
# against the materialising merge kept beside it, the in-place level edit
# against the split-and-sort kept beside it, the RESP command parser
# alone and in server-style bursts, the workload-trace parser, the NAND page
# store's round trip, the NAND payload slab against exact page copies, a NAND
# program given the page buffer's sector ends against one without them, the
# device value tier against its old map-and-buffers form, the device page tier
# against its old map, and the FTL against its old dense map, seeded from the
# committed testdata corpora and the targets' own seeds. New inputs are not
# minimized (-fuzzminimizetime=0): minimizing spent a slow target's whole
# budget, leaving it to re-run its corpus and fuzz almost nothing. The fuzz
# cache is cleared first, so each count starts from the committed corpora and
# not from whatever earlier runs on this machine left under $GOCACHE/fuzz. A
# target that fails prints its whole output; one that passes prints one line,
# the execs it made in its budget.
FUZZ_SMOKE = ./internal/fault:FuzzParsePlan ./internal/lsm:FuzzDecodePage \
	./internal/lsm:FuzzMemTable ./internal/lsm:FuzzMerge \
	./internal/lsm:FuzzLevelEdit \
	./internal/resp:FuzzRESPParse ./internal/resp:FuzzRESPBurst \
	./internal/workload:FuzzTraceParse ./internal/nand:FuzzPageRoundTrip \
	./internal/nand:FuzzPayloadSlab ./internal/nand:FuzzProgramExtents \
	./internal/cache:FuzzValues \
	./internal/cache:FuzzPages ./internal/ftl:FuzzFTL

fuzz-smoke:
	@$(GO) clean -fuzzcache
	@for t in $(FUZZ_SMOKE); do \
		out=$$($(GO) test -run=NONE -fuzz="^$${t#*:}\$$" -fuzztime=5s -fuzzminimizetime=0 $${t%%:*} 2>&1) || { printf '%s\n' "$$out"; exit 1; }; \
		execs=$$(printf '%s\n' "$$out" | sed -n 's/^fuzz: elapsed: \([^,]*\), execs: \([0-9]*\) .*/\2 execs in \1/p' | tail -n 1); \
		echo "fuzz-smoke: $${t#*:} ($${t%%:*}): $${execs:-no exec count}"; \
	done

# Every simulated artifact under results/ — the figure, ablation, breakdown,
# read and scan CSVs plus BENCH_qd|blame|cache|ycsb.json — comes from this one
# recipe at the committed -scale/-seed. $(call artifacts,dir) writes them
# into dir; all values are simulated, so the bytes are deterministic.
ARTIFACT_EXPERIMENTS = all ablations qd blame cache ycsb
define artifacts
for e in $(ARTIFACT_EXPERIMENTS); do \
	$(GO) run ./cmd/bandslim-bench -experiment $$e -scale 20000 -seed 42 -csv $(1) -json $(1) > /dev/null || exit 1; \
done
endef

# Regenerate the committed artifacts after an intentional model change.
artifacts:
	$(call artifacts,results)

# Artifact gate: regenerate into a scratch directory and require each file to
# be byte-identical to its committed copy. The determinism gate only diffs run
# against run; this one catches a committed artifact going stale. The blame
# and cache sweeps also hard-fail on their own invariants (zero attribution
# residual; hot-read p99 at least 3x better than cache-off).
artifacts-check:
	rm -rf .artifacts
	$(call artifacts,.artifacts)
	for f in .artifacts/*; do diff -u results/$${f##*/} $$f || exit 1; done
	rm -rf .artifacts

# The index write path as a design space (ROADMAP item 12): key order x L0
# trigger x L1 tables x table pages at the paper's 1 M Puts per cell, each row
# beside the closed-form band of internal/lsm/oracle.go. ~2 min and ~0.5 GB;
# run by hand after a change to compaction, not part of artifacts-check or ci.
compaction:
	$(GO) run ./cmd/bandslim-bench -experiment compaction -scale 1000000 -seed 42 -csv results > /dev/null

# The benchmark/ harness is its own module yet compiles against this module's
# packages. The tier-1 TestBenchmarkModuleVets vets it against the tree; this
# target also runs its tests.
benchmark-check:
	cd benchmark && $(GO) test ./...

ci: fmt build vet test race bench-smoke modelcheck determinism artifacts-check benchmark-check fuzz-smoke
