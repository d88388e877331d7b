GO ?= go

.PHONY: all build test race vet fmt bench-smoke golden server-smoke modelcheck fuzz-smoke determinism artifacts artifacts-check compaction benchmark-check ci

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

# Server smoke: boot bandslim-server on a loopback port, drive
# PING/SET/GET/DEL/INFO through a real client connection, and require a
# clean drain — the end-to-end check on the RESP front-end. Runs with the
# serving cache profile so the tiered read path is exercised end to end.
server-smoke:
	$(GO) run ./cmd/bandslim-server -smoke -quiet -trace 65536 -cache serving -pprof 127.0.0.1:0

# Model-based differential harness + crash-consistency sweep: 1000+ seeded
# op sequences against an in-memory reference model, with and without fault
# plans, plus a power cut at every command boundary of a fixed workload.
# TestModelCheckScenarios* pump every YCSB scenario (and the mixed stream)
# through the same model; TestChaosUnderLoad cuts power inside live scenario
# runs and re-proves determinism.
modelcheck:
	$(GO) test -run 'TestModelCheck|TestCrashSweep|TestFaultRaceSharded|TestChaosUnderLoad' -count=1 -timeout 600s .

# Determinism of the CLI-only chains. (Every experiment's own two-run diff is
# the tier-1 test TestEveryExperimentRunsAndRepeats in internal/bench.)
# (1) a captured trace analyzed twice must produce byte-identical attribution
# CSV; (2) recording a scenario twice must produce byte-identical trace files;
# (3) a recorded trace replayed against a fresh stack must produce a
# byte-identical Prometheus exposition to the live run — the replay-fidelity
# acceptance check; (4) `trace stat` must parse what `record` wrote.
determinism:
	rm -rf .determinism && mkdir .determinism
	$(GO) run ./cmd/bandslim-bench -trace-jsonl .determinism/trace.jsonl -shards 2 -scale 1000 -seed 42
	$(GO) run ./cmd/bandslim-cli analyze -csv .determinism/blame1.csv -top 0 .determinism/trace.jsonl > /dev/null
	$(GO) run ./cmd/bandslim-cli analyze -csv .determinism/blame2.csv -top 0 .determinism/trace.jsonl > /dev/null
	diff -u .determinism/blame1.csv .determinism/blame2.csv
	$(GO) run ./cmd/bandslim-cli trace record -scenario mixed -records 300 -ops 1000 -seed 42 -o .determinism/run1.trace -metrics-out .determinism/live.prom > /dev/null
	$(GO) run ./cmd/bandslim-cli trace record -scenario mixed -records 300 -ops 1000 -seed 42 -o .determinism/run2.trace > /dev/null
	diff -u .determinism/run1.trace .determinism/run2.trace
	$(GO) run ./cmd/bandslim-cli trace replay -metrics-out .determinism/replay.prom .determinism/run1.trace > /dev/null
	diff -u .determinism/live.prom .determinism/replay.prom
	$(GO) run ./cmd/bandslim-cli trace stat .determinism/run1.trace > /dev/null
	rm -rf .determinism

# Short fixed-budget fuzz pass over the fault-plan parser, the SSTable page
# cursor, the RESP command parser, the workload-trace parser, and the NAND
# page store's round trip, seeded from the committed testdata corpora and the
# targets' own seeds.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzParsePlan -fuzztime=5s ./internal/fault
	$(GO) test -run=NONE -fuzz=FuzzDecodePage -fuzztime=5s ./internal/lsm
	$(GO) test -run=NONE -fuzz=FuzzRESPParse -fuzztime=5s ./internal/resp
	$(GO) test -run=NONE -fuzz=FuzzTraceParse -fuzztime=5s ./internal/workload
	$(GO) test -run=NONE -fuzz=FuzzPageRoundTrip -fuzztime=5s ./internal/nand

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
# be byte-identical to its committed copy. The determinism gates only diff run
# against run; this one catches a committed artifact going stale. The blame
# and cache sweeps also hard-fail on their own invariants (zero attribution
# residual; hot-read p99 at least 3x better than cache-off).
artifacts-check:
	rm -rf .artifacts
	$(call artifacts,.artifacts)
	for f in .artifacts/*; do diff -u results/$${f##*/} $$f || exit 1; done
	rm -rf .artifacts

# The index write path as a design space (ROADMAP item 1(b)): key order x L0
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

ci: fmt build vet test race bench-smoke server-smoke modelcheck determinism artifacts-check benchmark-check fuzz-smoke
