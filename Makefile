GO ?= go

.PHONY: all build test race vet fmt bench bench-shards bench-server bench-smoke smoke golden server-smoke modelcheck fuzz-smoke qd qd-smoke blame blame-smoke cache cache-smoke ycsb ycsb-smoke artifacts-check benchmark-check ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l .

# Hot-path benchmarks: the testing.B micro suite with allocation counts
# (benchstat-comparable; committed as results/bench_micro.txt) plus the
# fixed-iteration before/after harness (results/BENCH_hotpath.json).
bench:
	$(GO) test -run=NONE -bench=. -benchmem -count=1 . | tee results/bench_micro.txt
	$(GO) run ./cmd/bandslim-bench -experiment hotpath -scale 40000 -seed 42 -json results

# Regenerate the shard-scaling results artifact.
bench-shards:
	$(GO) run ./cmd/bandslim-bench -experiment shards -scale 20000 -json results

# Regenerate the RESP serving loadgen artifact: conns × pipeline-depth
# sweep over loopback (results/BENCH_server.json).
bench-server:
	$(GO) run ./cmd/bandslim-bench -experiment server -scale 20000 -seed 42 -json results

# One-iteration pass over every benchmark: catches bit-rot in bench code
# without paying for a measurement run.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x .

# Flags shared by the smoke run and its golden regeneration: the exported
# exposition is deterministic, so any drift is a real behavior change.
SMOKE_FLAGS = -shards 2 -scale 1000 -seed 42 -metrics-interval-us 100

# Bench smoke: run a tiny instrumented workload and verify the Prometheus
# exposition is byte-identical to the committed golden file.
smoke:
	$(GO) run ./cmd/bandslim-bench $(SMOKE_FLAGS) -metrics-out .smoke.prom -series-out .smoke.csv
	diff -u results/golden/bench_smoke.prom .smoke.prom
	rm -f .smoke.prom .smoke.csv

# Regenerate the golden after an intentional metrics change.
golden:
	$(GO) run ./cmd/bandslim-bench $(SMOKE_FLAGS) -metrics-out results/golden/bench_smoke.prom -series-out .smoke.csv
	rm -f .smoke.csv

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

# Regenerate the queue-depth sweep artifact: submission window depth 1→32
# on the 4-shard baseline stack (results/BENCH_qd.json). Every value is
# simulated, so the artifact is deterministic.
qd:
	$(GO) run ./cmd/bandslim-bench -experiment qd -scale 20000 -seed 42 -json results

# QD determinism gate: run the sweep twice at smoke scale and require
# byte-identical JSON — the async window must not leak host scheduling into
# simulated results.
qd-smoke:
	$(GO) run ./cmd/bandslim-bench -experiment qd -scale 1000 -seed 42 -json .qd1
	$(GO) run ./cmd/bandslim-bench -experiment qd -scale 1000 -seed 42 -json .qd2
	diff -u .qd1/BENCH_qd.json .qd2/BENCH_qd.json
	rm -rf .qd1 .qd2

# Regenerate the latency-attribution artifact: stage blame vs submission
# window depth on the 4-shard stack (results/BENCH_blame.json). The sweep
# fails if any op's stages do not sum exactly to its end-to-end latency.
blame:
	$(GO) run ./cmd/bandslim-bench -experiment blame -scale 20000 -seed 42 -json results

# Blame determinism + invariant gate: run the sweep twice at smoke scale and
# require byte-identical JSON, then capture a trace, analyze it twice, and
# require byte-identical attribution CSV.
blame-smoke:
	$(GO) run ./cmd/bandslim-bench -experiment blame -scale 1000 -seed 42 -json .blame1
	$(GO) run ./cmd/bandslim-bench -experiment blame -scale 1000 -seed 42 -json .blame2
	diff -u .blame1/BENCH_blame.json .blame2/BENCH_blame.json
	$(GO) run ./cmd/bandslim-bench -trace-jsonl .blame1/trace.jsonl -shards 2 -scale 1000 -seed 42
	$(GO) run ./cmd/bandslim-cli analyze -csv .blame1/blame.csv -top 0 .blame1/trace.jsonl > /dev/null
	$(GO) run ./cmd/bandslim-cli analyze -csv .blame2/blame.csv -top 0 .blame1/trace.jsonl > /dev/null
	diff -u .blame1/blame.csv .blame2/blame.csv
	rm -rf .blame1 .blame2

# Regenerate the tiered-read-path artifact: device-DRAM cache size × policy
# × Zipfian skew vs the cache-off baseline (results/BENCH_cache.json). The
# sweep hard-fails if the hot-read p99 at the default operating point does
# not improve at least 3x over cache-off.
cache:
	$(GO) run ./cmd/bandslim-bench -experiment cache -scale 20000 -seed 42 -json results

# Cache determinism gate: run the sweep twice at smoke scale and require
# byte-identical JSON — cache state must be driven by the virtual clock and
# seeds alone, never host scheduling.
cache-smoke:
	$(GO) run ./cmd/bandslim-bench -experiment cache -scale 1000 -seed 42 -json .cache1
	$(GO) run ./cmd/bandslim-bench -experiment cache -scale 1000 -seed 42 -json .cache2
	diff -u .cache1/BENCH_cache.json .cache2/BENCH_cache.json
	rm -rf .cache1 .cache2

# Regenerate the YCSB scenario-suite artifact: core workloads A-F with
# time-varying arrivals (diurnal, bursty, jittered) and a mid-run hotspot
# shift (results/BENCH_ycsb.json). Every value is simulated, so the artifact
# is deterministic for a given -scale/-seed.
ycsb:
	$(GO) run ./cmd/bandslim-bench -experiment ycsb -scale 20000 -seed 42 -json results

# YCSB + trace-replay determinism gate: (1) the scenario suite run twice must
# produce byte-identical JSON; (2) a recorded trace replayed against a fresh
# stack must produce a byte-identical Prometheus exposition to the live run —
# the replay-fidelity acceptance check; (3) recording twice must produce
# byte-identical trace files.
ycsb-smoke:
	$(GO) run ./cmd/bandslim-bench -experiment ycsb -scale 1000 -seed 42 -json .ycsb1
	$(GO) run ./cmd/bandslim-bench -experiment ycsb -scale 1000 -seed 42 -json .ycsb2
	diff -u .ycsb1/BENCH_ycsb.json .ycsb2/BENCH_ycsb.json
	$(GO) run ./cmd/bandslim-cli trace record -scenario mixed -records 300 -ops 1000 -seed 42 -o .ycsb1/run.trace -metrics-out .ycsb1/live.prom > /dev/null
	$(GO) run ./cmd/bandslim-cli trace record -scenario mixed -records 300 -ops 1000 -seed 42 -o .ycsb2/run.trace > /dev/null
	diff -u .ycsb1/run.trace .ycsb2/run.trace
	$(GO) run ./cmd/bandslim-cli trace replay -metrics-out .ycsb2/replay.prom .ycsb1/run.trace > /dev/null
	diff -u .ycsb1/live.prom .ycsb2/replay.prom
	$(GO) run ./cmd/bandslim-cli trace stat .ycsb1/run.trace > /dev/null
	rm -rf .ycsb1 .ycsb2

# Short fixed-budget fuzz pass over the fault-plan parser, the journal
# decoder/replayer, the RESP command parser, and the workload-trace parser,
# seeded from the committed testdata corpora.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzParsePlan -fuzztime=5s ./internal/fault
	$(GO) test -run=NONE -fuzz=FuzzJournalReplay -fuzztime=5s ./internal/device
	$(GO) test -run=NONE -fuzz=FuzzRESPParse -fuzztime=5s ./internal/resp
	$(GO) test -run=NONE -fuzz=FuzzTraceParse -fuzztime=5s ./internal/workload

# Artifact gate: regenerate every simulated artifact under results/ — the
# figure, ablation, breakdown, read and scan CSVs plus the qd/blame/cache/ycsb
# JSON — at the committed -scale/-seed into a scratch directory and require
# each file to be byte-identical to its committed copy. The *-smoke gates only
# diff run against run; this one catches a committed artifact going stale.
ARTIFACT_EXPERIMENTS = all ablations breakdown read scan qd blame cache ycsb
artifacts-check:
	rm -rf .artifacts
	for e in $(ARTIFACT_EXPERIMENTS); do \
		$(GO) run ./cmd/bandslim-bench -experiment $$e -scale 20000 -seed 42 -csv .artifacts -json .artifacts > /dev/null || exit 1; \
	done
	for f in .artifacts/*; do diff -u results/$${f##*/} $$f || exit 1; done
	rm -rf .artifacts

# The benchmark/ harness is its own module (tier-1 never builds it) yet
# compiles against this module's packages: vet and test it against the tree.
benchmark-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

ci: build vet test race smoke bench-smoke server-smoke modelcheck qd-smoke blame-smoke cache-smoke ycsb-smoke artifacts-check benchmark-check fuzz-smoke
