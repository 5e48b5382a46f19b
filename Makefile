# Convenience targets; everything is plain `go` underneath.

FUZZTIME ?= 10s

.PHONY: all check ci fmt-check build test hlbench-check bench bench-json bench-compare profile repro vet lint cover fuzz soak soak-cluster soak-jobs soak-all vulncheck clean

all: check

# check is the default verification entry point: vet, build, and the
# full test suite under the race detector.
check:
	go vet ./...
	go build ./...
	go test -race ./...

# ci mirrors the required job of .github/workflows/ci.yml exactly, so
# "make ci" locally reproduces what the pipeline gates on.
ci: fmt-check vet build hlbench-check
	go test -race ./...

# fmt-check fails (and lists the offenders) if any file needs gofmt.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

build:
	go build ./...

# vet also checks the arm64 build, which takes the portable Go lane
# kernel instead of the amd64 assembly, so that path cannot rot; on
# amd64, vet's asmdecl pass checks the assembly's frames.
vet:
	go vet ./...
	GOARCH=arm64 go vet ./...

# lint runs staticcheck at a pinned release so local runs and the
# blocking CI lint job agree on the rule set (config in
# staticcheck.conf). The tool is fetched on demand; it is not a module
# dependency.
lint:
	go run honnef.co/go/tools/cmd/staticcheck@2025.1.1 ./...

test:
	go test ./...

# hlbench-check vets and tests the benchmark (cmd/hlbench). It is a
# module of its own, so the root `go vet ./...` and `go test ./...`
# never see it, yet it compiles against the sim, macromodel and service
# APIs: an API change that breaks it must fail here.
hlbench-check:
	cd cmd/hlbench && go vet ./... && go test ./...

bench:
	go test -bench=. -benchmem ./...

# bench-json records the serial-vs-parallel benchmark snapshot as
# BENCH_<date>.json (see cmd/benchjson); CI runs it non-blocking.
bench-json:
	go run ./cmd/benchjson -short

# bench-compare measures a fresh candidate snapshot and diffs it
# against the newest checked-in BENCH_*.json (see cmd/benchcompare).
# It runs the full workload so the candidate matches the committed
# snapshot's shape: with equal shapes, allocs_per_op increases >10%
# (or any increase from zero) fail the target (allocations are
# deterministic); timing deltas stay advisory because shared-runner
# timings are too noisy for a hard gate.
BENCH_NEW ?= /tmp/hlpower_bench_new.json
bench-compare:
	go run ./cmd/benchjson -out $(BENCH_NEW)
	go run ./cmd/benchcompare -new $(BENCH_NEW)

# profile captures CPU and allocation profiles of the packed-kernel
# serving workload (the fused compiled tier over pooled scratch) for
# pprof inspection:
#   go tool pprof /tmp/hlpower_cpu.pprof
#   go tool pprof -sample_index=alloc_objects /tmp/hlpower_mem.pprof
profile:
	go test -run '^$$' -bench '^BenchmarkPackedKernelWorkload$$' -benchmem \
		-cpuprofile /tmp/hlpower_cpu.pprof -memprofile /tmp/hlpower_mem.pprof \
		./internal/sim/

repro:
	go run ./cmd/repro -j 8

cover:
	go test -cover ./internal/... ./cmd/... .

# fuzz gives each bus round-trip fuzz target, the memo canonical-key
# target, the batch decode/partition target, the job-engine wire
# target (optimize request + checkpoint snapshot), the job
# cache-equivalence target (a job's status must not depend on the memo
# cache, last_error included), the kernel
# equivalence targets (compiled and one-shot fused runs vs the serial
# engine, codegen vs fused, the
# event-driven timing wheel vs its map-scheduled reference, lean
# unit-delay runs vs the timing wheel, and the words of
# (*sim.Compiled).Outputs, on artifacts compiled under Options{} and
# under recipe.Score's circuit and controller options, vs RunBudget's
# output rows, bit-identity including budget exhaustion), the
# lane-kernel target (every addLanes implementation
# the host runs vs the kernel's definition), the predict equivalence
# target (the served predict path vs the one-shot, interpreted
# reference), the HTTP item-pipeline target (raw bodies
# through a single endpoint and a one-item batch must land in the same
# outcome class with identical payloads), the HTTP memo-equivalence
# target (a sequence of single requests must answer alike on memo-on
# and memo-off servers), and the gossip target (raw
# gossip bodies never change ring membership) a budget of FUZZTIME
# (override with e.g. `make fuzz FUZZTIME=5s` for CI smoke runs).
fuzz:
	for f in FuzzBusInvertRoundTrip FuzzT0RoundTrip FuzzGrayRoundTrip \
	         FuzzT0BIRoundTrip FuzzWorkingZoneRoundTrip FuzzBeachRoundTrip; do \
		go test -run "^$$f$$" -fuzz "^$$f$$" -fuzztime $(FUZZTIME) ./internal/bus/ || exit 1; \
	done
	go test -run '^FuzzCanonicalKey$$' -fuzz '^FuzzCanonicalKey$$' -fuzztime $(FUZZTIME) ./internal/memo/
	go test -run '^FuzzBatchRequest$$' -fuzz '^FuzzBatchRequest$$' -fuzztime $(FUZZTIME) ./internal/service/
	go test -run '^FuzzRecipeWire$$' -fuzz '^FuzzRecipeWire$$' -fuzztime $(FUZZTIME) ./internal/jobs/
	go test -run '^FuzzJobCacheEquivalence$$' -fuzz '^FuzzJobCacheEquivalence$$' -fuzztime $(FUZZTIME) ./internal/jobs/
	go test -run '^FuzzFusedEquivalence$$' -fuzz '^FuzzFusedEquivalence$$' -fuzztime $(FUZZTIME) ./internal/sim/
	go test -run '^FuzzPackedEquivalence$$' -fuzz '^FuzzPackedEquivalence$$' -fuzztime $(FUZZTIME) ./internal/sim/
	go test -run '^FuzzCodegenEquivalence$$' -fuzz '^FuzzCodegenEquivalence$$' -fuzztime $(FUZZTIME) ./internal/sim/
	go test -run '^FuzzEventDrivenEquivalence$$' -fuzz '^FuzzEventDrivenEquivalence$$' -fuzztime $(FUZZTIME) ./internal/sim/
	go test -run '^FuzzUnitDelayEquivalence$$' -fuzz '^FuzzUnitDelayEquivalence$$' -fuzztime $(FUZZTIME) ./internal/sim/
	go test -run '^FuzzOutputsEquivalence$$' -fuzz '^FuzzOutputsEquivalence$$' -fuzztime $(FUZZTIME) ./internal/sim/
	go test -run '^FuzzAddLanes$$' -fuzz '^FuzzAddLanes$$' -fuzztime $(FUZZTIME) ./internal/sim/
	go test -run '^FuzzPredictEquivalence$$' -fuzz '^FuzzPredictEquivalence$$' -fuzztime $(FUZZTIME) ./internal/macromodel/
	go test -run '^FuzzServeItem$$' -fuzz '^FuzzServeItem$$' -fuzztime $(FUZZTIME) ./internal/powerd/
	go test -run '^FuzzMemoEquivalence$$' -fuzz '^FuzzMemoEquivalence$$' -fuzztime $(FUZZTIME) ./internal/powerd/
	go test -run '^FuzzGossipHandler$$' -fuzz '^FuzzGossipHandler$$' -fuzztime $(FUZZTIME) ./internal/cluster/

# soak runs the powerd chaos harness under the race detector: >= 1000
# requests with fault injection in the sim/rank/bdd paths, asserting
# typed 503s under the plan and 200s once it clears, 429 shedding, and
# leak-free drain. SOAKCOUNT repeats it (override with e.g.
# `make soak SOAKCOUNT=10`).
SOAKCOUNT ?= 1
soak:
	go test -race -run TestChaosSoak -count=$(SOAKCOUNT) -v ./internal/powerd/

# soak-cluster runs the multi-node chaos harness under the race
# detector: a 4-node in-process powerd ring under partitions, a node
# kill, an injected slow peer, and clock-skewed gossip, asserting no
# lost requests, ring-wide request collapsing, bit-identical results
# vs a single-node reference, and leak-free drain.
soak-cluster:
	go test -race -run TestClusterChaosSoak -count=$(SOAKCOUNT) -v ./internal/powerd/

# soak-jobs runs the durable-job-engine chaos harness under the race
# detector: 100 optimization jobs under deterministic fault injection
# with a mid-fleet drain + restart over a shared checkpoint store,
# asserting zero lost/duplicated jobs, bit-identical resume vs an
# uninterrupted reference fleet, and leak-free drain.
soak-jobs:
	go test -race -run TestJobsSoak -count=$(SOAKCOUNT) -v ./internal/jobs/

# soak-all runs every soak harness back to back.
soak-all: soak soak-cluster soak-jobs

# vulncheck scans the module against the Go vulnerability database.
# The tool is pinned (and fetched on demand — it is not a module
# dependency) so a govulncheck release cannot silently change what CI
# runs; the CI job is non-blocking: findings are advisory.
vulncheck:
	go run golang.org/x/vuln/cmd/govulncheck@v1.1.4 ./...

clean:
	go clean ./...
	rm -f $(BENCH_NEW)
