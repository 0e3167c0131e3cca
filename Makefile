# Development entry points. CI runs the same commands, so a green
# `make test bench-gate` locally is a green PR (modulo runner speed —
# see bench-baseline).

GO ?= go

# The exact workload the bench-regression gate compares: keep the
# baseline and the gate on identical arguments or the configurations
# will not match up. The grow, query and index sweeps emit their
# throughput as commits_per_sec, so one gate metric covers every bench.
BENCH_GATE_ARGS := -quick -bench commit,grow,query,index -format json

.PHONY: build test test-race bench bench-check bench-baseline bench-gate cover cover-baseline metrics-smoke fault-sweep repl-smoke fuzz-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

bench:
	$(GO) run ./cmd/ankerbench -quick

# bench-check vets and short-tests the repo's benchmark (benchmark/, a
# nested module compiled against ankerdb/internal/...): `go build ./...`
# at the root does not see it, so an internal signature change that
# breaks it would otherwise first fail in the benchmark pipeline.
bench-check:
	cd benchmark && $(GO) vet . && $(GO) test -short .

# bench-baseline refreshes the committed bench-regression baseline.
# Absolute throughput is machine-dependent: refresh it on the CI runner
# class (or accept that a slower baseline machine weakens the gate and
# a faster one tightens it), then commit bench/baseline.json on main.
bench-baseline:
	$(GO) run ./cmd/ankerbench $(BENCH_GATE_ARGS) > bench/baseline.json

# bench-gate runs the same workload and fails on >25% commit-throughput
# regression against the committed baseline (mean over the writer
# sweep, per shard configuration).
bench-gate:
	$(GO) run ./cmd/ankerbench $(BENCH_GATE_ARGS) > bench-current.json
	$(GO) run ./cmd/benchgate -baseline bench/baseline.json -current bench-current.json

# fault-sweep widens the deterministic crash-recovery battery: the
# seeded fault-schedule matrix (every snapshot strategy × crash point ×
# torn/short/lying-fsync mode) plus the per-operation crash sweeps over
# DropTable and Truncate. Every schedule derives from its seed, so a
# failure log names a (strategy, seed) pair that replays the crash
# byte-for-byte — paste the seed back into the test to debug.
FAULT_SWEEP_SEEDS ?= 25
fault-sweep:
	FAULT_SWEEP_SEEDS=$(FAULT_SWEEP_SEEDS) $(GO) test -run \
	  'TestCrashRecoveryMatrix|TestFsyncLieRecoveryMatrix|TestSeededScheduleReproducible|TestCrashMid' \
	  -v -timeout 30m .

# fuzz-smoke runs every fuzz target for 5 s each (go test takes
# one -fuzz target per invocation): the session request/response codecs,
# the checkpoint/bootstrap table-section decoder, and the replication
# control frames. A failing input lands in testdata/fuzz/ — commit it.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzWireReq$$' -fuzztime 5s .
	$(GO) test -run '^$$' -fuzz '^FuzzWireResp$$' -fuzztime 5s .
	$(GO) test -run '^$$' -fuzz '^FuzzTableSection$$' -fuzztime 5s .
	$(GO) test -run '^$$' -fuzz '^FuzzControlFrames$$' -fuzztime 5s ./internal/repl

# repl-smoke runs the replication end-to-end smoke: a durable serving
# primary plus two WAL-streaming read replicas on loopback ports, a
# seeded write workload with a mid-run index build, then asserts
# bounded replica lag, read equivalence (embedded scans and a remote
# session through a replica), and a clean hang-free shutdown.
repl-smoke:
	$(GO) run ./cmd/replsmoke

# metrics-smoke starts the observability endpoint under a mixed
# workload, scrapes /metrics over HTTP mid-stress and at quiescence,
# and fails unless every key ankerdb_* series is present. Writes the
# final scrape and a flight-recorder dump beside the repo root.
metrics-smoke:
	$(GO) run ./cmd/metricssmoke -dur 2s -out metrics-dump.txt -trace trace-dump.txt

# cover runs the test suite with coverage and writes cover.out plus the
# HTML report CI uploads as an artifact.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -html=cover.out -o coverage.html

# cover-baseline refreshes the committed coverage gate baseline: total
# statement coverage in percent. CI fails when a push drops more than
# 2 points below this number.
cover-baseline: cover
	$(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}' > coverage-baseline.txt
	cat coverage-baseline.txt
