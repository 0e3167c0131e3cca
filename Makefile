# Development entry points. CI runs the same commands, so a green
# `make test-race bench-check fuzz-smoke` locally is a green PR. Timing
# is the benchmark's job (bash benchmark/run.sh); tier-1 gates only the
# counts that repeat exactly (gate_test.go).

GO ?= go

.PHONY: build test test-race bench-check cover cover-baseline fault-sweep fuzz-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# bench-check vets and short-tests the repo's benchmark (benchmark/, a
# nested module compiled against ankerdb/internal/...): `go build ./...`
# at the root does not see it, so an internal signature change that
# breaks it would otherwise first fail in the benchmark pipeline.
bench-check:
	cd benchmark && $(GO) vet . && $(GO) test -short .

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
# the checkpoint/bootstrap table-section decoder, the replication
# control frames, the WAL and schema-log record decoders, and the
# segment and schema-log framing. A failing input lands in
# testdata/fuzz/ — commit it.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzWireReq$$' -fuzztime 5s .
	$(GO) test -run '^$$' -fuzz '^FuzzWireResp$$' -fuzztime 5s .
	$(GO) test -run '^$$' -fuzz '^FuzzTableSection$$' -fuzztime 5s .
	$(GO) test -run '^$$' -fuzz '^FuzzControlFrames$$' -fuzztime 5s ./internal/repl
	$(GO) test -run '^$$' -fuzz '^FuzzWALRecords$$' -fuzztime 5s ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzWALFraming$$' -fuzztime 5s ./internal/wal

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
