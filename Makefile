# C²-Bound reproduction — convenience targets.

GO ?= go

.PHONY: all build vet lint lint-json lint-suppressions test test-short race check bench-check bench serve figures figures-full examples cover fuzz-short clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Domain-specific static analysis (see DESIGN.md §8 and §13): the twelve
# c2vet analyzers — floatguard, errwrap, ctxflow, httpctx, outboundctx,
# ctxsleep, enginepath, batchpar, paramdomain and the interprocedural
# detguard, atomicguard and leakcheck — over every package. Exit 1 means findings,
# exit 2 means the packages did not load or type-check.
lint:
	$(GO) run ./cmd/c2vet ./...

# The same findings as one stable JSON document (CI artifact).
lint-json:
	$(GO) run ./cmd/c2vet -json ./... > c2vet.json

# Audit `//lint:allow` comments: list directives that suppress nothing.
lint-suppressions:
	$(GO) run ./cmd/c2vet -suppressions ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# halt_on_error aborts on the first race, so it is the failure line
# instead of a warning scrolling past in the full-suite log.
race:
	GORACE=halt_on_error=1 $(GO) test -race ./...

# The full pre-merge gate: build, vet, the c2vet analyzers (findings and
# stale suppressions), tests, and the race detector.
check: build vet lint lint-suppressions test race

# The repository benchmark's own module (bench/, see bench/README.md):
# vet it and run its tiny-scale workloads and oracles (~10 s). The root
# module's `go test ./...` never builds it, so this is what catches a
# root change that breaks the benchmark.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# One iteration of every figure/table benchmark with its headline metric.
bench:
	$(GO) test -bench . -benchmem -benchtime 1x -run XXX .

# Run the evaluation service locally on :8080.
serve:
	$(GO) run ./cmd/c2bound-server -addr :8080

figures:
	$(GO) run ./cmd/figures

# Paper-scale DSE: 10 values per dimension (10^6 configurations).
figures-full:
	$(GO) run ./cmd/figures -full -only fig12

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/scaling
	$(GO) run ./examples/scheduling
	$(GO) run ./examples/detector
	$(GO) run ./examples/energy
	$(GO) run ./examples/adaptive
	$(GO) run ./examples/dse

cover:
	$(GO) test -short -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 1

# A quick shake of every fuzz target (one target per go test invocation).
fuzz-short:
	$(GO) test -run XXX -fuzz FuzzNelderMead -fuzztime 10s ./internal/solve
	$(GO) test -run XXX -fuzz FuzzAnalyze -fuzztime 10s ./internal/camat
	$(GO) test -run XXX -fuzz FuzzSerializeIdempotent -fuzztime 10s ./internal/camat
	$(GO) test -run XXX -fuzz FuzzDetectorMatchesBatch -fuzztime 10s ./internal/detector
	$(GO) test -run XXX -fuzz FuzzTrackerMatchesUnion -fuzztime 10s ./internal/apc
	$(GO) test -run XXX -fuzz FuzzLoadSnapshot -fuzztime 10s ./internal/engine
	$(GO) test -run XXX -fuzz FuzzMemoCacheMatchesLRU -fuzztime 10s ./internal/engine
	$(GO) test -run XXX -fuzz FuzzLoadCheckpoint -fuzztime 10s ./internal/dse
	$(GO) test -run XXX -fuzz FuzzJobStoreLoad -fuzztime 10s ./internal/server
	$(GO) test -run XXX -fuzz FuzzDecodePeerEval -fuzztime 10s ./internal/cluster
	$(GO) test -run XXX -fuzz FuzzReadPeerEvalRequest -fuzztime 10s ./internal/cluster
	$(GO) test -run XXX -fuzz FuzzLoadTenantsFile -fuzztime 10s ./internal/server
	$(GO) test -run XXX -fuzz FuzzResolveModel -fuzztime 10s ./internal/server
	$(GO) test -run XXX -fuzz FuzzLoadPeersFile -fuzztime 10s ./internal/cluster
	$(GO) test -run XXX -fuzz FuzzValueListMatchesElementwise -fuzztime 10s ./internal/server

clean:
	$(GO) clean ./...
