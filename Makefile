# Convenience targets for the Medusa reproduction.

GO ?= go

.PHONY: all check build vet fmt-check lint docs linkcheck test test-race short bench perfbench-test bench-smoke batch-smoke fleet-smoke faults-smoke figures results-check examples fuzz cover trace-demo loc clean

all: build test

# One-stop verification: compile, vet, require gofmt-clean sources, lint
# the determinism invariants, check the documentation's relative links,
# full tests, race-detect everything, the batched-execution and
# fleet-control-plane smokes, run the examples, then regenerate results/
# and require byte identity.
check: build vet fmt-check lint linkcheck test test-race batch-smoke fleet-smoke examples results-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Format gate: fail when gofmt -l lists any Go file of the set make loc
# counts (hidden directories and perfbench/ pruned).
GOFMT ?= gofmt
fmt-check:
	@out=$$($(LOC_GO) -print | xargs $(GOFMT) -l) && \
	if [ -n "$$out" ]; then echo "fmt-check: gofmt -l lists:"; echo "$$out"; exit 1; fi

# medusalint enforces the simulator's determinism, capture-safety, and
# pooled-state invariants: the syntactic passes (wallclock, seededrand,
# maporder, capturesync) plus the flow-aware CFG passes (kvpair,
# epochguard, poolescape, spanpair); see DESIGN.md §8 for the
# invariant-to-analyzer mapping. The generous wall-clock budget is a
# tripwire so the CFG passes can't silently blow up CI time (timeout
# exits 124 on breach).
LINT_BUDGET ?= 180s
lint:
	timeout $(LINT_BUDGET) $(GO) run ./cmd/medusalint ./...

# Godoc gate: fail on any undocumented exported identifier in the
# packages whose APIs FAILURES.md, DESIGN.md and docs/ARTIFACT_FORMAT.md
# document.
docs:
	$(GO) run ./cmd/medusa-doccheck ./internal/faults ./internal/artifactcache \
		./internal/cluster ./internal/serverless ./internal/sched ./internal/cliconfig \
		./internal/eventq ./internal/workload ./internal/replicate \
		./internal/autoscale ./internal/router ./internal/metrics \
		./internal/medusa ./internal/storage ./internal/engine

# Doc-link gate: every relative markdown link in the top-level docs and
# docs/ must resolve to an existing file (fragments stripped, absolute
# URLs skipped).
linkcheck:
	$(GO) run ./cmd/medusa-linkcheck README.md DESIGN.md EXPERIMENTS.md \
		FAILURES.md ROADMAP.md CHANGES.md docs

test:
	$(GO) test ./...

# Race-detect the whole tree: the parallel offline pipeline (analysis
# worker pool, validation forwarding shards, artifact prefetch) and the
# traced simulation stack are the interesting packages, but nothing is
# exempt.
test-race:
	$(GO) test -race ./...

# Skip the long trace simulations and CLI integration tests.
short:
	$(GO) test -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Vet and test the benchmark's own module. perfbench/ compiles against
# the simulator APIs but is a separate module, so ./... above skips it.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Seconds-scale benchmark gate for CI: the seeded eviction-policy sweep
# (lru/lfu/costaware on one 2-node Zipf workload), a two-node fleet
# simulation exercising the tiered artifact cache end to end, and the
# simulator-core scale smoke — one million streamed requests under a
# wall-clock budget with an allocs/request ceiling checked in at
# internal/cluster/testdata/max_allocs_per_request.
bench-smoke:
	$(GO) run ./cmd/medusa-bench -exp ext-cache-policies
	$(GO) run ./cmd/medusa-simulate -nodes 2 -models "Qwen1.5-0.5B,Llama2-7B" \
		-cache-policy costaware -cache-ram 3 -cache-ssd 6 -idle 200ms -rps 3 -duration 10
	MEDUSA_SCALE_SMOKE=1 $(GO) test -run TestScaleSmoke1M -count=1 -v ./internal/cluster/

# Seconds-scale continuous-batching gate: a seeded 100k-request fleet
# run in batched execution mode under a wall-clock budget and an
# allocs/request ceiling checked in at
# internal/cluster/testdata/max_allocs_per_request_batched.
batch-smoke:
	MEDUSA_BATCH_SMOKE=1 $(GO) test -run TestBatchSmoke100k -count=1 -v ./internal/cluster/

# Seconds-scale fleet-control-plane gate: a seeded ~100k-request
# diurnal multi-tenant run under predictive autoscaling and score
# routing, asserting SLO attainment and node-seconds stay inside
# checked bounds.
fleet-smoke:
	MEDUSA_FLEET_SMOKE=1 $(GO) test -run TestFleetSmoke100k -count=1 -v ./internal/cluster/

# Seconds-scale fault-injection gate: the seeded probability sweep
# (every run must survive every injected fault — FAILURES.md) plus a
# crash-preset fleet simulation exercising requeue and lost tiers.
faults-smoke:
	$(GO) run ./cmd/medusa-bench -exp ext-fault-sweep
	$(GO) run ./cmd/medusa-simulate -faults crash -nodes 2 -models "Qwen1.5-0.5B,Llama2-7B" \
		-cache-ram 3 -cache-ssd 6 -idle 250ms -rps 3 -duration 15

# Regenerate every table/figure into results/, mirroring the original
# artifact's `python scripts/<exp>.py > results/<Figure>` workflow.
figures:
	$(GO) run ./cmd/medusa-bench -all -out results

# Results gate: regenerate every exhibit into a temporary directory and
# diff it against results/. It fails on any byte difference, on an
# exhibit output missing from results/, and on a checked-in file no
# exhibit renders unless it is on the hand-made list below.
RESULTS_HANDMADE := perf-analysis.txt perf-simcore.txt trace-demo.json
results-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/medusa-bench -all -out "$$tmp" >/dev/null && \
	diff -r $(addprefix -x ,$(RESULTS_HANDMADE)) "$$tmp" results && \
	echo "results-check: every exhibit matches results/ byte for byte"

# Run every example end to end (go build ./... only compiles them).
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/graph-materialize
	$(GO) run ./examples/serverless-burst
	$(GO) run ./examples/batch-sweep
	$(GO) run ./examples/multimodel

fuzz:
	$(GO) test -run xxx -fuzz FuzzDecode$$ -fuzztime 30s ./internal/medusa/
	$(GO) test -run xxx -fuzz FuzzDecodeCorrupted -fuzztime 30s ./internal/medusa/
	$(GO) test -run xxx -fuzz FuzzArtifactRoundTrip -fuzztime 30s ./internal/medusa/
	$(GO) test -run xxx -fuzz FuzzTemplateRoundTrip -fuzztime 30s ./internal/medusa/
	$(GO) test -run xxx -fuzz FuzzDeltaCorrupted -fuzztime 30s ./internal/medusa/
	$(GO) test -run xxx -fuzz FuzzDecodeTemplate -fuzztime 30s ./internal/medusa/
	$(GO) test -run xxx -fuzz FuzzEncodeDecode -fuzztime 30s ./internal/tokenizer/
	$(GO) test -run xxx -fuzz FuzzQueueLanes -fuzztime 30s ./internal/eventq/

cover:
	$(GO) test -cover ./internal/...

# Demonstrate the tracing layer: a short cluster simulation that writes
# a Perfetto-loadable Chrome trace and prints the drift-free per-phase
# cold-start breakdown.
trace-demo:
	mkdir -p results
	$(GO) run ./cmd/medusa-simulate -rps 4 -duration 20 -phases -trace results/trace-demo.json

# Line-count ledger (informational): every line of the Go files outside
# perfbench/ and hidden directories, split into non-test and test files.
# The non-test figure is the one ROADMAP.md tracks from PR to PR.
LOC_GO = find . \( -path './.*' -o -path ./perfbench \) -prune -o -name '*.go'
loc:
	@echo "non-test Go lines (outside perfbench/): $$($(LOC_GO) ! -name '*_test.go' -print | xargs cat | wc -l)"
	@echo "test Go lines (outside perfbench/): $$($(LOC_GO) -name '*_test.go' -print | xargs cat | wc -l)"

clean:
	rm -rf results
