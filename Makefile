# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# targets; keep them in sync.

GO        ?= go
BENCHTIME ?= 200x
# The microbenchmark set `make bench` runs: scheduler (wheel vs heap),
# batched ticks, the data-plane fast paths from PR 1, PR 5's
# pooled-vs-unpooled infection pair, DDSR takedown repair, and the
# graph layer's CSR snapshot and BFS.
BENCH     ?= SchedulerSteadyState|SchedulerBatchedTicks|CellRelayHop|SealOpenSession|HiddenServiceDial|InfectFrom|RemoveNodeWithPruning|Snapshot5000x10|BFS5000x10

# External lint tool versions are pinned in tools/go.mod (a separate
# module, so the simulator's go.mod keeps zero dependencies). The
# Makefile reads them from there; bump them only in tools/go.mod.
STATICCHECK_VERSION := $(shell awk '$$1 == "honnef.co/go/tools" {print $$2}' tools/go.mod)
GOVULNCHECK_VERSION := $(shell awk '$$1 == "golang.org/x/vuln" {print $$2}' tools/go.mod)
GOBIN_DIR           := $(shell $(GO) env GOPATH)/bin

.PHONY: all build test race bench determinism sweep-smoke scenario-smoke serve-smoke linkcheck fuzz-smoke lint tools

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint is the determinism-contract gate: go vet, then onionlint
# (internal/lint: detclock/detrand/maporder/substream — the analyzers
# that ban the Graph.Snapshot map-order and MaybeReadByte keygen bug
# classes), then staticcheck and govulncheck at the versions pinned in
# tools/go.mod. The external tools need `make tools` (network) once;
# until then they are skipped with a notice so offline trees still get
# the full onionlint sweep.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/onionlint ./...
	@sc=$$(command -v staticcheck || echo $(GOBIN_DIR)/staticcheck); \
	if [ -x "$$sc" ]; then "$$sc" ./...; \
	else echo "lint: staticcheck $(STATICCHECK_VERSION) not installed; run 'make tools' to enable"; fi
	@gv=$$(command -v govulncheck || echo $(GOBIN_DIR)/govulncheck); \
	if [ -x "$$gv" ]; then "$$gv" ./...; \
	else echo "lint: govulncheck $(GOVULNCHECK_VERSION) not installed; run 'make tools' to enable"; fi

# tools installs the pinned external lint tools (network required).
# Standalone `go install pkg@version` honours the pin without needing a
# go.sum in tools/.
tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

# race runs the short test set under the race detector. The simulator
# itself is single-threaded by design; this guards the concurrent
# surfaces — the experiment runner's worker pool, task timeouts, and
# result aggregation.
race:
	$(GO) test -race -short ./...

# bench runs the benchmark of record (perfbench, declared by
# BENCHMARK.json) on each of its three workloads, then the
# microbenchmark set with -benchmem, then the n=10^6 Fig 5
# memory-plane point (one iteration IS the experiment; it reports its
# heap high-water mark as a custom heap-MiB metric). Everything runs in
# the foreground and prints to stdout.
bench:
	for w in repro-quick overlay-takedown protocol-churn; do \
		bash perfbench/run.sh --workload $$w || exit 1; \
	done
	$(GO) test -run=NONE -bench='$(BENCH)' -benchtime=$(BENCHTIME) -benchmem ./...
	$(GO) test -run=NONE -bench=Fig5MillionNode -benchtime=1x -timeout 60m ./internal/experiment/

# fuzz-smoke runs every native fuzz target for a short budget each —
# enough to shake out parser panics on every CI run while keeping the
# job bounded. Longer local sessions: make fuzz-smoke FUZZTIME=30s.
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzParseSpec -fuzztime=$(FUZZTIME) ./internal/churn/
	$(GO) test -run=NONE -fuzz=FuzzParseTrace -fuzztime=$(FUZZTIME) ./internal/churn/
	$(GO) test -run=NONE -fuzz=FuzzParseSpec -fuzztime=$(FUZZTIME) ./internal/soap/
	$(GO) test -run=NONE -fuzz=FuzzParseFaultSpec -fuzztime=$(FUZZTIME) ./internal/churn/
	$(GO) test -run=NONE -fuzz=FuzzParseSweep -fuzztime=$(FUZZTIME) ./internal/experiment/
	$(GO) test -run=NONE -fuzz=FuzzReplayJournal -fuzztime=$(FUZZTIME) ./internal/serve/
	$(GO) test -run=NONE -fuzz=FuzzDecodeWire -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run=NONE -fuzz=FuzzDecodeCell -fuzztime=$(FUZZTIME) ./internal/tor/

# determinism asserts the scheduler/runner contract: -exp all output is
# byte-identical at any -parallel value. The text tables round, so the
# full-precision -json document is compared too, at two seeds.
determinism:
	$(GO) build -o /tmp/onionsim-ci ./cmd/onionsim
	/tmp/onionsim-ci -exp all -quick -seed 1 -parallel 1 > /tmp/onionsim-p1.txt
	/tmp/onionsim-ci -exp all -quick -seed 1 -parallel 4 > /tmp/onionsim-p4.txt
	cmp /tmp/onionsim-p1.txt /tmp/onionsim-p4.txt
	for s in 1 101; do \
		/tmp/onionsim-ci -exp all -quick -seed $$s -parallel 1 -json > /tmp/onionsim-p1.json || exit 1; \
		/tmp/onionsim-ci -exp all -quick -seed $$s -parallel 4 -json > /tmp/onionsim-p4.json || exit 1; \
		cmp /tmp/onionsim-p1.json /tmp/onionsim-p4.json || exit 1; \
	done

# sweep-smoke byte-compares each grid's -json document at -parallel 1
# vs 4.
sweep-smoke:
	$(GO) build -o /tmp/onionsim-ci ./cmd/onionsim
	/tmp/onionsim-ci -sweep examples/sweep/fig6-grid.json -parallel 1 -json > /tmp/onionsim-fig6-p1.json
	/tmp/onionsim-ci -sweep examples/sweep/fig6-grid.json -parallel 4 -json > /tmp/onionsim-fig6-p4.json
	cmp /tmp/onionsim-fig6-p1.json /tmp/onionsim-fig6-p4.json
	/tmp/onionsim-ci -sweep examples/sweep/fig5-fig6-quick.json -parallel 1 -json > /tmp/onionsim-fig56-p1.json
	/tmp/onionsim-ci -sweep examples/sweep/fig5-fig6-quick.json -parallel 4 -json > /tmp/onionsim-fig56-p4.json
	cmp /tmp/onionsim-fig56-p1.json /tmp/onionsim-fig56-p4.json
	# The churn grid doubles as the dynamic-membership determinism gate:
	# the full JSON document must be byte-identical at any worker count.
	/tmp/onionsim-ci -sweep examples/sweep/churn-grid.json -parallel 1 -json > /tmp/onionsim-churn-p1.json
	/tmp/onionsim-ci -sweep examples/sweep/churn-grid.json -parallel 4 -json > /tmp/onionsim-churn-p4.json
	cmp /tmp/onionsim-churn-p1.json /tmp/onionsim-churn-p4.json
	# Same gate for the churn × SOAP composition: a live mitigation
	# campaign against a moving population must stay byte-deterministic.
	/tmp/onionsim-ci -sweep examples/sweep/churn-soap-grid.json -parallel 1 -json > /tmp/onionsim-churnsoap-p1.json
	/tmp/onionsim-ci -sweep examples/sweep/churn-soap-grid.json -parallel 4 -json > /tmp/onionsim-churnsoap-p4.json
	cmp /tmp/onionsim-churnsoap-p1.json /tmp/onionsim-churnsoap-p4.json
	# And for the infrastructure fault plane: correlated HSDir outages,
	# retry budgets, and repair republishes must not cost determinism.
	/tmp/onionsim-ci -sweep examples/sweep/hsdir-outage-grid.json -parallel 1 -json > /tmp/onionsim-faults-p1.json
	/tmp/onionsim-ci -sweep examples/sweep/hsdir-outage-grid.json -parallel 4 -json > /tmp/onionsim-faults-p4.json
	cmp /tmp/onionsim-faults-p1.json /tmp/onionsim-faults-p4.json

# scenario-smoke runs the whole named-question library in quick mode —
# every expectation must PASS (non-zero exit otherwise) — and
# byte-compares the full output at -parallel 1 vs 4. Replay scenarios
# resolve trace files relative to the repo root, so run from here.
scenario-smoke:
	$(GO) build -o /tmp/onionsim-ci ./cmd/onionsim
	/tmp/onionsim-ci -scenario all -quick -parallel 1 > /tmp/onionsim-scenario-p1.txt
	/tmp/onionsim-ci -scenario all -quick -parallel 4 > /tmp/onionsim-scenario-p4.txt
	cmp /tmp/onionsim-scenario-p1.txt /tmp/onionsim-scenario-p4.txt

# serve-smoke is the crash-safety gate for server mode: submit a fig6
# grid to a live `onionsim -serve`, kill -9 the process mid-sweep,
# restart it over the same jobs dir, and byte-compare the resumed
# result against an uninterrupted batch run (scripts/serve_smoke.sh).
serve-smoke:
	$(GO) build -o /tmp/onionsim-ci ./cmd/onionsim
	BIN=/tmp/onionsim-ci ./scripts/serve_smoke.sh

# linkcheck fails on dangling docs/*.md references anywhere in the tree
# (markdown or Go docs), so the handbook cannot silently rot.
linkcheck:
	@refs=$$(grep -rhoE 'docs/[A-Za-z0-9_.-]+\.md' --include='*.md' --include='*.go' . | sort -u); \
	status=0; \
	for f in $$refs; do \
		if [ ! -f "$$f" ]; then echo "dangling doc reference: $$f"; status=1; fi; \
	done; \
	exit $$status
