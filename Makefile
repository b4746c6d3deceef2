# dcmodel build targets. Run `make help` for a summary.

GO ?= go

.PHONY: all build vet test test-race cover cover-spec bench benchmark-check fuzz fuzz-smoke vulncheck examples artifacts serve loadtest clean help

all: build vet test

help:
	@echo "dcmodel targets:"
	@echo "  all        build + vet + test"
	@echo "  build      go build ./..."
	@echo "  vet        go vet ./..."
	@echo "  test       go test ./..."
	@echo "  test-race  go test -race ./... — the concurrency gate for the"
	@echo "             parallel cross-examination engine and sharded simulator"
	@echo "  cover      go test -cover ./... + the internal/spec coverage floor"
	@echo "  cover-spec enforce the $(SPEC_COVER_FLOOR)% statement-coverage floor on internal/spec"
	@echo "  bench      regenerate every table/figure + ablations (-bench=. -benchmem)"
	@echo "  benchmark-check  vet + smoke-test the perf record (benchmark/ is a module"
	@echo "             of its own that go build/test ./... never compiles; the test"
	@echo "             also fails when BENCHMARK.json drifts from the benchmark)"
	@echo "  fuzz       run the codec, sharded-simulator, float-sort and spec fuzz targets (30s each)"
	@echo "  fuzz-smoke quick CI fuzz pass over the same targets (10s each)"
	@echo "  vulncheck  govulncheck over the whole module (installed on demand)"
	@echo "  examples   run every example program"
	@echo "  artifacts  record test + bench output to *_output.txt"
	@echo "  serve      run the dcmodeld model-serving daemon on :8080"
	@echo "  loadtest   ingest a simulated trace into a running daemon and"
	@echo "             fire 64 concurrent synthesize requests at it"
	@echo "  clean      remove build cache and recorded artifacts"

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# vet gates test so a vet regression can never ride in on a green test run.
test: vet
	$(GO) test ./...

# The race detector must stay clean: parallel cross-examination, sharded
# simulation and concurrent synthesis all run under it in CI.
test-race:
	$(GO) test -race ./...

cover: cover-spec
	$(GO) test -cover ./...

# The spec engine is the repo's configuration surface; its statement
# coverage must not sink below the floor.
SPEC_COVER_FLOOR = 85
cover-spec:
	@$(GO) test -coverprofile=/tmp/spec_cover.out ./internal/spec/ > /dev/null
	@pct=$$($(GO) tool cover -func=/tmp/spec_cover.out | awk '/^total:/ {gsub(/%/, "", $$3); print $$3}'); \
	echo "internal/spec coverage: $$pct% (floor $(SPEC_COVER_FLOOR)%)"; \
	ok=$$(echo "$$pct $(SPEC_COVER_FLOOR)" | awk '{print ($$1 >= $$2) ? 1 : 0}'); \
	if [ "$$ok" != "1" ]; then \
		echo "internal/spec coverage $$pct% fell below the $(SPEC_COVER_FLOOR)% floor"; exit 1; \
	fi

# Regenerates every table/figure and runs the ablations.
bench:
	$(GO) test -bench=. -benchmem ./...

# The perf record lives in benchmark/, a nested module tier-1 never builds:
# this is what compiles the internal/ signatures it imports. A perf claim is
# made with `go -C benchmark run . -compare` (see benchmark/README.md).
benchmark-check:
	$(GO) -C benchmark vet .
	$(GO) -C benchmark test .

FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz=FuzzReadCSV -fuzztime=$(FUZZTIME) ./internal/trace/
	$(GO) test -fuzz=FuzzReadJSON -fuzztime=$(FUZZTIME) ./internal/trace/
	$(GO) test -fuzz=FuzzBinaryCodec -fuzztime=$(FUZZTIME) ./internal/trace/
	$(GO) test -fuzz=FuzzShardedCodecRoundTrip -fuzztime=$(FUZZTIME) ./internal/trace/
# The oracle targets take whole encoded traces as input; left at its 60s
# default, minimizing one interesting 4 KB input eats the whole budget.
	$(GO) test -fuzz=FuzzSpanReader -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s -run '^$$' ./internal/trace/
	$(GO) test -fuzz=FuzzAppendCSVMatchesOracle -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s -run '^$$' ./internal/trace/
	$(GO) test -fuzz=FuzzAppendJSONMatchesOracle -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s -run '^$$' ./internal/trace/
	$(GO) test -fuzz=FuzzAppendBinaryMatchesOracle -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s -run '^$$' ./internal/trace/
	$(GO) test -fuzz=FuzzBinaryReaderMatchesOracle -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s -run '^$$' ./internal/trace/
	$(GO) test -fuzz=FuzzSortFloatsMatchesSort -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s -run '^$$' ./internal/stats/
	$(GO) test -fuzz=FuzzSpecParse -fuzztime=$(FUZZTIME) -run '^$$' ./internal/spec/
	$(GO) test -fuzz=FuzzSpecRoundTrip -fuzztime=$(FUZZTIME) -run '^$$' ./internal/spec/

# The CI smoke pass: same targets, 10 seconds each.
fuzz-smoke:
	$(MAKE) fuzz FUZZTIME=10s

# Known-vulnerability scan over the module and its (stdlib-only)
# dependency graph. Installs govulncheck on demand; CI runs this on every
# push.
vulncheck:
	@command -v govulncheck >/dev/null 2>&1 || $(GO) install golang.org/x/vuln/cmd/govulncheck@latest
	govulncheck ./...

examples:
	@for ex in quickstart storagestudy webtier selfsimilar serverconfig incast tracing memorymodel; do \
		echo "== examples/$$ex =="; \
		$(GO) run ./examples/$$ex || exit 1; \
	done

# The artifacts EXPERIMENTS.md records.
artifacts:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# Runs the model-serving daemon in the foreground (Ctrl-C / SIGTERM
# drains gracefully). Override flags with SERVE_FLAGS.
SERVE_ADDR ?= :8080
serve:
	$(GO) run ./cmd/dcmodeld -addr $(SERVE_ADDR) $(SERVE_FLAGS)

# Exercises a running daemon (start one with `make serve` first): streams
# a 4000-request simulated GFS trace into the window, then fires 64
# concurrent synthesize requests and prints the status-code tally — 200s
# are served syntheses, 429s are the bounded queue pushing back.
LOADTEST_URL ?= http://localhost:8080
loadtest:
	$(GO) run ./cmd/gfstrace -requests 4000 -rate 200 -o /tmp/dcmodeld_load.csv
	curl -s --data-binary @/tmp/dcmodeld_load.csv $(LOADTEST_URL)/v1/ingest; echo
	@rm -f /tmp/dcmodeld_codes.txt; \
	for i in $$(seq 1 64); do \
		curl -s -o /dev/null -w "%{http_code}\n" \
			"$(LOADTEST_URL)/v1/synthesize?n=2000&seed=$$i" >> /tmp/dcmodeld_codes.txt & \
	done; wait; sort /tmp/dcmodeld_codes.txt | uniq -c
	curl -s $(LOADTEST_URL)/metrics | grep -E 'dcmodeld_(queue_rejected_total|retrain_total|window_requests)'

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
