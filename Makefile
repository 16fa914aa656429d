GO ?= go

.PHONY: build test race vet lint lint-ratchet bench fmt check verify \
	fuzz-smoke cover cover-check serve-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Project-specific determinism/hygiene analyzers (internal/analysis,
# DESIGN.md §11). Exits nonzero on any unsuppressed finding.
lint:
	$(GO) run ./cmd/leodivide-lint ./...

# The CI lint gate: full suite plus the suppression ratchet (the
# //lint:ignore count must equal LINT_SUPPRESSIONS exactly — spend the
# budget down in the same change that retires a suppression) and the
# committed wall-time ceiling. Writes the lint.json report artifact.
lint-ratchet:
	$(GO) run ./cmd/leodivide-lint -out lint.json \
		-ratchet LINT_SUPPRESSIONS -time-budget LINT_TIME_BUDGET ./...

# Times dataset generation and each registry experiment at workers=1
# and workers=0. A profiling aid: nothing gates on it. TestWorkCounts
# gates the work counts in `make test`; _bench/ is the end-to-end
# benchmark.
bench:
	$(GO) test -bench BenchmarkRegistry -benchtime 1x -benchmem -run '^$$' .

fmt:
	gofmt -s -l -w .

# Replay the committed golden corpus; exits nonzero on drift.
verify:
	$(GO) run ./cmd/leodivide verify

# End-to-end smoke of the scenario-query server: start `leodivide
# serve` on a small dataset in the background, drive it with loadgen
# (which polls /healthz until the dataset is ready), and require zero
# request errors plus a nonzero cache hit rate. Override SERVE_* to
# change the load shape.
SERVE_SCALE ?= 0.02
SERVE_ADDR ?= 127.0.0.1:8931
SERVE_N ?= 200
SERVE_CONCURRENCY ?= 16
serve-smoke:
	$(GO) build -o leodivide-smoke ./cmd/leodivide
	./leodivide-smoke -scale $(SERVE_SCALE) serve -addr $(SERVE_ADDR) & \
	server_pid=$$!; \
	trap 'kill $$server_pid 2>/dev/null' EXIT; \
	./leodivide-smoke loadgen -addr $(SERVE_ADDR) -n $(SERVE_N) \
		-concurrency $(SERVE_CONCURRENCY) -wait 120s -min-hit-rate 0.05; \
	status=$$?; \
	kill $$server_pid 2>/dev/null; wait $$server_pid 2>/dev/null; \
	rm -f leodivide-smoke; \
	exit $$status

# Short fuzzing pass over every fuzz target, FUZZ_TIME each. The seed
# corpora live under <pkg>/testdata/fuzz/<FuzzName>/ and also run as
# plain test cases in every `go test`. Go only allows one matching
# -fuzz target per invocation, hence one line per target.
FUZZ_TIME ?= 5s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzLatLngToCell$$' -fuzztime $(FUZZ_TIME) ./internal/hexgrid
	$(GO) test -run '^$$' -fuzz '^FuzzWalkBox$$' -fuzztime $(FUZZ_TIME) ./internal/hexgrid
	$(GO) test -run '^$$' -fuzz '^FuzzRegionSpec$$' -fuzztime $(FUZZ_TIME) ./internal/region
	$(GO) test -run '^$$' -fuzz '^FuzzSortUint64$$' -fuzztime $(FUZZ_TIME) ./internal/stats
	$(GO) test -run '^$$' -fuzz '^FuzzCDFGiniLorenz$$' -fuzztime $(FUZZ_TIME) ./internal/stats
	$(GO) test -run '^$$' -fuzz '^FuzzParseScenarioRequest$$' -fuzztime $(FUZZ_TIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzScenarioKeyInjective$$' -fuzztime $(FUZZ_TIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzAppendFig3JSON$$' -fuzztime $(FUZZ_TIME) .

# Coverage with a checked-in floor (COVERAGE_FLOOR, percent). The floor
# sits ~1pt under the measured total because worker-occupancy branches
# in internal/par make exact coverage scheduling-dependent.
cover:
	$(GO) test -count=1 -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

cover-check: cover
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {gsub(/%/, "", $$3); print $$3}'); \
	floor=$$(cat COVERAGE_FLOOR); \
	echo "coverage: $$total% (floor: $$floor%)"; \
	awk -v t="$$total" -v f="$$floor" 'BEGIN { exit (t+0 >= f+0) ? 0 : 1 }' || \
		{ echo "coverage $$total% fell below the checked-in floor $$floor%"; exit 1; }

check: build vet lint test
