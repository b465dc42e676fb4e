# CI entry points. `make ci` is what a pre-merge check runs: lint (gofmt,
# go vet, and the gillis-vet static-analysis suite), build, full test
# suite, the race detector on the concurrency-bearing packages (the kernel
# execution engine, the simulation kernel, the platform and the serving
# runtime), the seeded chaos tests that guard the resilience layer, the
# core-count matrix, and the seeded-baseline drift check.

GO ?= go
RACE_PKGS := ./internal/par ./internal/nn ./internal/runtime ./internal/platform ./internal/simnet \
	./internal/bench ./internal/trace ./internal/trace/tracetest ./internal/analysis \
	./internal/gateway ./internal/adapt ./internal/batching ./internal/mesh

# Packages whose scheduling depends on the core count (the kernel pool, the
# kernels on it, and the serving runtime and gateway above them).
PROCS_PKGS := ./internal/par ./internal/nn ./internal/runtime ./internal/gateway

# The seeded baselines bench-check regenerates; their bench-<name> targets
# write BENCH_<name>.json into BENCH_DIR.
SEEDED_BASELINES := chaos load adapt batch mesh
BENCH_DIR ?= .

.PHONY: ci lint vet build test race chaos procs cover bench-kernels bench-kernels-pin bench-check $(addprefix bench-,$(SEEDED_BASELINES))

ci: lint build test race chaos procs bench-check

# lint fails on any unformatted file, then runs go vet and the project's
# own analyzers: the intra-procedural suite (determinism, map-order,
# nil-safety, float-accumulation, dropped-error invariants) plus the
# inter-procedural call-graph analyzers (clockflow, goleak, sharedmut) —
# see DESIGN.md §9. CI sets VET_FLAGS=-github so findings land as inline
# ::error annotations on the pull request.
VET_FLAGS ?=
lint:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: the following files need formatting:" >&2; \
		echo "$$unformatted" >&2; \
		exit 1; \
	fi
	$(GO) vet ./...
	$(GO) run ./cmd/gillis-vet $(VET_FLAGS) ./...

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# Chaos tests run with their fixed seed (42, baked into the tests) so a
# resilience regression fails deterministically, never flakily.
chaos:
	$(GO) test ./internal/bench -run TestChaos -count=1
	$(GO) test ./internal/runtime -run 'TestResilient|TestNaiveFails' -count=1

# The core-count matrix: the scheduling-sensitive packages must pass on one
# core, two, and four, not only on the CI runner's count.
procs:
	for n in 1 2 4; do GOMAXPROCS=$$n $(GO) test -count=1 $(PROCS_PKGS) || exit 1; done

# Per-package coverage gate: fails if any package listed in
# COVERAGE_BASELINE drops below its recorded floor. Regenerate the baseline
# with `./scripts/check_coverage.sh -update`.
cover:
	./scripts/check_coverage.sh

# Run the kernel benches and fail if any ns/op regresses more than 10%
# against the checked-in BENCH_kernels.json baseline.
bench-kernels:
	$(GO) run ./cmd/gillis-bench -figs kernels -kernels-baseline BENCH_kernels.json -kernels-check

# Re-pin the kernel baseline on this machine; the new file carries
# before/after speedup columns relative to the previous pin.
bench-kernels-pin:
	$(GO) run ./cmd/gillis-bench -figs kernels -kernels-baseline BENCH_kernels.json -json-dir .

# Regenerate the checked-in chaos baseline (fully seeded: same output on
# any machine).
bench-chaos:
	$(GO) run ./cmd/gillis-bench -figs chaos -seed 42 -json-dir $(BENCH_DIR)

# Regenerate the checked-in serving-gateway load baseline (quick-mode sweep,
# fully seeded and ShapeOnly: same output on any machine).
bench-load:
	$(GO) run ./cmd/gillis-bench -quick -seed 42 -figs load-sweep -json-dir $(BENCH_DIR)

# Regenerate the checked-in adaptive re-planning baseline (full-horizon
# scenario, fully seeded and ShapeOnly: same output on any machine).
bench-adapt:
	$(GO) run ./cmd/gillis-bench -seed 42 -figs adapt -json-dir $(BENCH_DIR)

# Regenerate the checked-in cross-query batching baseline (quick-mode sweep,
# fully seeded and ShapeOnly: same output on any machine).
bench-batch:
	$(GO) run ./cmd/gillis-bench -quick -seed 42 -figs batch -json-dir $(BENCH_DIR)

# Regenerate the checked-in multi-model serving-mesh baseline (quick-mode
# sweep, fully seeded and ShapeOnly: same output on any machine).
bench-mesh:
	$(GO) run ./cmd/gillis-bench -quick -seed 42 -figs mesh -json-dir $(BENCH_DIR)

# Fail if any seeded baseline drifted: regenerate them all into a temp dir
# and compare each byte for byte with the checked-in file.
bench-check:
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	$(MAKE) --no-print-directory $(addprefix bench-,$(SEEDED_BASELINES)) BENCH_DIR="$$dir" >/dev/null || exit 1; \
	for b in $(SEEDED_BASELINES); do cmp "BENCH_$$b.json" "$$dir/BENCH_$$b.json" || exit 1; done; \
	echo "bench-check: $(SEEDED_BASELINES) baselines reproduce byte for byte"
