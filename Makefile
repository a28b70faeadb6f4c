GO ?= go

# Native Go fuzzing budget per target; `make check` runs a short smoke pass,
# raise FUZZTIME for a longer campaign (e.g. make fuzz FUZZTIME=60s).
FUZZTIME ?= 5s

# Coverage floor for the observability layer (internal/telemetry/... and
# internal/ops): the flight recorder and the ops surface are the tools an
# operator reaches for mid-incident, so their test coverage is gated.
COVER_FLOOR ?= 85

.PHONY: build test vet lint lint-sarif lint-audit race fmt-check check fuzz bench bench-alloc bench-smoke cover e2e examples loc paper-check

# Pre-PR gate: everything `make check` runs must pass before a PR ships
# (see ROADMAP.md "Engineering gates").
check: build vet fmt-check lint test cover bench-alloc bench-smoke race fuzz paper-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Daemon end-to-end suite, run by name for a focused signal: deterministic
# journal replay across parallelism levels, 100+-tenant scale, the
# fault-injected soak, and the aegisd/aegisctl HTTP smoke tests. All of it
# also runs inside `make test` / `make race`.
e2e:
	$(GO) test -count=1 -v -run 'TestScenario|TestSheds|TestFaultSoak|TestDaemonConcurrentLifecycle' ./internal/daemon/...
	$(GO) test -count=1 -run 'TestDaemonSmoke|TestCtlClientSmoke' ./cmd/aegisd/ ./cmd/aegisctl/

# The README's demos: the quickstart and the four paper attacks run as
# root Example functions, printing their output. `go test` checks each
# against its // Output: block, so they also run inside `make test`.
examples:
	$(GO) test -count=1 -v -run '^Example' .

vet:
	$(GO) vet ./...

# The paper's numbers at HEAD, gated: regenerate the eval-scale run that
# EXPERIMENTS.md reproduces, telemetry summary included, and diff it
# against the committed golden, so drift in a paper number or a pipeline
# count shows as a diff. PAPER_STRIP drops what depends on the wall clock
# or the host: the "(<job> in <dur>)" lines; Table III's timing and rate
# cells (whose strings also size its columns; the table keeps its
# processor, Sampled and Measured cells); the telemetry timing series,
# whose names end in _seconds or _ns (stage_seconds{...} and
# parallel_shard_seconds{...} among them); and the parallel_pool_workers
# gauges, which read the CPU count. The other series stay: histogram sums
# are exact on a fixed grid, so parallel workers cannot reorder them.
# A change that moves a paper number re-pins the golden with the same
# pipeline: aegis-bench ... | $(PAPER_STRIP) > $(PAPER_GOLDEN). Not part of
# `make test`: the run takes about half a minute.
PAPER_GOLDEN = internal/experiment/testdata/eval-seed1.golden
PAPER_STRIP = awk -F '  +' '/^\(.* in .*\)$$/ { next } \
	/^=== telemetry ===$$/ { tel = 1 } \
	tel && /^  ([a-z0-9_]+_(seconds|ns)|parallel_pool_workers)[{ ]/ { next } \
	/^Table III:/ { t3 = 1; print; next } t3 && NF == 0 { t3 = 0 } \
	t3 { print $$1 "  " $$6 "  " $$7; next } { print }'

paper-check:
	@out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	$(GO) run ./cmd/aegis-bench -scale eval -seed 1 > "$$out" && \
	$(PAPER_STRIP) "$$out" | diff -u $(PAPER_GOLDEN) - && \
	echo "paper-check: output matches $(PAPER_GOLDEN)"

# Race instrumentation slows the end-to-end experiment suites well past
# Go's default 10-minute per-package timeout; give them headroom.
race:
	$(GO) test -race -timeout 30m ./...

# Project-specific static analysis (exit 0 clean / 1 findings / 2 load
# error). Rules and the //aegis:allow suppression contract are documented
# in DESIGN.md "Mechanically enforced invariants".
lint:
	$(GO) run ./cmd/aegis-lint ./...

# Same lint run rendered as SARIF 2.1.0 for GitHub code-scanning upload.
# The file is written even when findings exist; the lint exit status is
# preserved so the target still fails a dirty tree.
lint-sarif:
	@$(GO) run ./cmd/aegis-lint -sarif ./... > aegis-lint.sarif; \
	status=$$?; echo "lint-sarif: wrote aegis-lint.sarif"; exit $$status

# Machine-readable inventory of every //aegis:allow suppression: rule,
# position, reason, and whether it still suppresses or prunes anything.
lint-audit:
	$(GO) run ./cmd/aegis-lint -audit ./...

# gofmt over the same file walk the linter uses, so intentionally broken
# fixtures under testdata/ are skipped by both.
fmt-check:
	$(GO) run ./cmd/aegis-lint -gofmt

# Coverage-guided fuzzing of the DP mechanisms, the d* memo against an
# unbounded reference, the faulted tick loop, decoded-op execution against
# the variant-based reference, the flat caches and TLB against the
# reference LRU model, the breakpoint class sampler against the weight
# scan it replaces, a compiled mix's op draws against the class draw and
# Library.Sample they replaced, the vCPU's app/defense slots against
# the process list scheduler they replaced, and the host view (a core's
# recorded raw rows projected onto up to four events) against the PMU's
# per-tick RDPMC-and-reset loop.
fuzz:
	$(GO) test ./internal/obfuscator/ -run='^$$' -fuzz=FuzzMechanismDraw -fuzztime $(FUZZTIME)
	$(GO) test ./internal/obfuscator/ -run='^$$' -fuzz=FuzzDStarMemo -fuzztime $(FUZZTIME)
	$(GO) test ./internal/faultinject/proptest/ -run='^$$' -fuzz=FuzzTickUnderFaults -fuzztime $(FUZZTIME)
	$(GO) test ./internal/microarch/ -run='^$$' -fuzz=FuzzExecuteOpMatchesReference -fuzztime $(FUZZTIME)
	$(GO) test ./internal/microarch/ -run='^$$' -fuzz=FuzzCacheMatchesReference -fuzztime $(FUZZTIME)
	$(GO) test ./internal/workload/ -run='^$$' -fuzz=FuzzMixSampler -fuzztime $(FUZZTIME)
	$(GO) test ./internal/workload/ -run='^$$' -fuzz=FuzzCompiledMixMatchesReference -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sev/ -run='^$$' -fuzz=FuzzSlotsMatchListScheduler -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace/ -run='^$$' -fuzz=FuzzHostViewMatchesPMU -fuzztime $(FUZZTIME)

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Allocation gates: assert the steady-state hot paths (RDPMC, World.Step,
# obfuscator tick, stats scratch kernels) stay at 0 allocs/op, and bound
# the bytes a DefaultLibrary build, a Daemon.Attach and an aegis.New
# allocate. The gates
# are excluded under -race (instrumentation allocates), so `make race`
# still covers the same code for data races.
bench-alloc:
	$(GO) test -run 'TestZeroAlloc' -count=1 -v .

# The repo benchmark (bench/) is its own Go module, so `go test ./...` at
# the root skips it. Vet and test it here: its smoke test replays every
# fleet workload through a daemon-free mirror and requires each tenant's
# ProtectionReport to match the daemon's exactly.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Go line totals, non-test and test files apart, for the root module and
# the nested bench/ module (testdata/ fixtures excluded): the net line
# count a change reports next to its benchmark delta.
loc:
	@for mod in . bench; do \
		if [ $$mod = . ]; then files=$$(find . -path ./bench -prune -o -path '*/testdata' -prune -o -name '*.go' -print); \
		else files=$$(find bench -path '*/testdata' -prune -o -name '*.go' -print); fi; \
		src=$$(echo "$$files" | grep -v '_test\.go$$' | xargs -r cat | wc -l); \
		tst=$$(echo "$$files" | grep '_test\.go$$' | xargs -r cat | wc -l); \
		printf 'loc: %-6s non-test %6d  test %6d\n' $$mod $$src $$tst; \
	done

# Coverage gate on the observability layer: fails when total statement
# coverage across internal/telemetry/... + internal/ops drops below
# COVER_FLOOR percent. Part of `make check`.
cover:
	$(GO) test -coverprofile=cover.out ./internal/telemetry/... ./internal/ops/
	@$(GO) tool cover -func=cover.out | tail -1
	@pct=$$($(GO) tool cover -func=cover.out | tail -1 | awk '{print $$NF}' | tr -d '%'); \
	ok=$$(awk -v p="$$pct" -v f="$(COVER_FLOOR)" 'BEGIN{print (p+0 >= f+0) ? 1 : 0}'); \
	if [ "$$ok" != "1" ]; then \
		echo "cover: observability coverage $$pct% is below the $(COVER_FLOOR)% floor"; exit 1; \
	fi
