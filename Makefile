# Development targets. `make check` is the pre-merge gate: it checks
# formatting, builds and vets the tree and runs every test under the race
# detector, so the concurrent paths (parallel ensemble engine, parallel GA
# breeding, shared cost cache) are race-checked on every PR. CI runs the
# same target.

GO ?= go

.PHONY: fmt build test vet race check examples bench fuzz coldd-smoke validate-smoke trace-smoke perfbench-check results

# gofmt gate: fails listing every file gofmt would rewrite.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed:"; echo "$$out"; exit 1; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# go vet's suite includes the `atomic` analyzer, which guards the
# telemetry layer's sync/atomic usage (counters, histogram CAS loop).
vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

check: fmt build vet race

bench:
	$(GO) test -bench=. -benchtime=1x -benchmem ./...

# Every example must vet clean, compile and run to a zero exit, so an
# example that breaks at run time fails CI, which runs this target.
examples:
	$(GO) vet ./examples/...
	$(GO) build ./examples/...
	@for d in examples/*/; do \
		echo "== go run ./$$d"; \
		$(GO) run ./$$d || exit 1; \
	done

# Short fuzzing smoke on the evaluator's kernel-equivalence target, the
# GA crossover against its per-link reference, the validation distances, the untrusted config JSON boundary, the network
# JSON encoder against its reflection oracle, the store's checkpoint-key
# parser and the `coldstats trace` parser (CI runs this; crank -fuzztime
# locally for a real session). The evaluator corpus lives under
# internal/cost/testdata/fuzz/.
FUZZTIME ?= 10s
fuzz:
	$(GO) test . -run '^$$' -fuzz FuzzConfig -fuzztime $(FUZZTIME)
	$(GO) test . -run '^$$' -fuzz FuzzNetworkJSON -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cost -run '^$$' -fuzz FuzzDijkstraEquivalence -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzCrossoverEquivalence -fuzztime $(FUZZTIME)
	$(GO) test ./internal/validate -run '^$$' -fuzz FuzzDistances -fuzztime $(FUZZTIME)
	$(GO) test ./internal/store -run '^$$' -fuzz FuzzPartialKey -fuzztime $(FUZZTIME)
	$(GO) test ./cmd/coldstats -run '^$$' -fuzz FuzzTrace -fuzztime $(FUZZTIME)

# Ensemble-scale validation smoke: the determinism/self-comparison pins
# first (byte-identical records and scorecard at Parallelism 1 vs 8, the
# golden schema fixtures), then a real 1000-topology characterization run
# through coldbench, streaming every per-topology record to
# VALIDATE_COLD.jsonl (schema: EXPERIMENTS.md). CI runs this and uploads
# the records file as a build artifact. The tiny GA keeps the run to a
# couple of minutes; memory stays bounded by the pipeline window
# regardless of count.
validate-smoke:
	$(GO) test ./internal/validate -run 'TestPipelineDeterministic|TestSelfScorecard|TestGolden' -count=1
	$(GO) run ./cmd/coldbench -trials 2 -n 10 -pop 12 -gens 8 -bootstrap 200 \
		-validate-count 1000 -validate-records VALIDATE_COLD.jsonl validate

# End-to-end smokes of the coldd generation service against the real
# built binary. TestColddSmoke: POSTs the same config twice and asserts
# the second response is a pure cache hit (byte-identical body;
# cold_artifact_cache_hits_total=1 and cold_generation_jobs_total=1 on a
# /metrics scrape that passes the exposition-format lint), checks that
# /v1/stats and /debug/vars are 404 while /debug/pprof/ serves, checks the
# per-job JSONL trace file and /healthz build identity, then checks clean
# shutdown on SIGTERM. TestColddRestartSmoke: SIGKILLs the daemon
# mid-ensemble once a checkpoint file exists, restarts it over the same
# cache, and asserts the job resumes (cold_checkpoint_resume* counters on
# /metrics) with a byte-identical final artifact. CI runs both after
# `make check`.
coldd-smoke:
	$(GO) test ./cmd/coldd -run 'TestColdd' -count=1 -v

# Trace round-trip smoke: record a real JSONL telemetry trace with
# coldgen, then make `coldstats trace` parse and summarize it. CI runs
# this and uploads TRACE_COLD.jsonl as a build artifact so a run's
# convergence/phase profile is inspectable per commit.
trace-smoke:
	$(GO) run ./cmd/coldgen -n 16 -count 4 -pop 24 -gens 12 \
		-trace TRACE_COLD.jsonl > /dev/null
	$(GO) run ./cmd/coldstats trace TRACE_COLD.jsonl

# perfbench (the end-to-end benchmark harness) is its own Go module, so
# `make check` never compiles it. It builds against library names and
# scrapes /metrics series (cold_queue_wait_seconds_{sum,count},
# cold_generation_jobs_total) that a refactor could silently break; vet
# it and run its short tests.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test -short ./...

# Regenerates the recorded experiment outputs under results/ with the flags
# results/README.md lists. Each file starts with its provenance: the commit
# (marked when Go sources differ from it), the Go version, the CPU count
# and the coldbench flags. The full set takes tens of minutes on 2 CPUs.
results:
	@set -e; record() { out=results/coldbench_$$1.txt; shift; \
		dirty=$$(git diff --quiet HEAD -- '*.go' go.mod || echo ' + uncommitted changes'); \
		{ echo "# commit: $$(git rev-parse HEAD)$$dirty"; echo "# go: $$($(GO) version)"; \
		  echo "# nproc: $$(nproc)"; echo "# flags: coldbench $$*"; echo; \
		  $(GO) run ./cmd/coldbench "$$@"; } > $$out.tmp; mv $$out.tmp $$out; echo "wrote $$out"; }; \
	record all -trials 10 all; \
	record routers -trials 25 routers; \
	record extras -trials 10 extras; \
	record fig5_n50 -n 50 -trials 5 fig5
