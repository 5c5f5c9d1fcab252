# Repo checks. `make verify` is the documented pre-merge gate: it keeps the
# concurrent serving/engine code race-clean on top of the tier-1
# build-and-test pass.

GO ?= go

.PHONY: build test vet fmt race digests alloc-guard fuzz smoke-admin smoke-plan smoke-chaos smoke-traces chaos chaos-short verify bench bench-check bench-all profile profile-figs profile-engine loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Fails when any file needs gofmt.
fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; \
	fi

# internal/exp runs in -short mode under the race detector: its full-fidelity
# determinism tests exceed the 10-minute per-package test timeout once race
# instrumentation slows them 5-20x (notably on small machines), while the
# short suite already drives every concurrency path (worker pool, RunAll,
# concurrent ExecuteCtx). The full suite runs un-instrumented in `make test`.
race:
	$(GO) test -race $$($(GO) list ./... | grep -v '/internal/exp$$')
	$(GO) test -race -short ./internal/exp/

# The reproduction's byte contract: the sha256 of every experiment's table at
# Quick(42) against internal/exp/testdata/quick_digests.txt (~17 s,
# un-instrumented). `make race` runs internal/exp under -short, where
# TestQuickDigests skips, so the gate runs it here. Part of `make verify`.
digests:
	$(GO) test -count=1 -run '^TestQuickDigests$$' ./internal/exp/

# Seeded chaos soak, small matrix (~seconds): 2 seeds at high intensity with
# the invariant auditor, byte-identical replay and the goroutine-leak check.
# Part of `make verify`.
chaos-short:
	$(GO) test -short -run '^TestChaosSoak$$' -count=1 ./internal/super/

# The full chaos soak: 5 seeds x 2 intensities, every fault kind, supervised
# three-shard fleet, all invariants. The long-soak counterpart of
# chaos-short; run it before touching the supervisor, router lifecycle or
# checkpoint planes.
chaos:
	$(GO) test -run '^TestChaosSoak$$' -count=1 -timeout 1800s -v ./internal/super/

# Allocs-per-op regression guards: the frozen decide fast path (observe,
# dense state index, RCU argmax), a learning engine's full Step on a warmed
# zoo x D2 ring and a loaded local execution on a warmed world must stay at
# zero allocations with tracing disabled, as must a sequential Gateway.Do
# served inline on a frozen gateway; provenance capture and the sampled
# trace lifecycle each get a 2 allocs/op budget, Router.Do on a warmed
# router 1. The heap guards hold an agent's Q-table to
# what it has seen: MemoryBytes within 10% of the live-heap delta at 0, 20,
# 640 and 3,072 rows, and the paper's 640-state table at 0.4 MB +-25%. Runs
# un-instrumented (the race detector's shadow memory allocates).
alloc-guard:
	$(GO) test -run '^(TestDecideZeroAlloc|TestTrainStepZeroAlloc|TestExecuteLoadedZeroAlloc|TestTracedDecideAllocBudget|TestTraceLifecycleAllocBudget|TestRouterDoAllocBudget|TestGatewayDoZeroAlloc)$$' .
	$(GO) test -run '^(TestMemoryBytesMatchesHeap|TestFullTableFootprintNearPaper)$$' ./internal/rl/

# Fuzz smoke over the decoders, 5 s each: a fault schedule that parses must
# compile and answer injector queries; a policy envelope that decodes must
# carry a valid table; a Q-table that decodes must restore onto an agent and
# encode back byte for byte; an SLO class spec that parses must carry unique
# names and finite positive bounds; a state key that looks up must be the key
# its index renders, on the Table I space and each single-feature ablation; a
# JSON Lines audit trace that reads must read back unchanged after a write.
# `go test -fuzz` takes one target per run.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzScheduleParse$$' -fuzztime 5s ./internal/fault/
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 5s ./internal/policy/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeTable$$' -fuzztime 5s ./internal/rl/
	$(GO) test -run '^$$' -fuzz '^FuzzParseClasses$$' -fuzztime 5s ./internal/plan/
	$(GO) test -run '^$$' -fuzz '^FuzzStateKey$$' -fuzztime 5s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzReadAll$$' -fuzztime 5s ./internal/trace/

# End-to-end scrape check: boot a small load with the admin endpoint up,
# then curl /healthz and /metrics like a monitoring agent would.
smoke-admin:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/autoscale-serve ./cmd/autoscale-serve; \
	$$tmp/autoscale-serve -n 60 -clients 4 -admin 127.0.0.1:0 -linger 8s > $$tmp/out 2>&1 & pid=$$!; \
	addr=; for i in $$(seq 1 100); do \
		addr=$$(sed -n 's#^admin listening on http://##p' $$tmp/out); \
		[ -n "$$addr" ] && break; sleep 0.1; done; \
	if [ -z "$$addr" ]; then echo "smoke-admin: no admin address"; cat $$tmp/out; kill $$pid 2>/dev/null; exit 1; fi; \
	curl -fsS "http://$$addr/healthz" | grep '^ok' > /dev/null; \
	curl -fsS "http://$$addr/metrics" > $$tmp/metrics; \
	grep '^autoscale_requests_submitted_total' $$tmp/metrics > /dev/null; \
	grep '^autoscale_rl_epsilon' $$tmp/metrics > /dev/null; \
	grep '^autoscale_phase_seconds_bucket' $$tmp/metrics > /dev/null; \
	wait $$pid; echo "smoke-admin: ok"

# End-to-end planner scrape check: boot a planned load, then curl /plan and
# the autoscale_plan_* series like a capacity dashboard would.
smoke-plan:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/autoscale-serve ./cmd/autoscale-serve; \
	$$tmp/autoscale-serve -n 200 -clients 2 -replicas 2 -shards 2 -plan \
		-admin 127.0.0.1:0 -linger 8s > $$tmp/out 2>&1 & pid=$$!; \
	addr=; for i in $$(seq 1 100); do \
		addr=$$(sed -n 's#^admin listening on http://##p' $$tmp/out); \
		[ -n "$$addr" ] && break; sleep 0.1; done; \
	if [ -z "$$addr" ]; then echo "smoke-plan: no admin address"; cat $$tmp/out; kill $$pid 2>/dev/null; exit 1; fi; \
	curl -fsS "http://$$addr/plan" > $$tmp/plan; \
	grep '"generation"' $$tmp/plan > /dev/null; \
	grep '"classes"' $$tmp/plan > /dev/null; \
	curl -fsS "http://$$addr/metrics" > $$tmp/metrics; \
	grep '^autoscale_plan_active_lanes' $$tmp/metrics > /dev/null; \
	grep '^autoscale_plan_class_attained' $$tmp/metrics > /dev/null; \
	wait $$pid; echo "smoke-plan: ok"

# End-to-end chaos check: a seeded storm over a supervised sharded fleet via
# the CLI, scraping /supervisor and the autoscale_super_* series, and
# requiring the run to end with "all invariants held" (the binary exits
# non-zero on any violation).
smoke-chaos:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/autoscale-serve ./cmd/autoscale-serve; \
	$$tmp/autoscale-serve -chaos -shards 2 -replicas 2 -n 1500 -clients 4 -seed 7 \
		-admin 127.0.0.1:0 -linger 8s > $$tmp/out 2>&1 & pid=$$!; \
	addr=; for i in $$(seq 1 100); do \
		addr=$$(sed -n 's#^admin listening on http://##p' $$tmp/out); \
		[ -n "$$addr" ] && break; sleep 0.1; done; \
	if [ -z "$$addr" ]; then echo "smoke-chaos: no admin address"; cat $$tmp/out; kill $$pid 2>/dev/null; exit 1; fi; \
	curl -fsS "http://$$addr/supervisor" > $$tmp/super; \
	grep '"ticks"' $$tmp/super > /dev/null; \
	grep '"phase"' $$tmp/super > /dev/null; \
	curl -fsS "http://$$addr/metrics" | grep '^autoscale_super_score' > /dev/null; \
	wait $$pid || { echo "smoke-chaos: run failed"; cat $$tmp/out; exit 1; }; \
	grep 'chaos audit: all invariants held' $$tmp/out > /dev/null; \
	echo "smoke-chaos: ok"

# End-to-end tracing check: a chaos storm with causal tracing and the flight
# recorder on, scraping /traces (index + chrome export) like an operator
# chasing an incident would, and requiring the supervisor's remediations to
# have left at least one incident bundle on disk.
smoke-traces:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/autoscale-serve ./cmd/autoscale-serve; \
	$$tmp/autoscale-serve -chaos -shards 2 -replicas 2 -n 1500 -clients 4 -seed 7 \
		-trace-sample 0.25 -flight-recorder $$tmp/fr \
		-admin 127.0.0.1:0 -linger 8s > $$tmp/out 2>&1 & pid=$$!; \
	addr=; for i in $$(seq 1 100); do \
		addr=$$(sed -n 's#^admin listening on http://##p' $$tmp/out); \
		[ -n "$$addr" ] && break; sleep 0.1; done; \
	if [ -z "$$addr" ]; then echo "smoke-traces: no admin address"; cat $$tmp/out; kill $$pid 2>/dev/null; exit 1; fi; \
	curl -fsS "http://$$addr/traces" > $$tmp/idx; \
	grep '"stats"' $$tmp/idx > /dev/null; \
	grep '"traces"' $$tmp/idx > /dev/null; \
	curl -fsS "http://$$addr/traces?format=chrome" > $$tmp/chrome; \
	grep 'traceEvents' $$tmp/chrome > /dev/null; \
	curl -fsS "http://$$addr/metrics" | grep '^autoscale_trace_kept_total' > /dev/null; \
	wait $$pid || { echo "smoke-traces: run failed"; cat $$tmp/out; exit 1; }; \
	ls $$tmp/fr/incident-*.json > /dev/null 2>&1 || { echo "smoke-traces: no incident bundle"; cat $$tmp/out; exit 1; }; \
	echo "smoke-traces: ok"

# The full gate: tier-1 build plus formatting, vet, one race-detector pass
# over every package (it covers the policy, exec, fault, telemetry, routing,
# planning, hot-path, supervision and tracing planes — each used to be re-run
# by a race-* target of its own), the 25 quick table digests, the short
# chaos soak, the allocation guards, the decoder fuzz smoke, the benchmark
# harness's own vet and tests, and the admin, planner, chaos and tracing
# scrape smokes.
verify: build fmt vet race digests chaos-short alloc-guard fuzz bench-check smoke-admin smoke-plan smoke-chaos smoke-traces

# The repo benchmark (BENCHMARK.json): six workloads plus the layer ladder,
# results in bench/out/result.json. bench/README.md documents -append
# (history) and -compare (old-vs-new with noise bands).
bench:
	bash bench/run.sh

# bench/ is its own module, so `go build ./... && go test ./...` at the root
# never compiles it: an API deletion in internal/ can break the benchmark
# silently. This vets and tests the harness against the tree as it is.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

bench-all:
	$(GO) test -bench=. -benchmem

# CPU and heap profiles of the serving hot path, from the closed-loop
# gateway bench. Inspect with `go tool pprof cpu.pprof` / `mem.pprof`.
profile:
	$(GO) test -run '^$$' -bench '^BenchmarkGatewayThroughput/clients=1$$' -benchtime=3s \
		-cpuprofile cpu.pprof -memprofile mem.pprof .
	@echo "profiles written: cpu.pprof mem.pprof (go tool pprof <file>)"

# CPU profile of the researcher's path: four quick passes over the exp_figs
# workload's eight experiments at Parallel=1 (BenchmarkFigsPass after one
# warm-up pass, ~10 s).
# Inspect with `go tool pprof -top figs.cpu.pprof`.
profile-figs:
	$(GO) test -run '^$$' -bench '^BenchmarkFigsPass$$' -benchtime=4x -cpuprofile figs.cpu.pprof ./internal/exp/
	@echo "profile written: figs.cpu.pprof (go tool pprof <file>)"

# CPU profile of the learning engine's step: BenchmarkEngineTrainStepZoo,
# the engine_train workload's zoo x D2 ring after its warm-up (~5 s).
# Inspect with `go tool pprof -top engine.cpu.pprof`.
profile-engine:
	$(GO) test -run '^$$' -bench '^BenchmarkEngineTrainStepZoo$$' -benchtime=3s -cpuprofile engine.cpu.pprof .
	@echo "profile written: engine.cpu.pprof (go tool pprof <file>)"

# The two line counts simplicity PRs quote: non-test Go outside bench/, and
# the same restricted to the serving stack plus the paper's core.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l
	@find internal/serve internal/router internal/plan internal/super internal/core internal/rl \
		-name '*.go' -not -name '*_test.go' | xargs cat | wc -l
