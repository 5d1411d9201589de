GO ?= go

.PHONY: build test vet fmt-check race flake bench bench-smoke bench-sim bench-opt opt-test diag-test serve test-service smoke chaos cluster-test fuzz verify-oracle load-test bench-serve check

build:
	$(GO) build ./...

## test: the unit suites, shuffled so inter-test ordering dependencies
## cannot hide, and uncached so the shuffle actually re-runs.
test:
	$(GO) test -shuffle=on -count=1 ./...

vet:
	$(GO) vet ./...

## fmt-check: fail if any tracked Go file is not gofmt-clean.
fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

## race: the data-race gate for the concurrent paths (simulator fan-out,
## service layer, campaign engine + durable store).
race:
	./scripts/race.sh

## flake: the flake gate for the concurrency packages — every test of the
## service, fabric, campaign and store packages, 20 times under -race.
## A single failure fails the gate.
flake:
	$(GO) test -race -count=20 ./internal/service ./internal/fabric ./internal/campaign ./internal/store

## bench: simulator and generator throughput benchmarks. The
## BenchmarkSimulate/{lanes,scalar} pairs give the lane engine's speedup
## over the scalar fallback.
bench:
	$(GO) test -run NONE -bench . -benchmem ./internal/sim/ .

## bench-smoke: run every simulator and generator benchmark once (the
## Table-1 rows and the dynamic list, whose repair takes the scalar
## fallback), so a broken benchmark fails the gate; writes no file.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/sim .

## bench-sim: regenerate BENCH_sim.json (the lanes section measured now,
## next to the recorded per-scenario baseline and scalar schedule).
bench-sim:
	$(GO) run ./cmd/experiments -bench-sim BENCH_sim.json

## bench-opt: regenerate BENCH_opt.json — the search-based optimizer run
## against the paper's Table 1 baselines (37n / 35n for List #1, 9n for
## List #2), every winner oracle-certified.
bench-opt:
	$(GO) run ./cmd/experiments -bench-opt BENCH_opt.json

## opt-test: the optimizer smoke gate — a short-budget, fixed-seed search
## must find a full-coverage test no longer than the paper's 9n for List #2,
## certify it through the independent oracle, and reproduce bit-for-bit
## across two same-seed runs. The marchopt CLI suite rides along.
opt-test:
	$(GO) test -count=1 -run 'TestBeatsPaperOnList2|TestDeterministicAcrossRuns|TestWinnerCertifiedAndNeverLonger|TestWinnerAgreesWithOracle' ./internal/optimize/
	$(GO) test -count=1 ./cmd/marchopt/

## diag-test: the diagnosis gate — the adaptive loop must localize an
## injected fault end to end both in-process (internal/diagnose) and over
## the HTTP surface (/v1/diagnose), and the parse/localize/next pipeline
## must hold its invariants on the seed corpus of hostile syndromes.
diag-test:
	$(GO) test -count=1 ./internal/diagnose/
	$(GO) test -count=1 -run 'TestDiagnose' ./internal/service/

## serve: run the marchd HTTP service on :8080 (see README quick-start).
serve:
	$(GO) run ./cmd/marchd -addr :8080

## test-service: the marchd service test suite (handlers, job engine, cache,
## campaign endpoints) plus the CLI front ends.
test-service:
	$(GO) test ./internal/service/ ./cmd/...

## smoke: end-to-end marchd + marchcamp round-trip (build, curl, SIGTERM drain).
smoke:
	./scripts/smoke.sh

## chaos: the fault-injection gate (DESIGN.md §10) — the iofault injector
## suite, the crash-matrix byte-identical-resume sweep over every I/O op,
## the torn-tail fuzz seeds, panic containment in the job engine and HTTP
## layer, and the retrying marchctl client against a flaky server.
chaos:
	$(GO) test -count=1 ./internal/iofault/ ./internal/retry/ ./cmd/marchctl/
	$(GO) test -count=1 -run 'TestCrashMatrix|TestFaultMatrix|TestENOSPC|TestRunContainsPanicking|TestCrashError|FuzzOpenTornTail|TestJobEnginePanicContained|TestRoutePanic|TestEncodeError' \
		./internal/campaign/ ./internal/store/ ./internal/service/

## cluster-test: the distributed-fabric gate (DESIGN.md §13) — in-process
## 1-coordinator/3-worker clusters proving merged results byte-identical
## to a single-node run, including the kill-a-worker chaos case and the
## lease-expiry / work-stealing paths, plus the fabric routes through the
## full marchd handler stack.
cluster-test:
	$(GO) test -count=1 -run 'TestCluster|TestFabric' ./internal/fabric/ ./internal/service/

## fuzz: time-boxed fuzzing of every parser boundary (march notation, FP
## specs, op streams), the store's torn-tail recovery, the fabric's
## segment-merge path (dup/out-of-order/torn segments must never corrupt a
## committed prefix), the diagnosis syndrome pipeline (hostile/partial/
## contradictory syndromes must reject or localize, never panic), the
## prefix-extension query against the whole extended test, and the
## word background set (size, round-trip, bit-pair separation, coverage
## monotonicity), 30s per target, seeded from */testdata/fuzz/.
fuzz:
	$(GO) test -fuzz='^FuzzParseFP$$' -fuzztime 30s ./internal/fp/
	$(GO) test -fuzz='^FuzzParseOps$$' -fuzztime 30s ./internal/fp/
	$(GO) test -fuzz='^FuzzParse$$' -fuzztime 30s ./internal/march/
	$(GO) test -fuzz='^FuzzOpenTornTail$$' -fuzztime 30s ./internal/store/
	$(GO) test -fuzz='^FuzzLanesVsScalar$$' -fuzztime 30s ./internal/sim/
	$(GO) test -fuzz='^FuzzExtendVsFull$$' -fuzztime 30s ./internal/sim/
	$(GO) test -fuzz='^FuzzSegmentMerge$$' -fuzztime 30s ./internal/fabric/
	$(GO) test -fuzz='^FuzzRetryAfterParse$$' -fuzztime 30s ./cmd/marchctl/
	$(GO) test -fuzz='^FuzzDiagnoseSyndrome$$' -fuzztime 30s ./internal/diagnose/
	$(GO) test -fuzz='^FuzzWordBackgrounds$$' -fuzztime 30s ./internal/word/

## load-test: the overload SLO gate (DESIGN.md §15) — a nominal marchload
## run must finish with zero admission sheds, then a 5x-overload run
## against a deliberately small instance must shed cold generates with
## 429 + Retry-After while the cache-hit class stays >=99% green with its
## p99 within 3x of nominal. Writes no tracked file (bench-serve does).
load-test:
	./scripts/load.sh

## bench-serve: regenerate BENCH_serve.json (serving latency percentiles
## per workload class, shed counts, allocs-per-cached-hit) via the
## nominal+overload load.sh run.
bench-serve:
	./scripts/load.sh BENCH_serve.json

## verify-oracle: the differential gate (DESIGN.md §11) — cross-check the
## production simulator against the independent reference oracle over the
## whole march library × every fault list plus 1000 seeded random streams,
## with the metamorphic property engine on. Any divergence fails the build.
verify-oracle:
	$(GO) run ./cmd/marchverify -seed 1 -n 1000 -props

## check: the full local CI gate — build, vet, gofmt, tests, race, the
## flake gate, chaos, the cluster gate, the optimizer smoke gate, the
## diagnosis gate, the oracle cross-check, the simulator benchmark smoke
## run, the overload SLO gate, smoke.
check: build vet fmt-check test race flake chaos cluster-test opt-test diag-test verify-oracle bench-smoke load-test smoke
