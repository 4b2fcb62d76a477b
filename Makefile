# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-race cover bench bench-smoke bench-e2e check fuzz-smoke serve-smoke segments-equivalence examples experiments fmt vet clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# The served-path benchmark (bench/, contract in BENCHMARK.json) as a
# test: every workload, both trace modes, on a 300-sequence collection,
# answers checked (≈ 10 s) — and the posting decoder's microbenchmark:
# ns/posting over the lists a 1 000-base query touches in the
# benchmark's 17 777-sequence index: the id-stream loop the coarse walk
# runs ("ids"), that loop plus every posting's offsets as the diagonal
# coarse mode reads them ("ids+all"), the entry iterator with offsets
# materialised ("word", the decoder bench/'s replay times), the frozen
# per-call-checked reference ("ref"), and two and four lists decoded in
# turn ("two", "four"), ≈ 8 s — and one iteration of every banded-kernel
# shape on each pass route (BenchmarkBandedKernels), so the benchmark a
# kernel claim rests on builds and runs.
bench-smoke:
	$(GO) test -count=1 ./bench
	$(GO) test -run '^$$' -bench '^BenchmarkPostingsDecode$$' -benchtime 50x ./internal/postings
	$(GO) test -run '^$$' -bench '^BenchmarkBandedKernels$$' -benchtime 1x ./internal/align

# Two back-to-back 10-second runs of the default-query workload through
# the real path (HTTP → queue → coarse → fine → traceback → JSON) and
# their comparison: how far apart two runs of the same tree land on this
# machine, which is the noise floor any before/after claim has to clear.
# For a before/after, run the first line in a checkout of the parent
# commit with --out pointing at the same a.jsonl.
BENCH_E2E_OUT ?= .bench_build
bench-e2e:
	mkdir -p $(BENCH_E2E_OUT) && rm -f $(BENCH_E2E_OUT)/e2e-a.jsonl $(BENCH_E2E_OUT)/e2e-b.jsonl
	bash bench/run.sh --workload served_default --seconds 10 --out $(BENCH_E2E_OUT)/e2e-a.jsonl
	bash bench/run.sh --workload served_default --seconds 10 --out $(BENCH_E2E_OUT)/e2e-b.jsonl
	bash bench/run.sh --compare $(BENCH_E2E_OUT)/e2e-a.jsonl $(BENCH_E2E_OUT)/e2e-b.jsonl

# The full pre-commit gate: vet, the race-enabled test suite, a build of
# every command-line tool, a short fuzz smoke over the decode and
# alignment kernels, and the serve, benchmark and equivalence smokes.
# The contracts a linter once held are tests in the race pass: warm
# allocation counts on the kernels (TestIteratorWarmAllocs,
# TestCoarseWarmAllocs, TestBandedKernelAllocations,
# TestStripedScoreAllocs), decode and read
# errors that surface (the corrupt-input suites, TestOpenDiskShortRead),
# and deadlines that reach the work (TestTimeoutReturns504,
# TestBatchTimeoutReturns504, TestBatchCancelReachesWorkers).
# The race pass runs -short: it is there to catch data races in the
# concurrent paths, and the full experiment suite under the race
# detector exceeds the package test timeout (run `make test` /
# `make test-race` for those).
check:
	$(GO) vet ./...
	$(GO) test -race -short ./...
	$(GO) build ./cmd/...
	$(MAKE) fuzz-smoke
	$(MAKE) serve-smoke
	$(MAKE) bench-smoke
	$(MAKE) segments-equivalence

# ~40s total: each native fuzz target gets 2s of mutation on top of its
# committed corpus. CI-sized; run `go test -fuzz` locally for real runs.
# FuzzLoad in internal/index is the target in which a loaded index's own
# sequence lengths steer the decoding of its offset gaps; FuzzFasta
# parses the outside input cafe-build reads.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzVarint$$' -fuzztime=2s ./internal/compress
	$(GO) test -run='^$$' -fuzz='^FuzzPostingsDecode$$' -fuzztime=2s ./internal/postings
	$(GO) test -run='^$$' -fuzz='^FuzzLoad$$' -fuzztime=2s ./internal/index
	$(GO) test -run='^$$' -fuzz='^FuzzKmerRoundtrip$$' -fuzztime=2s ./internal/kmer
	$(GO) test -run='^$$' -fuzz='^FuzzFasta$$' -fuzztime=2s ./internal/dna
	$(GO) test -run='^$$' -fuzz='^FuzzDirectDecode$$' -fuzztime=2s ./internal/dna
	$(GO) test -run='^$$' -fuzz='^FuzzDirectRoundTrip$$' -fuzztime=2s ./internal/dna
	$(GO) test -run='^$$' -fuzz='^FuzzLoad$$' -fuzztime=2s ./internal/db
	$(GO) test -run='^$$' -fuzz='^FuzzSequenceDecode$$' -fuzztime=2s ./internal/db
	$(GO) test -run='^$$' -fuzz='^FuzzStoreWindow$$' -fuzztime=2s ./internal/db
	$(GO) test -run='^$$' -fuzz='^FuzzManifestDecode$$' -fuzztime=2s ./internal/segment
	$(GO) test -run='^$$' -fuzz='^FuzzBitvectorAlign$$' -fuzztime=2s ./internal/align
	$(GO) test -run='^$$' -fuzz='^FuzzBandedAlign$$' -fuzztime=2s ./internal/align
	$(GO) test -run='^$$' -fuzz='^FuzzLocalAlign$$' -fuzztime=2s ./internal/align
	$(GO) test -run='^$$' -fuzz='^FuzzSearchParams$$' -fuzztime=2s ./internal/server
	$(GO) test -run='^$$' -fuzz='^FuzzSeedHandOver$$' -fuzztime=2s ./internal/core

# End-to-end smoke over cafe-serve: build the binary, start it on a
# random port, replay testdata/script.json, and diff every response
# against the committed goldens (regenerate with -update after an
# intentional wire-format change).
serve-smoke:
	$(GO) test -count=1 -run '^TestServeGolden$$' ./clitest/servertest

# The segmented-index lockdown: the property suite proving segmented
# search byte-identical to a monolithic rebuild (every segment count,
# every compaction state, the whole option grid), the crash-safety
# fault-injection matrix over Append/Compact/Delete, the core
# per-segment equivalence matrix, and the live-compaction serving e2e.
# Runs without -short so the full matrices execute.
segments-equivalence:
	$(GO) test -count=1 -run '^(TestSegmentedEquivalenceProperty|TestSegmentedSaveReloadEquivalence|TestOpenDiscardsOldSignatureFiles|TestCompactedStoppingMatchesBuild|TestDeleteEquivalence|TestCrashSafety.*|TestSegmentedConcurrentHammer)$$' .
	$(GO) test -count=1 -run '^(TestSegmentedSearchEquivalence|TestSegmentedDeletedFilter)$$' ./internal/core
	$(GO) test -count=1 -run '^TestServeLiveCompactionGolden$$' ./clitest/servertest

examples:
	$(GO) run ./examples/quickstart/
	$(GO) run ./examples/homology/
	$(GO) run ./examples/compression/
	$(GO) run ./examples/metagenome/
	$(GO) run ./examples/domains/

# Regenerate every table/figure of the paper's evaluation (E1–E12).
experiments:
	$(GO) run ./cmd/cafe-bench

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...
