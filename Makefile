# Build/test entry points for the lsopc repository.
#
#   make build   - compile every package and command
#   make test    - full test suite (tier-1 gate)
#   make race    - race-detector run over the parallel execution layers
#   make vet     - static analysis
#   make bench   - the headline benchmarks behind the Table II claims
#               and the 1-D FFT kernel benchmarks,
#               then regenerate BENCH_multires.json (full-res float64
#               vs coarse-to-fine float32) and BENCH_tiled.json
#               (monolithic vs tiled full-chip), both gated by benchdiff
#   make trace   - instrumented runs (single-window and tiled, the tiled
#               one with the -serve live endpoint attached) + JSONL
#               trace validation (tracecheck) + analytics (tracestats)
#               + Chrome/Perfetto timeline export + the live-telemetry
#               end-to-end smoke (SSE + /runs during a tiled run) and
#               the chrome-export golden test
#   make benchjson - regenerate the "after" entry of BENCH_batchfft.json
#   make benchgate - benchdiff smoke gate: identical inputs pass, a
#               synthetically inflated copy must fail; multires, tiled
#               and flight-recorder overhead gated by benchdiff
#   make ci      - build + vet + gofmt hygiene + test + FFT kernel
#               benchmark smoke + checkpoint fuzz, the CI bundle
#   make check   - build + vet + test + race, the pre-commit bundle

GO ?= go

.PHONY: all build test race vet fmtcheck ci bench benchjson benchsessions trace benchgate check

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The packages whose correctness depends on goroutine scheduling: the
# engine worker pool, the batched FFT passes, the litho paths that fan
# kernels/corners across workers, the session runtime (pool + banks),
# the observability layer (shared sinks, atomic metrics), and the root
# package's concurrent-pipeline equivalence and trace-integrity tests.
race:
	$(GO) test -race ./internal/engine ./internal/fft ./internal/litho ./internal/core ./internal/pixelilt ./internal/rt ./internal/obs ./internal/obs/recorder ./internal/solve ./internal/tiling .

# Instrumented benchmark runs; fails if an emitted JSONL trace is
# malformed, missing one of the run's event families (iteration, corner,
# span), carries an unknown event kind (-strict; this also catches any
# producer of the retired plan_cache/pool kinds) or violates the per-run
# invariants (run ids everywhere, per-run monotonic iterations), then
# prints the tracestats analytics report over the same trace. The tiled
# leg runs with -serve attached (flag smoke: server up for the whole
# run, graceful shutdown after) and its trace is exported to a
# Chrome/Perfetto timeline. The final leg is the live-telemetry e2e
# smoke — a tiled run observed over real HTTP must show per-tile
# progress on /runs and stream SSE events while in flight — plus the
# chrome-export golden-fixture test. The closing leg is the flight-
# recorder drill: a -poison-tile run must abort, leave a postmortem
# bundle with a resumable checkpoint under -flight-dir, emit a strict-
# valid capture event in its trace, and the bundle must be readable by
# tracestats -bundle.
trace:
	$(GO) run ./cmd/lsopc -preset test -case B1 -iters 3 -health -tracefile /tmp/lsopc-trace.jsonl
	$(GO) run ./cmd/tracecheck -strict -require iteration,corner,span /tmp/lsopc-trace.jsonl
	$(GO) run ./cmd/tracestats /tmp/lsopc-trace.jsonl
	$(GO) run ./cmd/benchgen -dir /tmp/lsopc-bench -chip 2x2 -cells B1,B4
	$(GO) run ./cmd/lsopc -preset test -glp /tmp/lsopc-bench/chip_2x2.glp -tiled -halo 256 -iters 3 -health -serve 127.0.0.1:0 -tracefile /tmp/lsopc-trace-tiled.jsonl
	$(GO) run ./cmd/tracecheck -strict -require tile_start,tile_done,iteration,span /tmp/lsopc-trace-tiled.jsonl
	$(GO) run ./cmd/tracestats /tmp/lsopc-trace-tiled.jsonl
	$(GO) run ./cmd/tracestats -chrome /tmp/lsopc-trace-tiled.chrome.json /tmp/lsopc-trace-tiled.jsonl
	$(GO) test -count=1 -run 'TestLiveServerStreamsTiledRun' .
	$(GO) test -count=1 -run 'TestWriteChromeTrace' ./internal/obs/analyze
	rm -rf /tmp/lsopc-flight
	@if $(GO) run ./cmd/lsopc -preset test -glp /tmp/lsopc-bench/chip_2x2.glp -tiled -halo 256 -iters 3 -health -poison-tile 1 -flight-dir /tmp/lsopc-flight -tracefile /tmp/lsopc-trace-poison.jsonl; then \
		echo "trace: poisoned tiled run did NOT abort"; exit 1; \
	else \
		echo "trace: poisoned tile correctly aborted the run"; \
	fi
	@for f in manifest.json events.jsonl goroutines.txt heap.pb.gz checkpoint.ckpt metrics.txt; do \
		if ! test -s /tmp/lsopc-flight/*/$$f; then \
			echo "trace: bundle is missing $$f"; exit 1; \
		fi; \
	done; echo "trace: postmortem bundle is complete"
	$(GO) run ./cmd/tracecheck -strict -require tile_start,iteration,health,capture /tmp/lsopc-trace-poison.jsonl
	$(GO) run ./cmd/tracestats -bundle /tmp/lsopc-flight/*

# Perf-regression smoke gate: two quick benchmark passes into one
# artefact, benchdiff must pass the file against itself and must FAIL
# against a copy with 25% inflated metrics (proving the gate trips).
# The multires leg measures one Table II case in both variants and
# requires the coarse-to-fine float32 path to be no slower than the
# full-resolution float64 reference — the speedup is enforced, not
# merely recorded. The tiled leg measures a 2x2 cell-array chip
# monolithic vs tiled; the 0.67 threshold is the issue's >= 0.6·N
# speedup bound at N=1 worker (tiled <= monolithic/0.6), so on any
# N-worker host the gate only gets easier to clear.
# The obs leg gates the cost of observing: fresh -sessions runs of the
# sessions/1 mode with no trace sink (obs-N) and with a flight recorder
# teed into the trace path (obs-recorder-N), interleaved so host drift
# hits both sides alike. On a 2-vCPU host single runs of this mode
# spread about +-10% (recorder/plain ratio 0.87-1.09 over 8 pairs);
# min-of-3 per side narrows that, and ten consecutive runs of this leg
# gave ratios of 0.91-1.07 in 11-15 s each. A 15% threshold therefore
# trips on a real recorder regression, not on noise.
benchgate:
	$(GO) run ./cmd/benchjson -bench BatchFFT -label r1 -o /tmp/lsopc-benchgate.json
	$(GO) run ./cmd/benchjson -bench BatchFFT -label r2 -o /tmp/lsopc-benchgate.json
	$(GO) run ./cmd/benchdiff /tmp/lsopc-benchgate.json /tmp/lsopc-benchgate.json
	$(GO) run ./cmd/benchdiff -inflate 1.25 -o /tmp/lsopc-benchgate-slow.json /tmp/lsopc-benchgate.json
	@if $(GO) run ./cmd/benchdiff -q /tmp/lsopc-benchgate.json /tmp/lsopc-benchgate-slow.json; then \
		echo "benchgate: inflated copy was NOT flagged as a regression"; exit 1; \
	else \
		echo "benchgate: regression correctly detected on the inflated copy"; \
	fi
	$(GO) run ./cmd/benchjson -multires -bench B4 -o /tmp/lsopc-benchgate-multires.json
	$(GO) run ./cmd/benchdiff -old-labels baseline -new-labels multires /tmp/lsopc-benchgate-multires.json /tmp/lsopc-benchgate-multires.json
	$(GO) run ./cmd/benchjson -tiled -o /tmp/lsopc-benchgate-tiled.json
	$(GO) run ./cmd/benchdiff -old-labels monolithic -new-labels tiled -threshold 0.67 /tmp/lsopc-benchgate-tiled.json /tmp/lsopc-benchgate-tiled.json
	rm -f /tmp/lsopc-benchgate-obs.json
	for i in 1 2 3; do \
		$(GO) run ./cmd/benchjson -sessions -bench sessions/1 -label obs-$$i -o /tmp/lsopc-benchgate-obs.json && \
		$(GO) run ./cmd/benchjson -sessions -recorder -bench sessions/1 -label obs-recorder-$$i -o /tmp/lsopc-benchgate-obs.json || exit 1; \
	done
	$(GO) run ./cmd/benchdiff -old-labels obs-1,obs-2,obs-3 -new-labels obs-recorder-1,obs-recorder-2,obs-recorder-3 -threshold 0.15 /tmp/lsopc-benchgate-obs.json /tmp/lsopc-benchgate-obs.json

vet:
	$(GO) vet ./...

# Source-hygiene gate: gofmt must have nothing to reformat. gofmt -l
# exits 0 even when files need formatting, so the target fails on any
# output instead.
fmtcheck:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needs to reformat:"; echo "$$out"; exit 1; \
	fi

# The CI bundle: static analysis + formatting hygiene + tier-1 build and
# tests, then one iteration of each 1-D FFT kernel benchmark so they
# keep compiling and running, then a short fuzz of checkpoint decoding
# and restore. GitHub Actions (.github/workflows/ci.yml) runs the same
# steps plus the heavier race/trace/benchgate legs.
ci: build vet fmtcheck test
	$(GO) test -run '^$$' -bench 'FFT1D' -benchtime 1x ./internal/fft
	$(GO) test -run '^$$' -fuzz FuzzReadCheckpoint -fuzztime 10s ./internal/solve

bench:
	$(GO) test -run xxx -bench 'BenchmarkTable2PerCase|BenchmarkAerialExact|BenchmarkAerialFused|BenchmarkGradient$$|BenchmarkBatch|BenchmarkFFT1D' -benchmem ./...
	$(GO) run ./cmd/benchjson -multires
	$(GO) run ./cmd/benchdiff -old-labels baseline -new-labels multires BENCH_multires.json BENCH_multires.json
	$(GO) run ./cmd/benchjson -tiled
	$(GO) run ./cmd/benchdiff -old-labels monolithic -new-labels tiled -threshold 0.67 BENCH_tiled.json BENCH_tiled.json

benchjson:
	$(GO) run ./cmd/benchjson -label after

# Concurrent-session throughput (wall ns per layout at 1, 2, NumCPU
# sessions) versus the dedicated-pipeline-per-job architecture.
benchsessions:
	$(GO) run ./cmd/benchjson -sessions -label after

check: build vet test race
