# Developer entry points. `make check` is what CI runs: build + tier-1
# tests (the allocation guards among them: testing.AllocsPerRun with an
# absolute bound beside the code each one holds), vet, and the race
# detector over the concurrent packages, so the campaign engine's
# parallelism stays race-free. `make fuzz` runs the short
# differential-fuzzing tier (see internal/fuzz); bump FUZZ_RUNS for a
# longer campaign. `make trace-demo` produces soc.trace.json — a Chrome
# trace (chrome://tracing / Perfetto) of a chaotic Time Warp run on the
# 2-channel SoC workload (DESIGN.md §11). `make monitor-demo` runs the
# same workload with the embedded monitoring server (-serve) and scrapes
# /healthz, /status and /metrics while it is up (DESIGN.md §12).

GO ?= go
FUZZ_RUNS ?= 100
FUZZ_SEED ?= 1
TRACE_CYCLES ?= 2000
MONITOR_PORT ?= 8315
MONITOR_HOLD ?= 10s

# bench-pairs: the parent revision to compare against (required), pairs
# per workload (name:n overrides it for one workload) and the per-layer
# metrics the three traced pairs print, each side's median.
PARENT ?=
BENCH_PAIRS ?= 10
BENCH_PAIRS_WORKLOADS ?= soc_tw_aligned,viterbi_tw_rollback,soc_dist_split,partition_campaign:3
BENCH_PAIRS_LAYERS ?= timewarp.run_s,timewarp.committed_events_per_s,timewarp.events_executed,timewarp.messages,timewarp.mean_batch,dist.run_s,dist.committed_events_per_s,dist.wire_frames,dist.vs_inproc_ratio,sim.run_s,sim.events,sim.events_per_s,host.peak_rss_mb,verilog.parse_s,elab.elaborate_s,hypergraph.build_flat_s,cone.partition_s,partition.multiway_s,clustersim.run_s,clustersim.packed_ratio,presim.search_s,multilevel.flat_s,multilevel.nlevel_s,multilevel.flat_cut,multilevel.nlevel_cut,harness.pipeline_wall_s

DIST_CYCLES ?= 200
DIST_MONITOR_PORT ?= 8316

.PHONY: check build test vet race bench bench-pairs pipeline-smoke scale-smoke experiments-smoke partition-quality fuzz trace-demo monitor-demo dist-smoke dist-postmortem

check: build test vet race

fuzz:
	$(GO) test ./internal/fuzz -run TestFuzzShort -v
	$(GO) test ./internal/fuzz -run TestFuzzShort -count=5
	$(GO) test ./internal/timewarp ./internal/comm -run 'TestConservative|TestStraggler|TestOneWay|TestChaos|TestAwaitHeard|TestStallWatcher|TestProbe|TestCountTermination' -count=5
	$(GO) test ./internal/timewarp ./internal/fuzz -run 'TestMesh|TestDistributedThreeWorkers|TestDistributedEarlyStart|TestDistributedSilentWorkerAborts|TestDistributedFuzzSpecs' -count=5
	$(GO) test -race ./internal/timewarp ./internal/comm -run 'TestConservative|TestDifferential|TestChaos'
	$(GO) test ./internal/timewarp -run xxx -fuzz FuzzReplicas -fuzztime 20s
	$(GO) test ./internal/timewarp -run xxx -fuzz FuzzLinkFrames -fuzztime 20s
	$(GO) test ./internal/timewarp -run xxx -fuzz FuzzDistProtoDecode -fuzztime 20s
	$(GO) test ./internal/timewarp -run xxx -fuzz FuzzWireDecode -fuzztime 20s
	$(GO) test ./internal/comm/nettrans -run xxx -fuzz FuzzTryRecv -fuzztime 20s
	$(GO) test ./internal/fm -run xxx -fuzz FuzzPairRefine -fuzztime 20s
	$(GO) test ./internal/fm -run xxx -fuzz FuzzLevelRefine -fuzztime 20s
	$(GO) test ./internal/netlist -run xxx -fuzz FuzzConeWalk -fuzztime 20s
	$(GO) test ./internal/elab -run xxx -fuzz FuzzElaborate -fuzztime 20s
	$(GO) test ./internal/sim -run xxx -fuzz FuzzRandomVectors -fuzztime 20s
	$(GO) test ./internal/sim -run xxx -fuzz FuzzFuse -fuzztime 20s
	$(GO) test ./internal/clustersim -run xxx -fuzz FuzzPackedModel -fuzztime 20s
	$(GO) run ./cmd/fuzz -runs $(FUZZ_RUNS) -seed $(FUZZ_SEED) -out fuzz-report.txt -trace-dir fuzz-traces

trace-demo:
	$(GO) run ./cmd/vgen -circuit soc -o soc.v
	$(GO) run ./cmd/vsim -in soc.v -top soc -mode tw -k 4 -cycles $(TRACE_CYCLES) \
		-chaos -trace soc.trace.json -metrics soc.metrics.txt -report

# Start vsim with the live monitoring server, poll until it answers, then
# scrape every endpoint once. The server holds for $(MONITOR_HOLD) after
# the run so scrapes still land when the simulation finishes first. The
# /metrics body must be valid exposition carrying the kernel's tw_events
# series (obscheck); the scrape is retried while the kernel is still
# registering them.
monitor-demo:
	$(GO) run ./cmd/vgen -circuit soc -o soc.v
	$(GO) build -o vsim.monitor ./cmd/vsim
	$(GO) build -o obscheck.monitor ./cmd/obscheck
	./vsim.monitor -in soc.v -top soc -mode tw -k 4 -cycles $(TRACE_CYCLES) \
		-chaos -blame -serve 127.0.0.1:$(MONITOR_PORT) -serve-hold $(MONITOR_HOLD) & \
	pid=$$!; \
	up=0; \
	for i in $$(seq 1 100); do \
		if curl -s -o /dev/null http://127.0.0.1:$(MONITOR_PORT)/healthz; then up=1; break; fi; \
		sleep 0.2; \
	done; \
	if [ $$up -ne 1 ]; then echo "monitoring server never came up"; kill $$pid 2>/dev/null; exit 1; fi; \
	echo "--- /healthz ---"; curl -fsS http://127.0.0.1:$(MONITOR_PORT)/healthz; \
	echo "--- /status ---";  curl -fsS http://127.0.0.1:$(MONITOR_PORT)/status; \
	echo "--- /metrics ---"; \
	scraped=0; \
	for i in $$(seq 1 50); do \
		if curl -fsS http://127.0.0.1:$(MONITOR_PORT)/metrics | ./obscheck.monitor -prom - -require 'tw_events{'; then scraped=1; break; fi; \
		sleep 0.1; \
	done; \
	if [ $$scraped -ne 1 ]; then echo "/metrics never carried the kernel's tw_events series"; kill $$pid 2>/dev/null; exit 1; fi; \
	wait $$pid

# Distributed smoke: the SoC workload simulated sequentially and then
# across TWO real vsimd worker processes meshed over loopback sockets
# (vsim -mode dist as coordinator). The run passes only if both print the
# identical "waveforms sha256:..." digest — bit-identical committed
# waveforms across process boundaries (DESIGN.md §14) — and the
# observability plane checks out: the coordinator's /metrics scrape
# carries the tw_* series of the clusters worker 1 runs, which only its
# round reports put there (validated and required via obscheck; with
# k=4 over two workers, clusters 2 and 3 are placed on worker 1), and the
# merged cluster trace decodes cleanly (DESIGN.md §16).
dist-smoke:
	$(GO) run ./cmd/vgen -circuit soc -o soc.v
	$(GO) build -o vsim.dist ./cmd/vsim
	$(GO) build -o vsimd.dist ./cmd/vsimd
	$(GO) build -o obscheck.dist ./cmd/obscheck
	./vsim.dist -in soc.v -top soc -cycles $(DIST_CYCLES) -seed 7 > dist-seq.out; \
	./vsim.dist -in soc.v -top soc -cycles $(DIST_CYCLES) -seed 7 \
		-mode dist -k 4 -workers 2 \
		-serve 127.0.0.1:$(DIST_MONITOR_PORT) -serve-hold $(MONITOR_HOLD) \
		-trace dist.trace.json -metrics dist.metrics.prom > dist-coord.out 2>&1 & \
	pid=$$!; \
	addr=""; \
	for i in $$(seq 1 100); do \
		addr=$$(sed -n 's/^coordinator: \([0-9.:]*\).*/\1/p' dist-coord.out 2>/dev/null); \
		if [ -n "$$addr" ]; then break; fi; \
		sleep 0.1; \
	done; \
	if [ -z "$$addr" ]; then echo "coordinator never printed its address"; cat dist-coord.out; exit 1; fi; \
	./vsimd.dist -connect $$addr > dist-w0.out 2>&1 & w0=$$!; \
	./vsimd.dist -connect $$addr > dist-w1.out 2>&1 & w1=$$!; \
	wait $$w0 || { echo "worker 0 failed:"; cat dist-w0.out; exit 1; }; \
	wait $$w1 || { echo "worker 1 failed:"; cat dist-w1.out; exit 1; }; \
	scraped=0; \
	for i in $$(seq 1 100); do \
		if curl -fsS http://127.0.0.1:$(DIST_MONITOR_PORT)/metrics > dist-scrape.prom 2>/dev/null; then scraped=1; break; fi; \
		sleep 0.1; \
	done; \
	if [ $$scraped -ne 1 ]; then echo "coordinator /metrics never answered"; cat dist-coord.out; exit 1; fi; \
	./obscheck.dist -prom dist-scrape.prom -require 'tw_batches{cluster="3"}' \
		|| { echo "coordinator /metrics scrape invalid"; exit 1; }; \
	wait $$pid || { echo "coordinator failed:"; cat dist-coord.out; exit 1; }; \
	./obscheck.dist -prom dist.metrics.prom -require 'tw_batches{cluster="3"}' -trace dist.trace.json \
		|| { echo "observability artifacts invalid"; exit 1; }; \
	grep -q '"worker 1"' dist.trace.json \
		|| { echo "merged trace names no worker 1 process"; exit 1; }; \
	cat dist-seq.out dist-coord.out; \
	seq_digest=$$(grep '^waveforms ' dist-seq.out); \
	dist_digest=$$(grep '^waveforms ' dist-coord.out); \
	if [ "$$seq_digest" != "$$dist_digest" ]; then \
		echo "WAVEFORM MISMATCH"; echo "seq:  $$seq_digest"; echo "dist: $$dist_digest"; exit 1; \
	fi; \
	echo "dist-smoke: waveforms bit-identical across 2 worker processes, observability plane validated"

# Post-mortem drill: start a distributed run with the flight recorder
# armed, kill one worker process mid-run (SIGKILL: sockets drop exactly
# like a machine death), and require the coordinator to abort AND leave a
# complete post-mortem bundle behind: exactly the coordinator's metrics, the
# merged trace tail (decodable, the GVT-round history among its spans),
# probe states and the coordinator's goroutine dump.
dist-postmortem:
	$(GO) run ./cmd/vgen -circuit soc -o soc.v
	$(GO) build -o vsim.dist ./cmd/vsim
	$(GO) build -o vsimd.dist ./cmd/vsimd
	$(GO) build -o obscheck.dist ./cmd/obscheck
	rm -rf dist-postmortem.bundle; \
	./vsim.dist -in soc.v -top soc -cycles 50000000 -seed 7 \
		-mode dist -k 4 -workers 2 \
		-postmortem-dir dist-postmortem.bundle > dist-pm-coord.out 2>&1 & \
	pid=$$!; \
	addr=""; \
	for i in $$(seq 1 100); do \
		addr=$$(sed -n 's/^coordinator: \([0-9.:]*\).*/\1/p' dist-pm-coord.out 2>/dev/null); \
		if [ -n "$$addr" ]; then break; fi; \
		sleep 0.1; \
	done; \
	if [ -z "$$addr" ]; then echo "coordinator never printed its address"; cat dist-pm-coord.out; exit 1; fi; \
	./vsimd.dist -connect $$addr -metrics /dev/null > dist-pm-w0.out 2>&1 & w0=$$!; \
	./vsimd.dist -connect $$addr -metrics /dev/null > dist-pm-w1.out 2>&1 & w1=$$!; \
	sleep 2; \
	kill -9 $$w1; \
	if wait $$pid; then echo "coordinator survived a killed worker"; exit 1; fi; \
	wait $$w0 2>/dev/null; true; \
	for f in metrics.prom trace.json probes.json goroutines.txt; do \
		if [ ! -s dist-postmortem.bundle/$$f ]; then \
			echo "post-mortem bundle missing $$f"; ls -la dist-postmortem.bundle 2>/dev/null; exit 1; \
		fi; \
	done; \
	extra=$$(ls dist-postmortem.bundle | grep -vxE 'metrics\.prom|trace\.json|probes\.json|goroutines\.txt'); \
	if [ -n "$$extra" ]; then echo "post-mortem bundle holds more than its four files:" $$extra; exit 1; fi; \
	./obscheck.dist -prom dist-postmortem.bundle/metrics.prom -trace dist-postmortem.bundle/trace.json \
		|| { echo "post-mortem artifacts invalid"; exit 1; }; \
	grep -q '"reason"' dist-postmortem.bundle/probes.json || { echo "probes.json has no abort reason"; exit 1; }; \
	grep -q '"dist_min_progress"' dist-postmortem.bundle/trace.json || { echo "trace.json has no progress samples"; exit 1; }; \
	grep -q 'goroutine' dist-postmortem.bundle/goroutines.txt || { echo "goroutines.txt has no goroutines"; exit 1; }; \
	echo "dist-postmortem: bundle complete and valid after worker kill"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run xxx -bench . -benchtime 1x .
	$(GO) test -run xxx -bench 'Settle|Fuse' -benchtime 1x ./internal/sim
	$(GO) test -run xxx -bench Compile -benchtime 1x ./internal/timewarp

# The evidence a performance PR commits as BENCH_<n>.txt: alternating
# parent/change pairs of the pipeline benchmark's driver command
# (BENCHMARK.json), the parent's committed files checked out under the
# git-ignored .bench_build/, medians, quartile spreads, wins and a verdict
# per (end-to-end metric, workload), each side's median of three traced
# pairs per layer, and every run made (cmd/benchpairs). About half an hour
# at the defaults on two cores.
#
#	make bench-pairs PARENT=HEAD~1 | tee BENCH_19.txt
bench-pairs:
	@test -n "$(PARENT)" || { echo "usage: make bench-pairs PARENT=<rev>"; exit 2; }
	rm -rf .bench_build/parent && mkdir -p .bench_build/parent
	git archive $(PARENT) | tar -x -C .bench_build/parent
	$(GO) run ./cmd/benchpairs -parent .bench_build/parent -change . -pairs $(BENCH_PAIRS) \
		-workloads '$(BENCH_PAIRS_WORKLOADS)' -layers '$(BENCH_PAIRS_LAYERS)'

# The pipeline benchmark (BENCHMARK.json's driver command) at self-test
# sizes, traced, three seconds a workload: every workload's oracle runs —
# waveform digests and registered state against the sequential simulator,
# partition invariants, determinism guards; exit status 1 on any failed
# check — and the traced run prints every per-layer row, the two
# observability overhead ratios (obs.on_off_ratio,
# harness.trace_overhead_ratio) among them. CI runs it on every push; it
# gates the checks, not the timings (ROADMAP item 1).
pipeline-smoke:
	bash benchmark/run.sh -workload all -scale smoke -seed 1 -trace 1 --seconds 3

# The paper's tables as an oracle: every table and figure of
# `experiments -all` at reduced lengths (about 16 s on two cores), diffed
# against the output recorded in internal/experiments/testdata/smoke.golden.
# Every line is deterministic, so any difference means a model or
# partitioner result moved. Re-record the golden only for a change meant to
# move a table.
experiments-smoke:
	$(GO) build -o experiments.smoke ./cmd/experiments
	./experiments.smoke -all -presim 2000 -full 5000 > experiments-smoke.out
	diff internal/experiments/testdata/smoke.golden experiments-smoke.out
	@echo "experiments-smoke: tables match smoke.golden"

# The front end at the paper's scale (ROADMAP item 11): the 728,121-gate
# decoder gen.Viterbi{K: 11, W: 12, TB: 96} parsed, elaborated, validated,
# levelized and handed to sim.New, failing when elaboration passes 1.5 s or
# 4 allocations a gate, and printing ns, bytes and allocations a gate at
# 17.6 k, 121 k and 728 k gates side by side. About half a gigabyte and a few
# seconds; tier-1 skips the test (SCALE unset).
scale-smoke:
	SCALE=1 $(GO) test -run TestScaleSmoke -count=1 -v .

# The CI partition-quality gate: on all four canonical workloads at
# k ∈ {2,4,8} with a fixed seed the flat baseline's cut must not exceed
# what the deleted level-copy engine achieved (recorded constants) with
# both multilevel policies balanced, the same seed must yield the
# identical assignment at any worker count, every engine (design-driven,
# flat, n-level) must reproduce its recorded GateParts digest on the same
# grid — the behavioural-drift gate of every refiner refactoring — and
# n-level's cut summed over the 96 smoke points (k ∈ {2,3,4,8} × b ∈
# {5,10} × seeds 1–3) must stay under its recorded bound, all balanced.
partition-quality:
	$(GO) test ./internal/multilevel/ \
		-run 'TestFlatCutNoWorseThanLevelCopy|TestPartitionNDeterministicAcrossWorkers|TestGoldenPartitionDigests|TestNLevelSmokeGrid' -v
