# Developer entry points. `make check` is the one-stop gate: full build,
# test suite, the perf smoke, bounded fault-injection, multi-core co-run
# (smoke and Eval matrix), open-loop serve, tiered-storage warm-restart,
# sharded-cluster, live-timeline/alerting and attribution-profile smokes (all
# under timeouts so a hung pool cannot wedge CI), and the diff gate comparing
# each smoke report against its committed baseline snapshot.

SMOKE_TIMEOUT ?= 900
JOBS ?= 4

# Per-stage wall-time ledger: a recipe wrapped as $(STAGE_START) <command>
# $(STAGE_END) prints "stage <target> <seconds>" (whole seconds, POSIX shell
# and date only) and keeps the command's exit status.
STAGE_START = t0=$$(date +%s);
STAGE_END = ; rc=$$?; echo "stage $@ $$(($$(date +%s) - t0))"; exit $$rc

.PHONY: all build test smoke faults-smoke corun-smoke bench-corun serve-smoke bench-serve tier-smoke cluster-smoke watch-smoke profile-smoke diff-gate check clean

all: build

build:
	$(STAGE_START) dune build $(STAGE_END)

test:
	$(STAGE_START) dune runtest $(STAGE_END)

smoke: build
	$(STAGE_START) timeout $(SMOKE_TIMEOUT) dune exec bench/main.exe -- --perf-smoke --jobs $(JOBS) $(STAGE_END)

# Small fixed-seed campaign: one benchmark, two rates, all protections.
# Exercises the injector, protection paths, and the resilience report
# end to end in a few seconds; the report is uploaded as a CI artifact.
faults-smoke: build
	$(STAGE_START) timeout $(SMOKE_TIMEOUT) dune exec bin/axmemo_cli.exe -- faults \
	  -b fft --sample --seed 1234 --rates 1e-3,1e-2 --jobs $(JOBS) \
	  --quiet --metrics FAULTS_SMOKE.json $(STAGE_END)

# Small fixed-seed co-run matrix: two-workload mix over 1 and 2 cores, all
# partitioning policies, fanned over the pool. Exercises the shared LUT,
# arbitration, the scheduler and the bounded co-run report end to end; the
# report is uploaded as a CI artifact.
corun-smoke: build
	$(STAGE_START) timeout $(SMOKE_TIMEOUT) dune exec bin/axmemo_cli.exe -- corun \
	  -b blackscholes,sobel --sample --seed 1234 --cores 1,2 --requests 8 \
	  --jobs $(JOBS) --quiet --metrics CORUN_SMOKE.json $(STAGE_END)

# The co-run matrix (bench experiment): the fft+sobel mix on Eval inputs
# over 1, 2 and 4 cores and all three partitioning policies. Writes
# BENCH_CORUN.json (cluster registries only) with no wall-clock fields, so
# its gate is exact.
bench-corun: build
	$(STAGE_START) timeout $(SMOKE_TIMEOUT) dune exec bench/main.exe -- corun --jobs $(JOBS) $(STAGE_END)

# Small fixed-seed open-loop service matrix: Poisson arrivals at two loads
# over 1 and 2 cores into a bounded drop-tail queue. Exercises arrival
# generation, the open dispatcher, shedding, the latency histograms, the
# SLO accounting and the "service" report section end to end; --wall adds
# the per-run simulator wall time so the gate also watches serve-path
# throughput (with a loose tolerance).
serve-smoke: build
	$(STAGE_START) timeout $(SMOKE_TIMEOUT) dune exec bin/axmemo_cli.exe -- serve \
	  -b blackscholes,sobel --sample --seed 1234 --cores 1,2 --requests 24 \
	  --partition ffa --arrival poisson --load 0.8,2 --queue 4 \
	  --jobs $(JOBS) --wall --quiet --metrics SERVE_SMOKE.json $(STAGE_END)

# The offered-load ramp (bench experiment): saturation sweep over cores and
# partition policies; writes BENCH_SERVE.json with no wall-clock fields, so
# its gate is exact.
bench-serve: build
	$(STAGE_START) timeout $(SMOKE_TIMEOUT) dune exec bench/main.exe -- serve --jobs $(JOBS) $(STAGE_END)

# Warm-restart smoke (bench experiment): a closed co-run with small SRAM
# LUTs spills into the DRAM L3 tier, its LUT state is captured into
# TIER_SNAPSHOT.axs, and a cold vs warm open-loop serve pair is compared on
# the first-window hit rate (the experiment exits nonzero if warm does not
# beat cold). Writes TIER_SMOKE.json with no wall-clock fields, so its gate
# is exact.
tier-smoke: build
	$(STAGE_START) timeout $(SMOKE_TIMEOUT) dune exec bench/main.exe -- tier --jobs $(JOBS) $(STAGE_END)

# Sharded-cluster smoke (bench experiment): the 1/2/4-node scale-out curve
# on the blackscholes+sobel mix plus a kmeans directory-vs-broadcast twin.
# The experiment exits nonzero unless 2 nodes out-serve 1 node, the
# directory sends strictly fewer invalidation messages than the flat
# per-core broadcast fan-out, and the report is byte-identical between
# serial and parallel matrices. Writes CLUSTER_SMOKE.json with no
# wall-clock fields, so its gate is exact.
cluster-smoke: build
	$(STAGE_START) timeout $(SMOKE_TIMEOUT) dune exec bench/main.exe -- cluster --jobs $(JOBS) $(STAGE_END)

# Live-timeline smoke (bench experiment): the blackscholes+sobel mix at
# loads 0.5 and 2.0 with --watch on. The experiment exits nonzero unless
# every run's per-window deltas sum exactly to its end-of-run service
# aggregates, the SLO burn-rate alert fires at load 2 and stays quiet at
# load 0.5, and the report — timeline and alert sections included — is
# byte-identical between serial and parallel matrices. Writes
# WATCH_SMOKE.json with no wall-clock fields, so its gate is exact.
watch-smoke: build
	$(STAGE_START) timeout $(SMOKE_TIMEOUT) dune exec bench/main.exe -- watch --jobs $(JOBS) $(STAGE_END)

# Attribution-profile smoke: a profiled two-core co-run of the
# blackscholes+sobel mix. Every region's class cycles and counts land in
# the report's "profile" sections, which carry no wall-clock fields, so the
# gate is exact and pins the timing model's per-class charges and region
# attribution end to end.
profile-smoke: build
	$(STAGE_START) timeout $(SMOKE_TIMEOUT) dune exec bin/axmemo_cli.exe -- corun \
	  -b blackscholes,sobel --sample --seed 1234 --cores 2 --requests 8 --profile \
	  --jobs $(JOBS) --quiet --metrics PROFILE_SMOKE.json $(STAGE_END)

# Regression gate: every metric in the fresh smoke reports must match the
# committed baseline exactly (the simulator is deterministic), with one
# exception: summary.sim_wall_seconds is host wall clock, so it carries a
# loose tolerance — wide enough not to flap on machine noise, tight enough
# to catch an order-of-magnitude simulator-throughput regression. A
# legitimate perf or model change updates the snapshot in the same PR:
#   cp BENCH_PR1.json FAULTS_SMOKE.json CORUN_SMOKE.json BENCH_CORUN.json \
#      SERVE_SMOKE.json BENCH_SERVE.json TIER_SMOKE.json CLUSTER_SMOKE.json \
#      WATCH_SMOKE.json PROFILE_SMOKE.json bench/baselines/
diff-gate: smoke faults-smoke corun-smoke bench-corun serve-smoke bench-serve tier-smoke cluster-smoke watch-smoke profile-smoke
	dune exec bin/axmemo_cli.exe -- diff bench/baselines/BENCH_PR1.json BENCH_PR1.json \
	  --tol "summary.sim_wall_seconds=3:0.5" --gate --quiet
	dune exec bin/axmemo_cli.exe -- diff bench/baselines/FAULTS_SMOKE.json FAULTS_SMOKE.json --gate --quiet
	dune exec bin/axmemo_cli.exe -- diff bench/baselines/CORUN_SMOKE.json CORUN_SMOKE.json --gate --quiet
	dune exec bin/axmemo_cli.exe -- diff bench/baselines/BENCH_CORUN.json BENCH_CORUN.json --gate --quiet
	dune exec bin/axmemo_cli.exe -- diff bench/baselines/SERVE_SMOKE.json SERVE_SMOKE.json \
	  --tol "summary.sim_wall_seconds=3:0.5" --gate --quiet
	dune exec bin/axmemo_cli.exe -- diff bench/baselines/BENCH_SERVE.json BENCH_SERVE.json --gate --quiet
	dune exec bin/axmemo_cli.exe -- diff bench/baselines/TIER_SMOKE.json TIER_SMOKE.json --gate --quiet
	dune exec bin/axmemo_cli.exe -- diff bench/baselines/CLUSTER_SMOKE.json CLUSTER_SMOKE.json --gate --quiet
	dune exec bin/axmemo_cli.exe -- diff bench/baselines/WATCH_SMOKE.json WATCH_SMOKE.json --gate --quiet
	dune exec bin/axmemo_cli.exe -- diff bench/baselines/PROFILE_SMOKE.json PROFILE_SMOKE.json --gate --quiet

check: build test diff-gate

clean:
	dune clean
