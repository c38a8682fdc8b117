# Entry points for the CHEx86 reproduction.
#
#   make check   build + full test suite + parallel smoke sweep
#   make build   compile everything
#   make test    dune runtest only
#   make test-checked   dune runtest without -unsafe (bounds-checked)

.PHONY: all build test test-checked smoke fault-smoke remote-smoke \
	trace-smoke trace-frontend-smoke security-matrix store-smoke check clean

all: build

build:
	dune build

test:
	dune runtest

# Every suite again with array bounds checks on (the `checked` profile
# of the root dune file drops -unsafe), built under _build_checked/ so
# the default build stays as it is.
test-checked:
	dune runtest --profile checked --build-dir _build_checked

# Quick end-to-end sanity: a figure-6 sweep on three representative
# workloads, then the victim-cache ablation, sharded over 2 worker
# domains in batched chunks.  Exercises the domain pool, batched
# dispatch and the shared cells: the ablation adds 10 tasks to
# figure 6's 18, because its mcf and canneal "with victim" cells are
# figure 6's prediction runs.
smoke: build
	rm -f /tmp/chex86-smoke-metrics.json
	CHEX86_WORKLOADS=mcf,canneal,freqmine CHEX86_SCALE=1 \
		dune exec bench/main.exe -- --jobs 2 --batch-size 2 \
		--metrics /tmp/chex86-smoke-metrics.json figure6 ablation-victim
	grep -F '"pool.tasks":28' /tmp/chex86-smoke-metrics.json > /dev/null

# Supervision sanity: with deterministic fault injection armed, the
# sweep must still complete (exit 0, non-empty fault report); the same
# sweep under --strict must flip the exit code.
fault-smoke: build
	CHEX86_WORKLOADS=mcf,canneal CHEX86_SCALE=1 \
	CHEX86_FAULT_RATE=0.5 CHEX86_FAULT_SEED=11 \
		dune exec bench/main.exe -- --jobs 2 --no-cache figure6 \
		| grep -q "sweep fault report"
	! CHEX86_WORKLOADS=mcf,canneal CHEX86_SCALE=1 \
	CHEX86_FAULT_RATE=0.5 CHEX86_FAULT_SEED=11 \
		dune exec bench/main.exe -- --jobs 2 --no-cache --strict figure6 \
		> /dev/null

# Distributed dispatch sanity, three legs:
#  1. the full security sweep sharded over 2 spawned worker processes
#     must block every exploit (exit 0);
#  2. the same under injected worker kills: workers SIGKILL themselves
#     mid-chunk, the supervisor respawns them and re-sends the owed
#     tasks, and the sweep still completes;
#  3. a figure-6 sweep whose tasks each run for seconds, under a
#     heartbeat shorter than they take: healthy workers keep beating,
#     so nothing is killed and --strict exits 0.
remote-smoke: build
	./_build/default/bin/security_eval.exe --workers 2 --no-cache
	CHEX86_FAULT_RATE=0.003 CHEX86_FAULT_SEED=7 CHEX86_FAULT_KIND=kill \
		./_build/default/bin/security_eval.exe --workers 2 --no-cache
	CHEX86_WORKLOADS=freqmine ./_build/default/bench/main.exe --workers 1 \
		--heartbeat 0.5 --no-cache --strict figure6 > /dev/null

# Telemetry sanity: a traced + metered security sweep over 2 worker
# processes must (1) leave a trace the trace-summary validator accepts
# (every end has a begin, parents close after children), (2) contain
# stitched worker span streams alongside the supervisor's, and (3) dump
# a metrics snapshot holding the fault report's counts and the
# supervisor's tally of all 896 exploits.
trace-smoke: build
	rm -f /tmp/chex86-trace.jsonl /tmp/chex86-metrics.json
	./_build/default/bin/security_eval.exe --workers 2 --no-cache \
		--trace /tmp/chex86-trace.jsonl --metrics /tmp/chex86-metrics.json
	./_build/default/bin/chex86_sim.exe trace-summary /tmp/chex86-trace.jsonl
	grep -q '"src":"w' /tmp/chex86-trace.jsonl
	grep -q '"pool.ok":' /tmp/chex86-metrics.json
	grep -q '"sweep.total":896' /tmp/chex86-metrics.json
	grep -q '"sweep.protected_macro_insns"' /tmp/chex86-metrics.json

# Trace-driven frontend sanity: the acceptance one-liner, then the
# deterministic generated trace (seed 1) piped through two presets with
# the per-access CSVs byte-compared against the checked-in goldens (and
# against each other — the presets must actually disagree), plus a
# µop-trace replay leg through the OoO pipeline.  Regenerate the
# goldens after an intentional timing change with:
#   chex86_sim trace-gen --seed 1 --count 2000 > /tmp/t.txt
#   chex86_sim trace --cpu skylake --csv test/golden/trace_skylake.csv /tmp/t.txt
#   chex86_sim trace --cpu tiny --csv test/golden/trace_tiny.csv /tmp/t.txt
trace-frontend-smoke: build
	printf 'R 0x1000\nW 0x1040\n' | ./_build/default/bin/chex86_sim.exe \
		trace --cpu skylake --csv /tmp/chex86-trace-accept.csv > /dev/null
	./_build/default/bin/chex86_sim.exe trace-gen --seed 1 --count 2000 \
		> /tmp/chex86-cachetrace.txt
	./_build/default/bin/chex86_sim.exe trace --cpu skylake \
		--csv /tmp/chex86-trace-skylake.csv /tmp/chex86-cachetrace.txt > /dev/null
	./_build/default/bin/chex86_sim.exe trace --cpu tiny \
		--csv /tmp/chex86-trace-tiny.csv /tmp/chex86-cachetrace.txt > /dev/null
	cmp test/golden/trace_skylake.csv /tmp/chex86-trace-skylake.csv
	cmp test/golden/trace_tiny.csv /tmp/chex86-trace-tiny.csv
	! cmp -s /tmp/chex86-trace-skylake.csv /tmp/chex86-trace-tiny.csv
	./_build/default/bin/chex86_sim.exe trace-gen --format uoptrace \
		--seed 1 --count 500 \
		| ./_build/default/bin/chex86_sim.exe trace --format uoptrace \
			--cpu nehalem --csv /tmp/chex86-uoptrace.csv > /dev/null

# Golden detection matrix: the generated-campaign sweep's
# per-(family x allocator x configuration) matrix must be byte-identical
# to the checked-in golden file — serially, sharded over domains, and
# through spawned worker processes (same seed, same corpus).  Regenerate
# the golden file with:
#   security_eval --campaign-matrix --matrix-seed 1 --matrix-per-family 4 \
#     --matrix-out test/golden/campaign_matrix.json
security-matrix: build
	./_build/default/bin/security_eval.exe --campaign-matrix \
		--matrix-seed 1 --matrix-per-family 4 \
		--matrix-out /tmp/chex86-campaign-matrix.json > /dev/null
	cmp test/golden/campaign_matrix.json /tmp/chex86-campaign-matrix.json
	./_build/default/bin/security_eval.exe --campaign-matrix \
		--matrix-seed 1 --matrix-per-family 4 --jobs 3 --batch-size 2 \
		--matrix-out /tmp/chex86-campaign-matrix-sharded.json > /dev/null
	cmp test/golden/campaign_matrix.json /tmp/chex86-campaign-matrix-sharded.json
	./_build/default/bin/security_eval.exe --campaign-matrix \
		--matrix-seed 1 --matrix-per-family 4 --workers 2 \
		--matrix-out /tmp/chex86-campaign-matrix-workers.json > /dev/null
	cmp test/golden/campaign_matrix.json /tmp/chex86-campaign-matrix-workers.json

# Store crash-safety soak: randomized SIGKILLs at named injection
# points of the publish protocol across serial / --jobs / --workers
# geometries (7 legs x 3 geometries = 21 kill points), each leg
# resumed and byte-compared against a fault-free reference, plus an
# explicit `chex86_sim store fsck` pass over a freshly written store.
# The same sweep re-run warm must be served from the store: all 12
# cells hit, none is simulated or written again.  The cold and warm
# runs repeat at --workers 2 in a fresh directory, where the workers'
# store counts must reach the supervisor's --metrics.
# Reports land in /tmp for CI artifact upload.
store-smoke: build
	./_build/default/test/chaos_soak.exe --legs 7 --seed 42 \
		--report /tmp/chex86-chaos-report.json
	rm -rf /tmp/chex86-store-smoke-cache
	CHEX86_WORKLOADS=mcf,canneal CHEX86_SCALE=1 \
		dune exec bench/main.exe -- --jobs 2 figure6 \
		--cache-dir /tmp/chex86-store-smoke-cache > /dev/null
	CHEX86_WORKLOADS=mcf,canneal CHEX86_SCALE=1 \
		dune exec bench/main.exe -- --jobs 2 figure6 \
		--cache-dir /tmp/chex86-store-smoke-cache \
		--metrics /tmp/chex86-store-warm.json > /dev/null
	grep -F '"hits":12,"misses":0,"writes":0' /tmp/chex86-store-warm.json > /dev/null
	./_build/default/bin/chex86_sim.exe store stats \
		--cache-dir /tmp/chex86-store-smoke-cache
	./_build/default/bin/chex86_sim.exe store fsck \
		--cache-dir /tmp/chex86-store-smoke-cache \
		--out /tmp/chex86-fsck.json
	rm -rf /tmp/chex86-store-smoke-cache
	CHEX86_WORKLOADS=mcf,canneal CHEX86_SCALE=1 \
		dune exec bench/main.exe -- --workers 2 figure6 \
		--cache-dir /tmp/chex86-store-smoke-cache \
		--metrics /tmp/chex86-store-cold-workers.json > /dev/null
	grep -F '"hits":0,"misses":12,"writes":12' \
		/tmp/chex86-store-cold-workers.json > /dev/null
	CHEX86_WORKLOADS=mcf,canneal CHEX86_SCALE=1 \
		dune exec bench/main.exe -- --workers 2 figure6 \
		--cache-dir /tmp/chex86-store-smoke-cache \
		--metrics /tmp/chex86-store-warm-workers.json > /dev/null
	grep -F '"hits":12,"misses":0,"writes":0' \
		/tmp/chex86-store-warm-workers.json > /dev/null
	rm -rf /tmp/chex86-store-smoke-cache

check: build test smoke fault-smoke remote-smoke trace-smoke \
	trace-frontend-smoke security-matrix store-smoke

clean:
	dune clean
