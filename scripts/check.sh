#!/usr/bin/env bash
# Tier-1 verification: the normal build + full test suite, sanitizer
# builds, byte-identity of the user-facing outputs against the golden
# captures, and the ready-list scheduler's perf gate. Run from the
# repo root:
#
#   scripts/check.sh
#
# The sanitizer stages rebuild into build-tsan/ and build-asan/ so
# they never disturb the primary build tree.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== tier-1: build =="
cmake -B build -S . >/dev/null
cmake --build build -j

echo "== tier-1: ctest =="
(cd build && ctest --output-on-failure -j)
# Parameterized test names embed a dump of the parameter; two listings
# must agree or the names ctest registers change from build to build.
diff <(./build/tests/test_fuzz --gtest_list_tests) \
     <(./build/tests/test_fuzz --gtest_list_tests)

echo "== tier-1: ThreadSanitizer (test_sweep, test_obs, test_cpi, test_sweepdiff) =="
cmake -B build-tsan -S . -DVSIM_SANITIZE=thread >/dev/null
cmake --build build-tsan -j --target test_sweep test_obs test_cpi \
    test_sweepdiff test_shard
# Includes SharedKernel.*: the kernel memo's mutexes and the weak_ptr
# hand-off of one pre-executed trace across pool workers.
./build-tsan/tests/test_sweep
./build-tsan/tests/test_obs
# CPI-stack / ledger identity across worker counts runs a real pool.
./build-tsan/tests/test_cpi
# The randomized sparse-vs-dense sweep differential also runs here:
# its programs are sized for sanitizer throughput.
./build-tsan/tests/test_sweepdiff
# The shard runner's worker pool hands per-shard results back across
# threads for the ordered merge; the inline-vs-pool identity test
# drives it end to end.
./build-tsan/tests/test_shard \
    --gtest_filter='ShardMerge.ParallelWorkersMatchInline'
# The sweep daemon's accept loop, per-connection threads, batch
# condvars and disk-backed RunCache are this PR's concurrency
# surface. The fork-based two-process test stays out: forking a
# threaded TSan process is undefined.
cmake --build build-tsan -j --target test_disk_cache
./build-tsan/tests/test_disk_cache --gtest_filter='-DiskCacheProcess.*'
# Sampled replay details representatives on the shared ThreadPool and
# merges their weighted stats in plan order; the jobs-1-vs-4 identity
# test drives that path end to end. The eight-kernel error-bound test
# stays in ctest: it reruns every kernel at full detail.
cmake --build build-tsan -j --target test_sample
./build-tsan/tests/test_sample --gtest_filter=\
'SampledRun.*-SampledRun.SpeedupErrorWithinBoundOnEveryKernel'

echo "== tier-1: Address+UB Sanitizer (core, policy, scheduler) =="
cmake -B build-asan -S . -DVSIM_SANITIZE=address,undefined >/dev/null
cmake --build build-asan -j --target \
    test_core_base test_core_vspec test_core_misc test_core_xprod \
    test_policy test_event_queue test_scheduler test_sweepdiff test_cpi \
    test_fuzz
./build-asan/tests/test_core_base
./build-asan/tests/test_core_vspec
./build-asan/tests/test_core_misc
# The ledger's slot-indexed record table is allocation-lifetime
# territory; run the attribution/ledger suite under ASan too.
./build-asan/tests/test_cpi
./build-asan/tests/test_policy
./build-asan/tests/test_event_queue
./build-asan/tests/test_scheduler
./build-asan/tests/test_sweepdiff
# The full cross product is covered (without sanitizers) by ctest;
# under ASan run the regression slice plus the speculative
# memory-resolution slice (memDeps bookkeeping is exactly the kind of
# lifetime bug the sanitizers exist for) to keep the gate fast. The
# sparse/dense identity test adds the subscriber-index invariant
# checker (stale-entry pruning touches freed slots) on full windows.
./build-asan/tests/test_core_xprod --gtest_filter=\
'CoreXprod.MixedHierVerifyFlatInvalRegression:CoreXprod.SpecMemResolutionAcrossSchemes:CoreXprod.SparseDenseIdentityAcrossSchemes'
# Load disambiguation over the per-cycle store table: byte masks and
# shifts over partial overlaps, straddles and several covering stores
# at windows 256 and 512 (UBSan sees a bad shift), plus memDeps.
./build-asan/tests/test_fuzz --gtest_filter=\
'Seeds/FuzzDifferential.*specmem*:Seeds/FuzzDifferential.*unaligned*'
# The trace frontend moves raw bytes through fixed-layout structs and
# hand-rolled buffers — exactly ASan/UBSan territory. Run the strict-
# reader rejection cases (burst-seam defects included), the content-
# hash tests and one full record/replay round trip (queens covers both
# window sizes and both sweep kinds).
cmake --build build-asan -j --target test_trace
./build-asan/tests/test_trace --gtest_filter=\
'TraceReject.*:TraceHash.*:TraceRoundTrip.Queens:TraceWorkload.*'
# Snapshot serialization moves raw bytes through tagged sections, and
# the full-warmup shard merge walks every seam-coalescing path
# (interval halves, ledger carries) over slot-indexed state — both
# sanitizer territory. The remaining shard tests rerun whole kernels
# many times over; ctest covers them unsanitized.
cmake --build build-asan -j --target test_shard
./build-asan/tests/test_shard --gtest_filter=\
'Snapshot.*:PlanShards.*:ShardMerge.FullWarmupIdenticalAcrossShardCounts:ShardMerge.ParallelWorkersMatchInline'
# The disk-cache codec and the daemon wire protocol move raw bytes
# through hand-rolled buffers, hex decoding and checksum scans —
# ASan/UBSan territory end to end (including the corrupt/truncated
# eviction paths and the fork-based two-process store test).
cmake --build build-asan -j --target test_disk_cache
./build-asan/tests/test_disk_cache
# BBV accumulation, the k-means clusterer and the weighted merges all
# index into freshly-sized vectors by computed cluster/bucket ids —
# off-by-one territory ASan/UBSan sees directly. The eight-kernel
# error-bound test is excluded for runtime (ctest covers it).
cmake --build build-asan -j --target test_sample
./build-asan/tests/test_sample --gtest_filter=\
'-SampledRun.SpeedupErrorWithinBoundOnEveryKernel'

echo "== tier-1: golden byte-identity (vspec_run / vspec_sweep) =="
# Every user-facing table and run output must match the pre-refactor
# captures byte for byte — under both sweep domains: the sparse
# subscriber-list sweeps (the default) and the legacy dense scans
# must be indistinguishable in every output.
for kind in sparse dense; do
    for wl in queens compress m88k; do
        ./build/tools/vspec_run --workload "$wl" --scale 1 --base \
            --sweep-kind "$kind" \
            | diff - "tests/golden/run_${wl}_base.txt"
        for model in super great good; do
            ./build/tools/vspec_run --workload "$wl" --scale 1 \
                --model "$model" --sweep-kind "$kind" \
                | diff - "tests/golden/run_${wl}_${model}.txt"
            # Speculative memory resolution (§3.2) has its own
            # captures; the valid-ops outputs above must stay
            # untouched by it.
            ./build/tools/vspec_run --workload "$wl" --scale 1 \
                --model "$model" --mem-resolution spec \
                --sweep-kind "$kind" \
                | diff - "tests/golden/run_${wl}_${model}_specmem.txt"
        done
    done
    # The widest windows, where long LSQs keep many loads waiting on
    # older stores.
    ./build/tools/vspec_run --workload compress --scale 1 --width 8 \
        --window 512 --model good --conf always --mem-resolution spec \
        --sweep-kind "$kind" \
        | diff - tests/golden/run_compress_w512_good_always_specmem.txt
    ./build/tools/vspec_run --workload m88k --scale 1 --width 8 \
        --window 256 --model good --conf always --mem-resolution spec \
        --sweep-kind "$kind" \
        | diff - tests/golden/run_m88k_w256_good_always_specmem.txt
    for sweep in base fig3 fig4 confidence predictors verif-latency \
                 reissue-latency; do
        ./build/tools/vspec_sweep "$sweep" --quick --scale 1 --jobs 4 \
            --sweep-kind "$kind" \
            | diff - "tests/golden/sweep_${sweep}.txt"
    done
done
# The 78 cross-product stats digests must also be identical under the
# dense scans (ctest covers the sparse default).
VSIM_XPROD_SWEEP=dense ./build/tests/test_core_xprod >/dev/null
echo "golden outputs identical (sparse and dense)"

echo "== tier-1: trace JSON validity =="
obs_dir=$(mktemp -d)
trap 'rm -rf "$obs_dir"' EXIT
./build/tools/vspec_run --workload queens --scale 1 --base \
    --trace-retain 200 --trace-json "$obs_dir/pipeline.json" >/dev/null
./build/tools/vspec_sweep base --quick --scale 1 --jobs 2 \
    --metrics-interval 500 --metrics "$obs_dir/metrics.csv" \
    --trace-json "$obs_dir/sweep.json" >/dev/null
python3 -m json.tool "$obs_dir/pipeline.json" >/dev/null
python3 -m json.tool "$obs_dir/sweep.json" >/dev/null
echo "trace JSON OK"

echo "== tier-1: CPI stack / ledger JSON validity =="
./build/tools/vspec_run --workload queens --scale 1 --model great \
    --stacks "$obs_dir/run_stacks.json" \
    --ledger "$obs_dir/run_ledger.json" --ledger-limit 50 >/dev/null
./build/tools/vspec_sweep base --quick --scale 1 --jobs 2 \
    --json "$obs_dir/sweep_cells.json" \
    --stacks "$obs_dir/sweep_stacks.json" \
    --ledger "$obs_dir/sweep_ledger.json" >/dev/null
python3 -m json.tool "$obs_dir/run_stacks.json" >/dev/null
python3 -m json.tool "$obs_dir/run_ledger.json" >/dev/null
python3 -m json.tool "$obs_dir/sweep_cells.json" >/dev/null
python3 -m json.tool "$obs_dir/sweep_stacks.json" >/dev/null
python3 -m json.tool "$obs_dir/sweep_ledger.json" >/dev/null
# The diff tool must parse its own drivers' outputs.
./build/tools/vspec_stacks "$obs_dir/run_stacks.json" \
    "$obs_dir/run_stacks.json" >/dev/null
echo "CPI stack / ledger JSON OK"

echo "== tier-1: persistent run cache (warm run identical, all hits) =="
# A sweep re-run over a populated --cache-dir must be byte-identical
# in every deterministic output and simulate nothing; and the
# flags-off output must be untouched by the feature existing.
# The "wrote <path>" announcements name the caller-chosen output
# files, which legitimately differ between the runs — compare the
# table content, not those lines.
sweep_table() { grep -v -e '^wrote ' -e '^$' "$1"; }
cache_dir="$obs_dir/runcache"
./build/tools/vspec_sweep base --quick --scale 1 --jobs 4 \
    --cache-dir "$cache_dir" --csv "$obs_dir/cache_cold.csv" \
    > "$obs_dir/cache_cold.txt"
./build/tools/vspec_sweep base --quick --scale 1 --jobs 4 \
    --cache-dir "$cache_dir" --csv "$obs_dir/cache_warm.csv" \
    --json "$obs_dir/cache_warm.json" > "$obs_dir/cache_warm.txt"
diff <(sweep_table "$obs_dir/cache_cold.txt") \
     <(sweep_table "$obs_dir/cache_warm.txt")
diff "$obs_dir/cache_cold.csv" "$obs_dir/cache_warm.csv"
./build/tools/vspec_sweep base --quick --scale 1 --jobs 4 \
    > "$obs_dir/cache_off.txt"
diff <(sweep_table "$obs_dir/cache_off.txt") \
     <(sweep_table "$obs_dir/cache_cold.txt")
python3 - "$obs_dir/cache_warm.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    cells = json.load(f)
hits = sum(c["cache_hit"] for c in cells)
print(f"warm sweep: {hits}/{len(cells)} cells served from the cache")
sys.exit(0 if cells and hits == len(cells) else 1)
EOF

echo "== tier-1: sweep daemon (concurrent clients, restart, all hits) =="
sock="$obs_dir/sweepd.sock"
daemon_cache="$obs_dir/daemon-cache"
./build/tools/vspec_sweepd --socket "$sock" \
    --cache-dir "$daemon_cache" --workers 4 \
    2> "$obs_dir/sweepd1.log" &
daemon_pid=$!
for _ in $(seq 100); do [ -S "$sock" ] && break; sleep 0.05; done
# Two concurrent clients with overlapping grids; the daemon dedupes
# shared cells through its one RunCache.
./build/tools/vspec_sweep base --quick --scale 1 --jobs 4 \
    --server "$sock" > "$obs_dir/daemon_a.txt" &
client_a=$!
./build/tools/vspec_sweep fig4 --quick --scale 1 --jobs 4 \
    --server "$sock" > "$obs_dir/daemon_b.txt" &
client_b=$!
wait "$client_a" "$client_b"
kill "$daemon_pid"
wait "$daemon_pid" || true
# Restart over the same disk cache: the re-swept batch must arrive
# without a single simulation and byte-identical.
./build/tools/vspec_sweepd --socket "$sock" \
    --cache-dir "$daemon_cache" --workers 4 \
    2> "$obs_dir/sweepd2.log" &
daemon_pid=$!
for _ in $(seq 100); do [ -S "$sock" ] && break; sleep 0.05; done
./build/tools/vspec_sweep base --quick --scale 1 --jobs 4 \
    --server "$sock" --json "$obs_dir/daemon_a2.json" \
    > "$obs_dir/daemon_a2.txt"
kill "$daemon_pid"
wait "$daemon_pid" || true
diff <(sweep_table "$obs_dir/daemon_a.txt") \
     <(sweep_table "$obs_dir/daemon_a2.txt")
# And a daemon-served sweep must match the direct (in-process) run
# byte for byte, given the same --jobs header.
./build/tools/vspec_sweep base --quick --scale 1 --jobs 4 \
    > "$obs_dir/daemon_direct.txt"
diff <(sweep_table "$obs_dir/daemon_direct.txt") \
     <(sweep_table "$obs_dir/daemon_a.txt")
python3 - "$obs_dir/daemon_a2.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    cells = json.load(f)
hits = sum(c["cache_hit"] for c in cells)
print(f"restarted daemon: {hits}/{len(cells)} cells from the disk cache")
sys.exit(0 if cells and hits == len(cells) else 1)
EOF

echo "== tier-1: trace record/replay identity =="
# A recorded .vst trace replayed through the timing core must be
# byte-identical to direct simulation of the same kernel — the whole
# point of the decode-free frontend. Gate it end to end through the
# CLI at the paper's machine and at the CVP-scale window.
./build/tools/vspec_tracegen --workload queens --scale 1 \
    -o "$obs_dir/queens.vst" >/dev/null
./build/tools/vspec_run --workload queens --scale 1 --model great \
    > "$obs_dir/direct_48.txt"
./build/tools/vspec_run --trace "$obs_dir/queens.vst" --model great \
    | sed "s|trace:$obs_dir/queens.vst|queens|" \
    | diff - "$obs_dir/direct_48.txt"
./build/tools/vspec_run --workload queens --scale 1 --model great \
    --window 512 --fetch-width 16 > "$obs_dir/direct_512.txt"
./build/tools/vspec_run --trace "$obs_dir/queens.vst" --model great \
    --window 512 --fetch-width 16 \
    | sed "s|trace:$obs_dir/queens.vst|queens|" \
    | diff - "$obs_dir/direct_512.txt"
echo "trace replay identical to direct simulation (window 48 and 512)"

echo "== tier-1: trace load memory gate =="
# The loader streams the records and keeps only the decoded trace
# (~40 B per instruction); holding the whole raw record array beside it
# as well costs ~88 B. Replay a ~4M-instruction trace under an address-
# space limit of 64 MB (binary, stacks, allocator) plus 60 B per
# instruction: the streaming loader fits with ~80 MB to spare, a
# loader that keeps the record array exceeds it by ~40 MB or more.
mem_trace="$obs_dir/queens_mem.vst"
mem_insts=$(./build/tools/vspec_tracegen --workload queens --scale 10 \
    -o "$mem_trace" | sed -n 's/^wrote .*: \([0-9]*\) records.*/\1/p')
mem_limit_kb=$(( 64 * 1024 + mem_insts * 60 / 1024 ))
if ! (ulimit -v "$mem_limit_kb"
      ./build/tools/vspec_run --trace "$mem_trace" --base --sample 2 \
          --sample-interval-insts 100000 >/dev/null 2>&1); then
    echo "trace replay of $mem_insts insts did not fit in" \
         "$((mem_limit_kb / 1024)) MB of address space" >&2
    exit 1
fi
rm -f "$mem_trace"
echo "$mem_insts-inst trace replayed within $((mem_limit_kb / 1024)) MB"

echo "== tier-1: sharded run identity (full warmup) =="
# At full warmup (the default) the shard partition is exact: every
# user-facing artifact of an 8-shard run must be byte-identical to the
# 1-shard run — the report, the CPI stacks, the speculation ledger,
# and the interval-metrics CSV. --jobs 2 keeps a real worker pool in
# the loop on the 8-shard side.
for shards in 1 8; do
    ./build/tools/vspec_run --workload queens --scale 1 --model great \
        --shards "$shards" --jobs 2 \
        --stacks "$obs_dir/shard${shards}_stacks.json" \
        --ledger "$obs_dir/shard${shards}_ledger.json" \
        --ledger-limit 200 \
        --metrics "$obs_dir/shard${shards}_metrics.csv" \
        --metrics-interval 1000 \
        > "$obs_dir/shard${shards}_report.txt" 2>/dev/null
done
for f in report.txt stacks.json ledger.json metrics.csv; do
    diff "$obs_dir/shard1_$f" "$obs_dir/shard8_$f"
done
echo "1-shard and 8-shard outputs identical"

echo "== tier-1: sharded finite-warmup speedup error (<= 1%) =="
# With finite warmup the shards start from functional-warmup
# snapshots and the partition is approximate. The paper-level
# deliverable — harmonic-mean speedup of a value-predicting machine
# over the base machine across kernels — must stay within 1% of the
# monolithic value.
for wl in queens compress m88k; do
    ./build/tools/vspec_run --workload "$wl" --scale 1 --base \
        > "$obs_dir/hm_${wl}_base_mono.txt"
    ./build/tools/vspec_run --workload "$wl" --scale 1 --model great \
        > "$obs_dir/hm_${wl}_great_mono.txt"
    ./build/tools/vspec_run --workload "$wl" --scale 1 --base \
        --shards 4 --warmup-insts 20000 \
        > "$obs_dir/hm_${wl}_base_shard.txt" 2>/dev/null
    ./build/tools/vspec_run --workload "$wl" --scale 1 --model great \
        --shards 4 --warmup-insts 20000 \
        > "$obs_dir/hm_${wl}_great_shard.txt" 2>/dev/null
done
python3 - "$obs_dir" <<'EOF'
import re, statistics, sys

def cycles(path):
    with open(path) as f:
        return int(re.search(r"cycles\s*:\s*(\d+)", f.read()).group(1))

d = sys.argv[1]

def hmean(kind):
    return statistics.harmonic_mean(
        [cycles(f"{d}/hm_{wl}_base_{kind}.txt")
         / cycles(f"{d}/hm_{wl}_great_{kind}.txt")
         for wl in ("queens", "compress", "m88k")])

mono, shard = hmean("mono"), hmean("shard")
err = abs(shard / mono - 1)
print(f"hmean speedup: monolithic {mono:.4f}, sharded {shard:.4f} "
      f"-> {err * 100:.3f}% error")
sys.exit(0 if err <= 0.01 else 1)
EOF

echo "== tier-1: sampled-run speedup error (<= 2%) =="
# SimPoint-style sampling (--sample k) replays one representative per
# phase and scales its stats by the phase population. Absolute counts
# are approximate by design, but the paper-level deliverable — the
# harmonic-mean speedup of the value-predicting machine over base —
# must stay within 2% of the full-detail value. Reuses the monolithic
# runs captured by the finite-warmup stage above. (The per-kernel
# bound on all eight kernels runs in tests/test_sample.cc.)
for wl in queens compress m88k; do
    ./build/tools/vspec_run --workload "$wl" --scale 1 --base \
        --sample 4 --sample-interval-insts 20000 --jobs 4 \
        > "$obs_dir/hm_${wl}_base_sampled.txt" 2>/dev/null
    ./build/tools/vspec_run --workload "$wl" --scale 1 --model great \
        --sample 4 --sample-interval-insts 20000 --jobs 4 \
        > "$obs_dir/hm_${wl}_great_sampled.txt" 2>/dev/null
done
python3 - "$obs_dir" <<'EOF'
import re, statistics, sys

def cycles(path):
    with open(path) as f:
        return int(re.search(r"cycles\s*:\s*(\d+)", f.read()).group(1))

d = sys.argv[1]

def hmean(kind):
    return statistics.harmonic_mean(
        [cycles(f"{d}/hm_{wl}_base_{kind}.txt")
         / cycles(f"{d}/hm_{wl}_great_{kind}.txt")
         for wl in ("queens", "compress", "m88k")])

full, sampled = hmean("mono"), hmean("sampled")
err = abs(sampled / full - 1)
print(f"hmean speedup: full {full:.4f}, sampled {sampled:.4f} "
      f"-> {err * 100:.3f}% error")
sys.exit(0 if err <= 0.02 else 1)
EOF
# The committed ~100M-instruction scaling measurement (re-captured by
# scripts/bench_snapshot.sh) must show sampling earning its keep:
# >= 5x modeled wall-clock speedup at 8 workers, and a <= 2% error on
# the base/great speedup ratio at that scale.
python3 - BENCH_PR10.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    s = json.load(f)["sample_scaling"]
print(f"sample_scaling: {s['speedup_at_jobs8']}x at jobs=8, "
      f"{s['speedup_rel_err'] * 100:.2f}% speedup error "
      f"({s['instructions']} insts, {s['phases']} phases)")
sys.exit(0 if s["speedup_at_jobs8"] >= 5.0
         and s["speedup_rel_err"] <= 0.02 else 1)
EOF

echo "== tier-1: scheduler perf gate (window 256) =="
# The ready-list scheduler must simulate >= 1.3x the cycles/second of
# the legacy scan at --window 256; the measurement is kept as
# google-benchmark JSON in build/bench/.
./build/bench/perf_simulator \
    --benchmark_filter='BM_OooWindow256' --benchmark_min_time=1 \
    --benchmark_out=build/bench/perf_window256.json \
    --benchmark_out_format=json >/dev/null 2>&1
python3 - build/bench/perf_window256.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
rates = {}
for b in report["benchmarks"]:
    rates[b["label"]] = b["simcycles/s"]
ratio = rates["ready-list"] / rates["scan"]
print(f"scan {rates['scan']:.0f} cyc/s, ready-list "
      f"{rates['ready-list']:.0f} cyc/s -> {ratio:.2f}x")
sys.exit(0 if ratio >= 1.3 else 1)
EOF

echo "== tier-1: sweep perf gate (window 256) =="
# The sparse subscriber-list sweeps must simulate >= 1.3x the
# cycles/second of the legacy dense window scans on the 256-entry
# value-speculation benchmark.
./build/bench/perf_simulator \
    --benchmark_filter='BM_OooValueSpeculation/256' \
    --benchmark_min_time=1 \
    --benchmark_out=build/bench/perf_sweep256.json \
    --benchmark_out_format=json >/dev/null 2>&1
python3 - build/bench/perf_sweep256.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
rates = {}
for b in report["benchmarks"]:
    rates[b["label"]] = b["simcycles/s"]
ratio = rates["w256-sparse"] / rates["w256-dense"]
print(f"dense {rates['w256-dense']:.0f} cyc/s, sparse "
      f"{rates['w256-sparse']:.0f} cyc/s -> {ratio:.2f}x")
sys.exit(0 if ratio >= 1.3 else 1)
EOF

echo "== tier-1: mask-scan perf gate (word vs legacy) =="
# The countr_zero word scans in mask_ops.hh must be at least as fast
# as the per-bit iteration they replaced, at both the sparse density
# the subscriber masks live at and the dense squash-wave tail. Both
# variants run in the same process over the same masks, so ambient
# machine drift cancels; medians of three repetitions ride out noise.
./build/bench/perf_simulator \
    --benchmark_filter='BM_MaskScan' \
    --benchmark_min_time=0.5 --benchmark_repetitions=3 \
    --benchmark_out=build/bench/perf_maskscan.json \
    --benchmark_out_format=json >/dev/null 2>&1
python3 - build/bench/perf_maskscan.json <<'EOF'
import json, statistics, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
rates = {}
for b in report["benchmarks"]:
    if b.get("run_type") == "iteration":
        rates.setdefault(b["label"], []).append(b["scan/s"])
ok = True
for bits in (2, 32):
    word = statistics.median(rates[f"word-b{bits}"])
    legacy = statistics.median(rates[f"legacy-b{bits}"])
    ratio = word / legacy
    print(f"avg {bits} bits: legacy {legacy:.0f} scan/s, "
          f"word {word:.0f} scan/s -> {ratio:.2f}x")
    ok = ok and ratio >= 1.0
sys.exit(0 if ok else 1)
EOF

echo "== tier-1: regression vs committed baseline (window 256) =="
# The w256-sparse simulation rate must stay within 3% of the latest
# committed snapshot (BENCH_PR10.json). The original form of this
# gate compared against BENCH_PR5.json, but this container's ambient
# speed drifts a few percent between capture dates (benchmarks this
# repo has never touched again moved by up to 9%), so the baseline is
# re-captured by scripts/bench_snapshot.sh each bench PR and the gate
# tracks the newest snapshot. Measured fresh with three repetitions —
# the median rides out scheduler noise that a single one-second
# sample does not.
./build/bench/perf_simulator \
    --benchmark_filter='BM_OooValueSpeculation/256' \
    --benchmark_min_time=1 --benchmark_repetitions=3 \
    --benchmark_out=build/bench/perf_attrib256.json \
    --benchmark_out_format=json >/dev/null 2>&1
python3 - build/bench/perf_attrib256.json BENCH_PR10.json <<'EOF'
import json, statistics, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
reps = [b["inst/s"] for b in report["benchmarks"]
        if b["label"] == "w256-sparse"
        and b.get("run_type") == "iteration"]
now = statistics.median(reps)
with open(sys.argv[2]) as f:
    baseline = json.load(f)["BM_OooValueSpeculation/w256-sparse"]
ratio = now / baseline
print(f"baseline {baseline:.0f} inst/s, fresh "
      f"{now:.0f} inst/s (median of {len(reps)}) -> {ratio:.3f}x")
sys.exit(0 if ratio >= 0.97 else 1)
EOF

echo "== tier-1: OK =="
