#!/usr/bin/env bash
# bench.sh — run the controller/DAG (including the failover/lineage
# recovery-overhead pair), transport, kernel-engine, gateway
# tenant-scaling/dial-churn, UVM oversubscription-sweep and UVMBench
# workload-sweep micro-benchmarks and emit BENCH_controller.json +
# BENCH_transport.json + BENCH_kernels.json + BENCH_server.json +
# BENCH_gpusim.json + BENCH_workloads.json so future PRs can track the
# fast-path trajectories against recorded baselines.
#
# Usage: ./scripts/bench.sh [benchtime]     (default 2s per benchmark)
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${1:-2s}"
OUT=BENCH_controller.json
RAW="$(mktemp)"
TRAW="$(mktemp)"
KRAW="$(mktemp)"
SRAW="$(mktemp)"
GRAW="$(mktemp)"
trap 'rm -f "$RAW" "$TRAW" "$KRAW" "$SRAW" "$GRAW"' EXIT

echo "== controller benchmarks (-benchtime=$BENCHTIME)"
go test -run '^$' -bench 'BenchmarkControllerSubmitThroughput' \
    -benchtime="$BENCHTIME" -benchmem ./internal/bench/ | tee -a "$RAW"
echo "== dag benchmarks"
go test -run '^$' -bench 'BenchmarkDAGAdd' \
    -benchtime="$BENCHTIME" -benchmem ./internal/dag/ | tee -a "$RAW"
echo "== recovery benchmarks (clean vs chaos-kill lineage replay)"
go test -run '^$' -bench 'BenchmarkRecovery' \
    -benchtime="$BENCHTIME" -benchmem ./internal/bench/ | tee -a "$RAW"

# Parse `BenchmarkName/sub-N  iters  X ns/op  Y B/op  Z allocs/op` lines
# into a JSON object keyed by the benchmark's sub-path.
python3 - "$RAW" "$OUT" <<'EOF'
import json, re, sys

raw, out = sys.argv[1], sys.argv[2]
current = {}
pat = re.compile(
    r'^(Benchmark\S+)\s+\d+\s+([\d.]+) ns/op(?:\s+([\d.]+) B/op\s+(\d+) allocs/op)?')
for line in open(raw):
    m = pat.match(line)
    if not m:
        continue
    # Strip the optional -GOMAXPROCS suffix; benchmark names end in words.
    name = re.sub(r'-\d+$', '', m.group(1).removeprefix('Benchmark'))
    current[name] = {'ns_per_op': float(m.group(2))}
    if m.group(3):
        current[name]['bytes_per_op'] = float(m.group(3))
        current[name]['allocs_per_op'] = int(m.group(4))

# Pre-fast-path baseline (commit 8ad30ca seed tree, same machine class),
# measured with this same harness before the pipelined dispatch, DAG
# epoch-mark rewrite, and cached policy data-views landed.
baseline = {
    'ControllerSubmitThroughput/rr-256w/serial':
        {'ns_per_op': 18507, 'bytes_per_op': 14986, 'allocs_per_op': 41},
    'ControllerSubmitThroughput/mtt-16w/serial':
        {'ns_per_op': 8023, 'bytes_per_op': 3506, 'allocs_per_op': 39},
    'ControllerSubmitThroughput/mtt-256w/serial':
        {'ns_per_op': 39497, 'bytes_per_op': 15026, 'allocs_per_op': 39},
    'DAGAdd/deep-chain': {'ns_per_op': 1212},
    'DAGAdd/wide-fanout': {'ns_per_op': 4651},
    'DAGAdd/fig9-stream': {'ns_per_op': 1021},
    'DAGAdd/diamond': {'ns_per_op': 4467, 'bytes_per_op': 902,
                       'allocs_per_op': 14},
}
# The pipelined submission path postdates the pre-fast-path tree; its
# speedup is computed against the same case's serial baseline (the path
# replaces serial submission, so the ratio is still per-CE admission
# cost, old tree vs new path).
for case in ('rr-256w', 'mtt-16w', 'mtt-256w'):
    baseline[f'ControllerSubmitThroughput/{case}/pipelined'] = \
        baseline[f'ControllerSubmitThroughput/{case}/serial']

doc = {
    'description': 'Controller fast-path micro-benchmarks (Fig. 9 synthetic '
                   'stream); ns_per_op is ns per CE.',
    'baseline_pre_fast_path': baseline,
    'current': current,
}
for name, base in baseline.items():
    cur = current.get(name)
    if cur and cur['ns_per_op'] > 0:
        doc.setdefault('speedup_vs_baseline', {})[name] = round(
            base['ns_per_op'] / cur['ns_per_op'], 2)

# Recovery overhead: one 64-CE in-place chain per op, clean vs with a
# mid-stream chaos kill that forces a failover + full lineage replay.
rec_clean = current.get('Recovery/clean', {}).get('ns_per_op')
rec_kill = current.get('Recovery/chaos-kill', {}).get('ns_per_op')
if rec_clean and rec_kill:
    doc['recovery_overhead'] = {
        'clean_ns_per_run': rec_clean,
        'chaos_kill_ns_per_run': rec_kill,
        'overhead_pct': round(100 * (rec_kill - rec_clean) / rec_clean, 1),
    }
json.dump(doc, open(out, 'w'), indent=2)
print(f'wrote {out}')
EOF

# --- transport data-plane benchmarks (DESIGN.md §5.2) ----------------------
# Runs the bulk channel over the size ladder and records MB/s, B/op and
# allocs/op per point. The largest size (256MiB) is skipped here to keep
# the script fast; run it manually for the head-of-line-blocking sweep.

echo "== transport benchmarks (-benchtime=$BENCHTIME)"
go test -run '^$' -bench 'BenchmarkTransportThroughput/framed/(1KiB|64KiB|1MiB|16MiB)' \
    -benchtime="$BENCHTIME" -benchmem ./internal/bench/ | tee "$TRAW"

python3 - "$TRAW" BENCH_transport.json <<'EOF'
import json, re, sys

raw, out = sys.argv[1], sys.argv[2]
current = {}
pat = re.compile(
    r'^BenchmarkTransportThroughput/(\w+)/(\S+?)(?:-\d+)?\s+\d+\s+'
    r'([\d.]+) ns/op\s+([\d.]+) MB/s\s+([\d.]+) B/op\s+(\d+) allocs/op')
for line in open(raw):
    m = pat.match(line)
    if not m:
        continue
    wire, size = m.group(1), m.group(2)
    current.setdefault(wire, {})[size] = {
        'ns_per_op': float(m.group(3)),
        'mb_per_s': float(m.group(4)),
        'bytes_per_op': float(m.group(5)),
        'allocs_per_op': int(m.group(6)),
    }

doc = {
    'description': 'Data-plane wire benchmarks: one MoveArray (controller '
                   'host -> worker) per op over a loopback TCP worker, per '
                   'array size.',
    'current': current,
}
json.dump(doc, open(out, 'w'), indent=2)
print(f'wrote {out}')
EOF

# --- kernel execution-engine benchmarks (DESIGN.md §5.3) -------------------
# Black–Scholes at 1M elements: the tree-walking reference interpreter vs
# the slot-compiled engine, serial and block-partitioned across
# GOMAXPROCS workers. The interpreter takes seconds per launch, so the
# execution benchmarks run a fixed 3 iterations rather than a time
# budget. GOMAXPROCS is recorded alongside the numbers: parallel scaling
# over compiled-1w is only observable when it is > 1.

echo "== kernel engine benchmarks (-benchtime=3x)"
go test -run '^$' -bench 'BenchmarkKernelExec' -benchtime=3x \
    ./internal/bench/ | tee "$KRAW"
go test -run '^$' -bench 'BenchmarkKernelBuild' -benchtime="$BENCHTIME" \
    ./internal/bench/ | tee -a "$KRAW"

GOMAXPROCS_NOW="${GOMAXPROCS:-$(getconf _NPROCESSORS_ONLN)}"
python3 - "$KRAW" BENCH_kernels.json "$GOMAXPROCS_NOW" <<'EOF'
import json, re, sys

raw, out, nproc = sys.argv[1], sys.argv[2], int(sys.argv[3])
current = {}
pat = re.compile(
    r'^Benchmark(KernelExec|KernelBuild)/(\S+?)(?:-\d+)?\s+\d+\s+'
    r'([\d.]+) ns/op')
for line in open(raw):
    m = pat.match(line)
    if not m:
        continue
    current.setdefault(m.group(1), {})[m.group(2)] = {
        'ns_per_op': float(m.group(3))}

doc = {
    'description': 'Kernel execution-engine benchmarks: Black-Scholes over '
                   '1M float32 elements (grid 4096 x block 256), tree-walk '
                   'interpreter vs slot-compiled closures; plus the '
                   'buildkernel path cold vs compiled-kernel cache hit.',
    'gomaxprocs': nproc,
    'current': current,
}
ex = current.get('KernelExec', {})
interp = ex.get('interp', {}).get('ns_per_op')
c1 = ex.get('compiled-1w', {}).get('ns_per_op')
cn = ex.get('compiled-nw', {}).get('ns_per_op')
if interp and c1:
    doc['compiled_1w_speedup_vs_interp'] = round(interp / c1, 2)
if c1 and cn:
    doc['parallel_scaling_nw_vs_1w'] = round(c1 / cn, 2)
    if nproc == 1:
        doc['parallel_scaling_note'] = (
            'GOMAXPROCS=1 on this machine: compiled-nw degenerates to the '
            'serial engine, so no scaling is observable here.')
bd = current.get('KernelBuild', {})
cold = bd.get('cold', {}).get('ns_per_op')
cached = bd.get('cached', {}).get('ns_per_op')
if cold and cached:
    doc['build_cache_speedup'] = round(cold / cached, 1)
json.dump(doc, open(out, 'w'), indent=2)
print(f'wrote {out}')
EOF

# --- gateway tenant-scaling + shard sweep benchmarks (DESIGN.md §5.5, §5.8)
# Tenants: N concurrent client sessions over loopback TCP against one
# shared 4-worker controller. ns/op is the per-tenant per-launch round
# trip; ce_per_s is aggregate admitted throughput across all tenants and
# p99adm_us the worst per-tenant 99th-percentile admission wait, both
# scraped from the same session counters /metrics exports. The 64x
# rows run under production rate limits; 64x-hostile adds one tenant
# that ignores backpressure, and the recorded containment ratio
# (hostile neighbor p99 / plain 64x p99) must stay <= 2.
# Shards: 16 tenants over a 16-worker fleet, controller fleet sharded
# 1/4/8/16 ways behind one gateway. GOMAXPROCS is recorded alongside:
# the shard speedup is contention relief in the admission/scheduling
# sections, and on a 1-core box no CPU parallelism is observable.

echo "== gateway tenant-scaling benchmarks (-benchtime=$BENCHTIME)"
go test -run '^$' -bench 'BenchmarkGatewayTenants' \
    -benchtime="$BENCHTIME" ./internal/bench/ | tee "$SRAW"
echo "== gateway shard-sweep benchmarks (-benchtime=$BENCHTIME)"
go test -run '^$' -bench 'BenchmarkGatewayShards' \
    -benchtime="$BENCHTIME" ./internal/bench/ | tee -a "$SRAW"
echo "== gateway dial-churn benchmark (-benchtime=$BENCHTIME)"
go test -run '^$' -bench 'BenchmarkGatewayDialChurn' \
    -benchtime="$BENCHTIME" ./internal/bench/ | tee -a "$SRAW"

GOMAXPROCS_NOW="${GOMAXPROCS:-$(getconf _NPROCESSORS_ONLN)}"
python3 - "$SRAW" BENCH_server.json "$GOMAXPROCS_NOW" <<'EOF'
import json, re, sys

raw, out, nproc = sys.argv[1], sys.argv[2], int(sys.argv[3])
current = {}
shards = {}
tpat = re.compile(
    r'^BenchmarkGatewayTenants/(\d+)x(?:-\d+)?\s+\d+\s+([\d.]+) ns/op'
    r'\s+([\d.]+) ce_per_s\s+([\d.]+) p99adm_us')
hpat = re.compile(
    r'^BenchmarkGatewayTenants/(\d+)x-hostile(?:-\d+)?\s+\d+\s+'
    r'([\d.]+) ns/op\s+([\d.]+) ce_per_s\s+([\d.]+) p99adm_us')
spat = re.compile(
    r'^BenchmarkGatewayShards/(\d+)shards(?:-\d+)?\s+\d+\s+([\d.]+) ns/op'
    r'\s+([\d.]+) ce_per_s\s+([\d.]+) p99adm_us')
dpat = re.compile(
    r'^BenchmarkGatewayDialChurn(?:-\d+)?\s+\d+\s+([\d.]+) ns/op'
    r'\s+([\d.]+) dial_p99_us')
churn = {}
for line in open(raw):
    # hpat first: tpat's (?:-\d+)? cannot swallow "-hostile", but keep
    # the specific pattern ahead of the general one anyway.
    m = hpat.match(line)
    if m:
        current[m.group(1) + 'x-hostile'] = {
            'tenants': int(m.group(1)),
            'hostile_tenants': 1,
            'ns_per_launch': float(m.group(2)),
            'ce_per_s_aggregate': float(m.group(3)),
            'p99_admission_wait_us': float(m.group(4)),
        }
        continue
    m = tpat.match(line)
    if m:
        current[m.group(1) + 'x'] = {
            'tenants': int(m.group(1)),
            'ns_per_launch': float(m.group(2)),
            'ce_per_s_aggregate': float(m.group(3)),
            'p99_admission_wait_us': float(m.group(4)),
        }
        continue
    m = spat.match(line)
    if m:
        shards[m.group(1) + 'shards'] = {
            'shards': int(m.group(1)),
            'ns_per_launch': float(m.group(2)),
            'ce_per_s_aggregate': float(m.group(3)),
            'p99_admission_wait_us': float(m.group(4)),
        }
        continue
    m = dpat.match(line)
    if m:
        churn = {
            'ns_per_burst': float(m.group(1)),
            'worst_dial_us': float(m.group(2)),
        }

doc = {
    'description': 'Gateway tenant-scaling: N concurrent sessions over '
                   'loopback TCP sharing one 4-worker controller; relu '
                   'launches on 256Ki-element arrays, cost-only fleet so '
                   'the admission path dominates. Shard sweep: 16 tenants '
                   'over a 16-worker fleet, controller fleet sharded '
                   '1/4/8/16 ways behind one gateway.',
    'gomaxprocs': nproc,
    'current': current,
    'shard_sweep': shards,
}
one = current.get('1x', {}).get('ce_per_s_aggregate')
for name, row in sorted(current.items()):
    if one and row['tenants'] > 1 and 'hostile' not in name:
        doc.setdefault('aggregate_scaling_vs_1x', {})[name] = round(
            row['ce_per_s_aggregate'] / one, 2)

# The acceptance row: with one hostile (backpressure-ignoring) tenant
# among 64 rate-limited ones, the worst WELL-BEHAVED tenant's p99
# admission wait must stay within 2x of the no-hostile run — the
# hostile tenant's own wait is excluded by the benchmark itself.
plain = current.get('64x', {}).get('p99_admission_wait_us')
host = current.get('64x-hostile', {}).get('p99_admission_wait_us')
if plain and host:
    ratio = round(host / plain, 2)
    doc['hostile_tenant_containment'] = {
        'neighbor_p99_us_plain': plain,
        'neighbor_p99_us_with_hostile': host,
        'p99_ratio': ratio,
        'within_2x': ratio <= 2.0,
    }
sone = shards.get('1shards', {}).get('ce_per_s_aggregate')
for name, row in sorted(shards.items(), key=lambda kv: kv[1]['shards']):
    if sone and row['shards'] > 1:
        doc.setdefault('shard_scaling_vs_1shard', {})[name] = round(
            row['ce_per_s_aggregate'] / sone, 2)
# Dial latency under churn: a 32-way concurrent dial burst per op.
if churn:
    doc['dial_churn'] = churn
if sone and nproc == 1:
    doc['shard_scaling_note'] = (
        'GOMAXPROCS=1 on this machine: all shard drain goroutines '
        'time-slice one core and the simulated data path is a single '
        'shared lock, so only admission-contention relief is '
        'observable, not CPU parallelism. The >=3x aggregate target '
        'for 8 shards requires a multi-core run.')
json.dump(doc, open(out, 'w'), indent=2)
print(f'wrote {out}')
EOF

# --- UVM oversubscription sweep (DESIGN.md §5.7) ---------------------------
# One cell per (pattern, prefetch+evict combo, oversubscription factor):
# the modeled ns per kernel launch, total migration traffic and the
# per-regime launch histogram, all deterministic simulator output (the
# sweep is exact, so -benchtime=1x is enough). The derived summary
# records each combo's storm cliff and the stride-aware prefetcher's
# speedup over the eager/LRU baseline at 1.5x — the cliff-shift row the
# adaptive-oversubscription work is gated on.

echo "== UVM oversubscription sweep (-benchtime=1x)"
go test -run '^$' -bench 'BenchmarkOversubSweep' -benchtime=1x \
    ./internal/bench/ | tee "$GRAW"

python3 - "$GRAW" BENCH_gpusim.json <<'EOF'
import json, re, sys

raw, out = sys.argv[1], sys.argv[2]
current = {}
pat = re.compile(
    r'^BenchmarkOversubSweep/(\w+)/([\w+-]+)/x([\d.]+)(?:-\d+)?\s+\d+\s+'
    r'[\d.]+ ns/op\s+(.*)$')
metric = re.compile(r'([\d.e+]+) (\w+)')
for line in open(raw):
    m = pat.match(line)
    if not m:
        continue
    pattern, combo, factor = m.group(1), m.group(2), float(m.group(3))
    mets = {name: float(v) for v, name in metric.findall(m.group(4))}
    cell = {
        'ns_per_launch': mets.get('ns_per_launch'),
        'mb_migrated': mets.get('mb_migrated'),
        'regimes': {r: int(mets.get(r + '_launches', 0))
                    for r in ('resident', 'streaming', 'storm')},
    }
    current.setdefault(pattern, {}).setdefault(combo, {})[f'{factor}x'] = cell

doc = {
    'description': 'UVM oversubscription sweep: modeled ns per launch, MB '
                   'migrated and regime histogram per (access pattern, '
                   'prefetch+evict policy, footprint/device-memory factor) '
                   'on one simulated V100; deterministic simulator output.',
    'current': current,
}

# Storm cliff per pattern/combo: the lowest factor where any launch hit
# the storm regime (null = no storm within the swept ladder).
cliffs = {}
for pattern, combos in current.items():
    for combo, cells in combos.items():
        cliff = None
        for fname, cell in sorted(cells.items(), key=lambda kv: float(kv[0][:-1])):
            if cell['regimes']['storm'] > 0:
                cliff = float(fname[:-1])
                break
        cliffs.setdefault(pattern, {})[combo] = cliff
doc['storm_cliff_factor'] = cliffs

# The acceptance row: stride-aware prefetch vs the eager/LRU baseline on
# the sequential sweep at >=1.5x oversubscription (want >= 2x).
seq = current.get('sequential', {})
base = seq.get('eager+lru', {}).get('1.5x', {}).get('ns_per_launch')
stride = seq.get('stride+lru', {}).get('1.5x', {}).get('ns_per_launch')
if base and stride:
    doc['stride_speedup_at_1.5x_sequential'] = round(base / stride, 2)
json.dump(doc, open(out, 'w'), indent=2)
print(f'wrote {out}')
EOF

# --- UVMBench workload-level oversubscription sweep (DESIGN.md §5.10) ------
# One cell per (workload, prefetch+evict combo, fleet size, footprint
# factor): the full workload DAG through the real controller on a
# cost-only simulated fleet, modeled makespan and CE count as reported
# metrics. Deterministic, so -benchtime=1x; the derived summary records
# each workload's Figure-1 cliff per fleet size — the acceptance row is
# the 1-worker cliff shifting right or flattening at 2 and 4 workers.

WRAW="$(mktemp)"
trap 'rm -f "$RAW" "$TRAW" "$KRAW" "$SRAW" "$GRAW" "$WRAW"' EXIT
echo "== UVMBench workload sweep (-benchtime=1x)"
go test -run '^$' -bench 'BenchmarkUVMBench' -benchtime=1x \
    ./internal/bench/ | tee "$WRAW"

GOMAXPROCS_NOW="${GOMAXPROCS:-$(getconf _NPROCESSORS_ONLN)}"
python3 - "$WRAW" BENCH_workloads.json "$GOMAXPROCS_NOW" <<'EOF'
import json, re, sys

raw, out, nproc = sys.argv[1], sys.argv[2], int(sys.argv[3])
current = {}
pat = re.compile(
    r'^BenchmarkUVMBench/(\w+)/([\w+-]+)/(\d+)w/x([\d.]+)(?:-\d+)?\s+\d+\s+'
    r'[\d.]+ ns/op\s+(.*)$')
metric = re.compile(r'([\d.e+]+) (\w+)')
for line in open(raw):
    m = pat.match(line)
    if not m:
        continue
    wl, combo, workers, factor = (m.group(1), m.group(2),
                                  int(m.group(3)), float(m.group(4)))
    mets = {name: float(v) for v, name in metric.findall(m.group(5))}
    current.setdefault(wl, {}).setdefault(combo, {}).setdefault(
        f'{workers}w', {})[f'{factor}x'] = {
        'makespan_ms': mets.get('makespan_ms'),
        'ces': int(mets.get('ces', 0)),
    }

doc = {
    'description': 'UVMBench workload-level oversubscription sweep: each '
                   'workload DAG through the real controller '
                   '(min-transfer-time, pipelined, optimizer window) on a '
                   'cost-only simulated V100 fleet; footprint factor is '
                   'total workload footprint over ONE worker\'s device '
                   'memory, so the 1w column oversubscribes where the '
                   'wider fleets still fit. Deterministic modeled output.',
    'gomaxprocs': nproc,
    'current': current,
}

# Cliff per (workload, combo, fleet size): lowest factor whose makespan
# slope (makespan/factor) exceeds 2.5x the cheapest rung's slope — the
# same rule workloads.UVMCliffs applies. null = flat through the ladder.
cliffs = {}
for wl, combos in current.items():
    for combo, fleets in combos.items():
        for fleet, cells in fleets.items():
            rungs = sorted(((float(f[:-1]), c['makespan_ms'])
                            for f, c in cells.items()))
            if not rungs:
                continue
            best = min(ms / f for f, ms in rungs if f > 0)
            cliff = None
            for f, ms in rungs:
                if ms / f > 2.5 * best:
                    cliff = f
                    break
            cliffs.setdefault(wl, {}).setdefault(combo, {})[fleet] = cliff
doc['cliff_factor'] = cliffs

# The acceptance rows: for the irregular workloads, scale-out must shift
# the 1-worker cliff right or flatten it entirely.
flattened = {}
for wl, combos in cliffs.items():
    for combo, fleets in combos.items():
        c1, c2, c4 = fleets.get('1w'), fleets.get('2w'), fleets.get('4w')
        if c1 is None:
            continue  # never fell off a cliff solo; nothing to flatten
        flattened.setdefault(wl, {})[combo] = {
            'cliff_1w': c1, 'cliff_2w': c2, 'cliff_4w': c4,
            'scale_out_helps': (c2 is None or c2 > c1)
                               and (c4 is None or c4 > c1),
        }
doc['scale_out_flattening'] = flattened
json.dump(doc, open(out, 'w'), indent=2)
print(f'wrote {out}')
EOF
