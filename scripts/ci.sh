#!/usr/bin/env bash
# ci.sh — the tier-1 gate, a thin wrapper around the repo's own checks:
#
#   1. go vet ./...
#   2. go build ./...
#   3. go test ./...                                   (full suite)
#   4. go test -race ./internal/core/... ./internal/dag/...
#                    ./internal/grcuda/... ./internal/ring/...
#                    ./internal/transport/... ./internal/minicuda/...
#                    ./internal/kernels/... ./internal/server/...
#                    ./internal/optimizer/... ./internal/gpusim/...
#                    ./internal/policy/...
#      (the pipelined controller's determinism property test, the DAG
#      fast path, the framed-wire data plane — concurrent transfers
#      serialised on one FIFO bulk channel, chunk-stream validation, a
#      refused receive keeping the stream in sync, failover teardown —
#      and the parallel kernel engine's
#      block-partitioned executor + atomicAdd CAS loop run under the
#      race detector; this sweep includes the chaos-fabric recovery
#      suite and the streamed-launch suite (pipelined control channel:
#      streamed-vs-serial property over real sockets, worker kill and
#      link sever with launches in flight, ring deadline, write
#      coalescing, wrapper fidelity) and the pipelined tenant-session
#      suite (streamed-vs-synced bit identity, quiet client at the
#      default and at a deep queue, launch window, write coalescing and
#      whole-frame writes, deferred errors, shed prefix, severed
#      connection, call timeout, Close behind a parked sync) and the
#      worker→worker suite (peer links dialed once and shared by
#      concurrent pushes, push cycle, peer killed between pushes and
#      mid-push, stale-link retry, teardown back to the goroutine and fd
#      baseline, receive-ack deadline, one write per one-chunk transfer,
#      ensure memo; round-robin moves pinned in the streamed
#      differential) and the depth-1 suite (a session-scoped Sync past a
#      CE held in the fabric, launches admitted on the serve goroutine and
#      started by it with the drain loop and the batch dispatcher handed
#      none, the window's remainder handed over in order, a launch parked
#      in the window behind an in-flight cap, admission flipping between
#      inline and queued mid-stream, the Sync that waited for a failed
#      launch reporting it) and the one-engine suite (submitter vs
#      dispatcher goroutine at windows -1/0/1 bit-identical with the
#      EnsureArray/eliminated-move accounting, submission order on a
#      concurrent fabric and overlap on a streaming one, the error
#      stickiness table, one goroutine per pipelined controller at 256
#      workers) and the typed-kernel suite (both engines refusing a
#      buffer of the wrong kind with one error text, canonical-NaN float
#      stores and atomics, counted-loop step positions, a compiled launch
#      allocating the same at grid 4 and 4096, the UVMBench kernels
#      bit-identical across engines and worker counts), re-run explicitly
#      in 4b so a rename can't
#      silently drop them from the race gate; the bounded-state suite rides the
#      same sweep: the
#      retiring DAG against its never-retiring reference graph
#      (internal/dag TestRetireOracle, hazard case by name), the
#      50 000-CE runtime stream pinned to pre-retirement values
#      (internal/grcuda TestLongStreamPinned), the alloc/launch/free
#      loops, and the 50 000-CE pipelined TCP stream with a worker
#      killed in flight (internal/transport
#      TestRetireLongRunSurvivesWorkerKill; internal/grcuda joins the
#      sweep for it); the multi-tenant gateway suite —
#      concurrent tenants over real TCP, chaos failover, disconnect
#      teardown — rides in the same sweep via internal/server; the
#      sharded control plane — per-shard drain goroutines, the
#      consistent-hash ring, cross-shard lease recovery — rides via
#      internal/shard plus the 4-shard differential in
#      internal/workloads)
#   5. a short fuzz budget: the slot-compiled kernel engine vs the
#      tree-walking interpreter must stay bit-for-bit identical on
#      generated kernels (10s), fused elementwise kernels must match
#      the separate producer/consumer launches bit-for-bit (10s), and
#      the session-frame codec must round-trip and never panic on
#      adversarial payloads (5s each direction, plus 5s on the
#      backpressure-frame payload codec; corpora persist), and the
#      worker's serve loop must never panic and must return when a bulk
#      channel's arbitrary input ends (5s)
#   6. the controller/DAG/transport/kernel/oversubscription
#      micro-benchmarks with -benchtime=1x as a smoke gate, plus a
#      UVMBench workload-sweep smoke row (spmv + kmeans at 0.5x/2x per
#      fleet size) and the gateway dial-churn row (they must still
#      compile and complete, not regress — use scripts/bench.sh for
#      numbers)
#   7. the repository benchmark's launch-stream, launch-sync and
#      bulk-move workloads at a tenth of a second, untraced: their
#      output checks must hold — bit-identical replay through the
#      streamed dispatch path at depth 64 and at depth 1, and every
#      round's payload checksum through host→worker, worker→worker and
#      worker→host moves on real sockets (bulk-move is the only workload
#      that pushes peer to peer)
#   8. the soak (ROADMAP 4c, not under the race detector, ~10 s): a
#      million CEs from two Dial tenants through the gateway to two TCP
#      workers; after a forced GC at 25/50/75/100 % of the stream
#      HeapInuse and the goroutine count stay within 20 % of the 25 %
#      reading and no graph holds more than the retirement horizon plus
#      its frontier. A benchmark so that plain `go test ./...` skips it;
#      it fails like a test.
#
# Run from the repo root: ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test"
go test ./...

echo "== go test -race (core, dag, grcuda, ring, transport, minicuda, kernels, server, optimizer, gpusim, policy, shard)"
go test -race ./internal/core/... ./internal/dag/... ./internal/grcuda/... \
    ./internal/ring/... ./internal/transport/... \
    ./internal/minicuda/... ./internal/kernels/... ./internal/server/... \
    ./internal/optimizer/... ./internal/gpusim/... ./internal/policy/... \
    ./internal/shard/...

echo "== go test -race sharded-plane differential (4 shards vs 1, incl. chaos)"
go test -race -run 'TestShardDifferential' ./internal/workloads/

echo "== go test -race chaos/recovery + streamed-launch + pipelined-session + worker-to-worker + depth-1 + one-engine + FIFO bulk + typed-kernel suite (lineage replay, deadlines, write-off, stream replay, session stream, peer links, inline admission and start, window-of-1 equivalence, stickiness, goroutine budget, serialised transfers, chunk-stream validation, launch argument checks, canonical NaN stores, counted-loop steps, per-partition allocation)"
go test -race -run 'Chaos|Recovery|Failover|HungWorker|DialTimeout|Stream|ChannelCoalesces|BufferedFramesLeaveWhole|WrappersDoNotForward|SharedRegistry|SessionStream|GatewayShedsByClass|GatewayBackpressurePacesClient|CloseWhileSyncParkedBehindQueue|P2P|PeerLink|EnsureMemo|ReceiveAck|SessionScopedSync|InlineAdmit|InlineStart|ParkedWindow|SyncReportsDispatchFailure|PipelineMatchesSerial|ConcurrentFabricOrdering|ErrorStickiness|GoroutineBudget|ConcurrentBulkTransfersSerialise|ChunkStreamValidation|RejectedReceiveKeepsStreamInSync|BulkSever|PingNotBlocked|LaunchArgumentChecks|CanonicalNaNStores|CountedLoopStepAccounting|LaunchAllocsFlat|UVMKernelsDifferential' \
    ./internal/core/ ./internal/transport/ ./internal/shard/ ./internal/bench/ ./internal/server/ ./internal/minicuda/

echo "== differential fuzz (compiled engine vs interpreter, 10s)"
go test -run FuzzDifferential -fuzz FuzzDifferential -fuzztime 10s \
    ./internal/minicuda/

echo "== fusion fuzz (fused kernel vs separate launches, 10s)"
go test -run FuzzFusion -fuzz FuzzFusion -fuzztime 10s \
    ./internal/minicuda/

echo "== session-frame codec fuzz (5s per direction)"
go test -run '^$' -fuzz FuzzSessionRequest -fuzztime 5s ./internal/transport/
go test -run '^$' -fuzz FuzzSessionResponse -fuzztime 5s ./internal/transport/
go test -run '^$' -fuzz FuzzSessionBackpressure -fuzztime 5s ./internal/transport/

echo "== shard-lease frame fuzz (5s)"
go test -run '^$' -fuzz FuzzLeaseGrant -fuzztime 5s ./internal/transport/

echo "== worker serve-loop fuzz (5s)"
go test -run '^$' -fuzz FuzzWorkerServe -fuzztime 5s ./internal/transport/

echo "== micro-benchmark smoke (-benchtime=1x)"
go test -run '^$' -bench 'BenchmarkControllerSubmitThroughput|BenchmarkSchedulingOnly' \
    -benchtime=1x ./internal/bench/
go test -run '^$' -bench 'BenchmarkDAGAdd' -benchtime=1x ./internal/dag/
go test -run '^$' -bench 'BenchmarkTransportThroughput/framed/1MiB' \
    -benchtime=1x ./internal/bench/
go test -run '^$' -bench 'BenchmarkKernelExec/compiled|BenchmarkKernelBuild' \
    -benchtime=1x ./internal/bench/
go test -run '^$' -bench 'BenchmarkGatewayTenants/4x' -benchtime=1x ./internal/bench/
# The unanchored 64x filter deliberately matches both 64x and 64x-hostile:
# the production-traffic row (rate limits + one backpressure-ignoring
# tenant) must keep compiling and completing.
go test -run '^$' -bench 'BenchmarkGatewayTenants/64x' -benchtime=1x ./internal/bench/
go test -run '^$' -bench 'BenchmarkGatewayShards/4shards' -benchtime=1x ./internal/bench/
go test -run '^$' -bench 'BenchmarkGatewayDialChurn' -benchtime=1x ./internal/bench/
go test -run '^$' -bench 'BenchmarkOversubSweep/sequential/(eager\+lru|stride\+lru)/x1.5' \
    -benchtime=1x ./internal/bench/
# UVMBench workload smoke: one irregular workload (spmv) and one ML
# workload (kmeans) at in-core 0.5x and oversubscribed 2x, per fleet
# size — the full sweep lives in scripts/bench.sh.
go test -run '^$' -bench 'BenchmarkUVMBench/(spmv|kmeans)/eager\+lru/(1|2|4)w/x(0.5|2.0)' \
    -benchtime=1x ./internal/bench/

echo "== repository benchmark smoke (launch-stream, launch-sync and bulk-move, output-checked)"
go run ./benchmark --workload launch-stream --seconds 0.1 --trace 0 | tail -n 1 | grep -q '"correct":true'
go run ./benchmark --workload launch-sync --seconds 0.1 --trace 0 | tail -n 1 | grep -q '"correct":true'
go run ./benchmark --workload bulk-move --seconds 0.1 --trace 0 | tail -n 1 | grep -q '"correct":true'

echo "== soak: 1M CEs through the gateway, heap/goroutines/live CEs flat (not under -race)"
go test -run '^$' -bench 'BenchmarkSoakBoundedState' -benchtime=1x .

echo "CI OK"
