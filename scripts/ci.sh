#!/usr/bin/env bash
# ci.sh — the tier-1 gate: every step must pass. One line per step, what it
# runs and why:
#
#   1.  go vet ./...           static checks
#   1a. gofmt -l .             every Go file is gofmt-clean
#   2.  go build ./...         everything compiles
#   3.  go test ./...          the full suite, including TestFiguresMatchGolden: every simulated
#                              paper figure's values equal internal/bench/testdata/figures.golden
#                              exactly, and EXPERIMENTS.md's figure tables equal the printers
#   4.  go test -race          the concurrent packages (core … shard) under the race detector
#   4a. -race TestShardDifferential*   4 shards vs 1 stay bit-identical, incl. chaos
#   4b. -race -run <list>      the concurrency-critical tests by name, so a rename cannot drop them
#                              from the race gate (chaos/recovery, streamed launches, sessions,
#                              peer links, depth-1 admission, one engine, FIFO bulk, typed kernels,
#                              TestLaunchRunsOnItsCaller, TestPipelinedStallQueriesRaceFree,
#                              TestWrapperFidelity, the allocation budgets, victim selection
#                              vs a full sort, shared stdlib Defs, the 0-allocation op
#                              estimate, TestSharedKernelDefsConcurrent: every shared compiled
#                              Def priced and run from several goroutines)
#   4c. go test -list          every |-alternative of 4b's -run lists names at least one test in
#                              its packages: a rename that empties an alternative fails here
#   5.  fuzz                   compiled engine vs interpreter, session/lease frame codecs,
#                              worker serve loop: short budgets, corpora persist
#   6.  go run ./benchmark     launch-stream, launch-sync, bulk-move at 0.1 s: output checks hold
#   7.  soak                   1M CEs through the gateway: heap, goroutines and live CEs stay flat
#
# Run from the repo root: ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet"
go vet ./...

echo "== gofmt"
test -z "$(gofmt -l .)"

echo "== go build"
go build ./...

echo "== go test"
go test ./...

echo "== go test -race (core, dag, grcuda, ring, transport, minicuda, kernels, server, gpusim, policy, shard)"
go test -race ./internal/core/... ./internal/dag/... ./internal/grcuda/... \
    ./internal/ring/... ./internal/transport/... \
    ./internal/minicuda/... ./internal/kernels/... ./internal/server/... \
    ./internal/gpusim/... ./internal/policy/... \
    ./internal/shard/...

echo "== go test -race sharded-plane differential (4 shards vs 1, incl. chaos)"
go test -race -run 'TestShardDifferential' ./internal/workloads/

# Step 4b's race lists: a -run pattern and the packages it runs in.
RACE_RUN='Chaos|Recovery|Failover|HungWorker|DialTimeout|Stream|ChannelCoalesces|BufferedFramesLeaveWhole|WrappersDoNotForward|SharedRegistry|SessionStream|GatewayShedsByClass|GatewayBackpressurePacesClient|CloseWhileSyncParkedBehindQueue|P2P|PeerLink|EnsureMemo|ReceiveAck|SessionScopedSync|InlineAdmit|InlineStart|BurstUnderInflightCap|SyncReportsDispatchFailure|PipelineMatchesSerial|LaunchRunsOnItsCaller|ConcurrentFabricOrdering|ErrorStickiness|GoroutineBudget|ConcurrentBulkTransfersSerialise|ChunkStreamValidation|RejectedReceiveKeepsStreamInSync|BulkSever|PingNotBlocked|LaunchArgumentChecks|CanonicalNaNStores|CountedLoopStepAccounting|LaunchAllocsFlat|UVMKernelsDifferential|PipelinedStallQueriesRaceFree|WrapperFidelity|AllocBudget|VictimSelectionMatchesFullSort|StdRegistr|OpsEstimateAllocFree'
RACE_PKGS="./internal/core/ ./internal/transport/ ./internal/shard/ ./internal/bench/ ./internal/server/ ./internal/minicuda/ ./internal/gpusim/ ./internal/dag/ ./internal/kernels/"
RACE_RUN_WORKLOADS='TestSharedKernelDefsConcurrent'

echo "== go test -race chaos/recovery + streamed-launch + pipelined-session + worker-to-worker + depth-1 + one-engine + FIFO bulk + typed-kernel + fabric-wrapper + allocation-budget suite (lineage replay, deadlines, write-off, stream replay, session stream, peer links, inline admission and start, Launch vs Submit equivalence, launch on its caller, stickiness, goroutine budget, serialised transfers, chunk-stream validation, launch argument checks, canonical NaN stores, counted-loop steps, per-partition allocation, stall queries vs dispatch, wrapper fidelity, launch/DAG/Submit allocation budgets, heap victim selection vs full sort, shared stdlib Defs, op-estimate allocations, shared compiled Defs priced and run concurrently)"
go test -race -run "$RACE_RUN" $RACE_PKGS
go test -race -run "$RACE_RUN_WORKLOADS" ./internal/workloads/

echo "== every alternative of the race lists names a test"
# require_tests PATTERN PKG...: each |-separated alternative of PATTERN
# must match at least one Test, Fuzz or Example of PKG... (go test -run
# matches unanchored, so grep -E on the listed names is the same rule).
require_tests() {
    local pattern=$1
    shift
    local names alt alts missing=""
    names=$(go test -list '.*' "$@" | grep -E '^(Test|Fuzz|Example)')
    IFS='|' read -ra alts <<< "$pattern"
    for alt in "${alts[@]}"; do
        grep -qE -- "$alt" <<< "$names" || missing="$missing $alt"
    done
    if [ -n "$missing" ]; then
        echo "race list alternatives that match no test in $*:$missing" >&2
        return 1
    fi
}
require_tests "$RACE_RUN" $RACE_PKGS
require_tests "$RACE_RUN_WORKLOADS" ./internal/workloads/

echo "== differential fuzz (compiled engine vs interpreter, 20s)"
go test -run FuzzDifferential -fuzz FuzzDifferential -fuzztime 20s \
    ./internal/minicuda/

echo "== session-frame codec fuzz (5s per direction)"
go test -run '^$' -fuzz FuzzSessionRequest -fuzztime 5s ./internal/transport/
go test -run '^$' -fuzz FuzzSessionResponse -fuzztime 5s ./internal/transport/
go test -run '^$' -fuzz FuzzSessionBackpressure -fuzztime 5s ./internal/transport/

echo "== shard-lease frame fuzz (5s)"
go test -run '^$' -fuzz FuzzLeaseGrant -fuzztime 5s ./internal/transport/

echo "== worker serve-loop fuzz (5s)"
go test -run '^$' -fuzz FuzzWorkerServe -fuzztime 5s ./internal/transport/

echo "== repository benchmark smoke (launch-stream, launch-sync and bulk-move, output-checked)"
go run ./benchmark --workload launch-stream --seconds 0.1 --trace 0 | tail -n 1 | grep -q '"correct":true'
go run ./benchmark --workload launch-sync --seconds 0.1 --trace 0 | tail -n 1 | grep -q '"correct":true'
go run ./benchmark --workload bulk-move --seconds 0.1 --trace 0 | tail -n 1 | grep -q '"correct":true'

echo "== soak: 1M CEs through the gateway, heap/goroutines/live CEs flat (not under -race)"
go test -run '^$' -bench 'BenchmarkSoakBoundedState' -benchtime=1x .

echo "CI OK"
