# Developer entry points. `make check` is the pre-merge gate: vet, the full
# test suite, and the race detector over the concurrency-heavy packages
# (replication and transport are where the primary/backup/heartbeat
# goroutines interleave; debug sessions clone tracked VMs across goroutines;
# consensus replicas, fleet shards and the view directory share state between
# their own actors and their callers; internal/cluster's one replicated-run
# assembly is where the VM, the log site's serve goroutine and the kill poller
# meet, and the root package's run functions are its wrappers).

GO ?= go

.PHONY: build test vet fmt-check race loc loc-check check bench bench-smoke bench-spine-smoke fuzz-smoke clock-lint sim-smoke view-smoke fleet-smoke consensus-smoke debug-smoke replay-seeds golden-dual ab aa

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# gofmt over the whole tree, the benchmark spine's module included: a file
# gofmt would rewrite fails the gate and is named.
fmt-check:
	@out=$$(gofmt -l .); test -z "$$out" || { echo "gofmt needed:"; echo "$$out"; exit 1; }

race:
	$(GO) test -race ./internal/replication/... ./internal/transport/... ./internal/simtest/... ./internal/debug/... \
		./internal/consensus/... ./internal/fleet/... ./internal/viewsvc/... ./internal/cluster/...
	$(GO) test -race -run 'Replicated|Failover|Warm|MeasureReplay' .

# The line counts ROADMAP.md tracks (root-module non-test Go and internal/vm's
# share of it, the tests, benchmark/) and the settable-value census, produced
# by a command instead of by hand.
loc:
	./scripts/loc.sh

# The ratchet on the tracked number: root-module non-test Go lines may not
# exceed the figure recorded by the last PR that moved it. A PR that adds must
# remove as much; a PR that removes more lowers LOC_MAX. PR 18 set 28597;
# PR 19 raised it by its residue of 107 (the cold backup's validate-and-store
# receive path and the wire walk under it; CHANGES.md has the accounting).
# PR 20 raised it by its residue of 23: the load generator's typed event heap,
# wire.AppendClientOp / Decoder.ClientOp and the clock's sole-actor Sleep,
# less what they replaced (CHANGES.md has the accounting). PR 21 lowered it
# by 445: the fleet's stop-and-wait ship and receive paths (the pair is the
# one-link case of the link protocol), viewsvc.Service (a single replica set
# is the one-shard directory), ftvm-fleet's -json record and
# consensus.NewClusterBackend. PR 22 lowered it by 535 — and 468 of those
# lines are a move, not a removal: the interpreter's reference loop went from
# internal/vm/interp.go to internal/vm/oracle_test.go (`make loc` prints its
# size beside internal/vm's). 125 lines of it were deleted on the way (register
# caching, the watch/slow split, the fast path, pair counting) and the step
# tier that replaced it in the product added 58. The two-word heap.Value and
# allocation-free native calls lowered it by 11: they added 107 lines and
# paid for them by deleting Value.Equal, Value.Truthy, Frame.pop, Frame.top,
# Thread.popFrame and doCall's argument copy and re-push loops. Folding the
# control-path checksum inside jump and branch closures raised it by its
# residue of 29: +75 −46 (the site type and tctx.fold, one fold per branch
# arm, each method passed to compileOp, the fold key helper posKey; less
# trackBranch's cached-position case and compileStream's wrapping loop).
# One cluster assembly lowered it by 212: internal/cluster's Run (+465) is
# the replicated run that the root package's run body and log sites, simtest's
# pair phase, consensus runner, clusterBase and backup server, and the
# fuzzer's faulty pair each assembled (−719 across ftvm.go, warm.go, simtest
# and fuzzgen), plus +42 for what they now share (clock.Drive,
# consensus.Cluster.ReadBack, transport.PipeCapacity, env.Env.Seed,
# vm.SeededPolicy.Seed); CHANGES.md has the per-file accounting.
# Deleting viewsvc's ping-based failure detector lowered it by 132: Pinger,
# Watcher and their loop, ShardDirectory.Ping and Tick, and Config with its
# FailTimeout and Clock (the directory reads no clock now); nothing outside
# viewsvc's own tests called them.
# Shipping at commit points lowered it by 6: harness.Config.FlushEvery (a
# second default that would have disagreed with the product's) and the wire
# package's scratch varint arrays went; the primary's append split in two so
# the halt marker can be buffered without the auto-flush, and cluster.Run's
# haltWindow condition went with the bug it tolerated.
# Counting the paper's link instead of waiting for it lowered it by 157:
# transport.Latency (the spin-wait wrapper), Options.NetPerMsg/NetPerKB,
# harness.Config's three network fields and ftvm-bench's three flags went for
# one unexported link function with two constants; the primary's second,
# self-timed accounting path (and LargestFrameLen) went, so every backend is
# counted in Primary.flush; and PrimaryConfig.DegradeOnBackupLoss with its
# squelch went with the bug it hid (an output performed after the loss).
# Cheaper fleet requests raised it by its residue of 17 (+181 −164):
# loadgen.go +52 (the queue that merges the sorted first arrivals with the
# heap of in-flight events, and the config check that refuses a negative
# field or a kill before the start or of an unknown node), replica.go +11 (the
# pending entry named by client id, commitPending) and backup.go +2 (the ack
# buffer); less verify.go −15 (Checksum's second walk folded into Audit),
# frame.go −4 (EncodeAck became AppendAck, frames decode by value) and
# fleet.go −29 (the uncalled Fleet.TenantValue and SeatCounts, and
# sortedTenants, inlined at its one caller).
# One home per setting lowered it by 149 (27275 -> 27126): the settings no
# caller set became constants or went (soft references are always strong;
# the GC trigger and heartbeat options of the facade; the consensus size; the
# fleet's six costs and the load generator's four retry values), the
# primary's copy of the pair backend's link settings and its implicit pair
# went, and the interpreter stream is chosen only by ftvm.Options.Dispatch
# (ftvm-debug's and ftvm-bench's -dispatch flags, debug.Options' override,
# harness.Config.Dispatch, the .ftlog header's two fields, the replay key's
# dispatch= field and both ParseDispatch functions went).
# An allocation-free replication path raised it by its residue of 85 (27126
# -> 27211): wire/records.go +19 (Decoder.NativeSpans, the cold backup's read
# of a NativeResult's Sig and HandlerData in place), transport.go +24 (the
# pipe's free list of wait slots and its queue cell kept across a drain),
# clock.go +14 (the wall slot's kept timer, dropped when Stop comes too late),
# store.go +13 (LogStore.each, which recovery indexes from; Records rewritten
# over it; analyze fed by a walk), backup.go +4 (routeReceive over two byte
# runs), primary.go +4 (the scratch native-result and intent records),
# sehandler/devices.go +4 (the shared device markers), consensus/replica.go +2
# (why WaitCommit keeps a fresh slot), replication.go +1 (appendWire).
# Chunked fleet logs raised it by its residue of 137 (27211 -> 27348):
# internal/fleet/shardlog.go +166 (the chunked log: append of an op and of a
# validated run, the suffix from a byte offset, the record walk, clone and the
# logical-byte prefix check); less replica.go -29 (recOffsets, suffixFrom,
# replayLog, the dedup entry's committed flag and commitPending's map write
# went), verify.go -1 (the byte prefix test became shardLog.prefixOf) and
# fleet.go +1 (the scratch for a suffix that spans chunks, the link's byte
# offset, adopt in place of three copy-and-count pairs).
# Caller-owned fleet replies lowered it by 5 (27348 -> 27343): fleet.go -12
# (one Fleet.reply writes every status into the caller's Reply, in place of
# five struct literals, and the op-range check joined the stale-request case),
# loadgen.go +1 (the run's one Reply), simtest/key.go +6 (a key of a kind with
# a mode must name one) and minilang/token.go 0 (an identifier starts only on
# an ASCII letter or '_').
# One search harness lowered it by 121 (27343 -> 27222): internal/fuzzgen's
# harness.go (-448: the five stage bodies, the wall-clock replicated,
# failover and consensus runs, runFaultyPair, SimReplayKey, the seed
# derivation and Config with MaxInstructions) and artifact.go (-70) went;
# simtest/fuzz.go (+275) runs the stages as scenarios of the engine, with the
# artifact writer (a failure carries its stage's Outcome, so the simulator
# formats the replay key); render.go +49 (CompareFrames, moved from harness.go),
# clock/virtual.go +44 (one actor runs at a time: priRun wakes for Signal and
# Go), base.go +24 (replayLog: a run that completed without recovery replays
# its whole log), shrink.go -14 (Shrink takes a reproduces predicate),
# consensus.go +6, pair.go +6, simtest.go +4 (runAlone; newReference takes a
# program) and ftvm-fuzz +3.
# One backup, one receive path lowered it by 145 (27222 -> 27077):
# replication/warm.go -112 (WarmBackup, NewWarmBackup, warmFeed and its mutex,
# and the warmCoordinator's ten locked wrappers went; Backup.RunWarm and a
# coordinator that overrides only Poll and OnIdle remain), backup.go -48
# (receiver merged into Backup, the sink and rawSink fields, newReceiver's
# who and logFrame's decoded branch went), store.go +27 (LogStore's seal, its
# wake slot and the eachFrom cursor each now runs on), consensus.go -5 and
# replica.go -6 (ElectionMin, ElectionMax and Heartbeat became constants),
# cluster.go +2 (the warm pair's backup is Result.Cold), the root warm.go -2
# and ftvm.go -1 (the CaptureLog refusal went).
# One coordinator skeleton lowered it by 131 (27077 -> 26946): every product
# coordinator is vm.DefaultCoordinator plus the hooks it changes.
# intervalreplay.go -41 (PickNext, OnDescheduled, AssignLID, the policy,
# lidNext and GatedWakeups fields and the Poll loop went), stepper.go -38
# (the nine forwarding hooks), lockreplay.go -36 (PickNext, OnDescheduled,
# the policy and GatedWakeups fields and the Poll loop), schedreplay.go -32
# (BeforeAcquire, AssignLID, OnAcquired, livePolicy, lidNext, the dead strict
# flag and the Poll loop), primary.go -19 (PickNext, BeforeAcquire,
# NativeReady, Poll, OnIdle and the policy field), ftvm-run -12 and
# simtest/key.go -9 (parseMode and modeByName, for replication.ParseMode);
# less nativereplay.go +43 (the embedded DefaultCoordinator, the one admit
# loop, GatedWakeups and seededOr; OnIdle went), replication.go +12
# (ParseMode, Mode.valid) and replayengine.go +1 (cloneWith clones the
# policy; Report reads GatedWakeups from the base; the report's comment).
# Thin monitors raised it by 72 (26946 -> 27018): vm/monitor.go +32
# (monitorOf reads the object header and reports a dangling ref, heldMonitor
# for monitorexit/wait/notify, compactMonitors, monEnter reports a gated
# AssignLID as not done; the unused Owner, Entries, WaitSetLen and
# removeFromQueue went), vm/threaded.go +15 (monStep; monitor ops stay in
# the block), vm/clone.go +5 (the table copied by index, blockedOn through
# the header), vm/vm.go -9 (Monitors() and the GC's map sweep went),
# vm/inspect.go -1, heap/heap.go +3 (Object.Mon), and in
# internal/replication nativereplay.go +21 (the slot cache, threadLog),
# store.go +16 (threadLog, analysis.thread), lockreplay.go -7 (head went)
# and replayengine.go -3 (clone copies each thread's record).
# One slow path for every fused group raised it by 34 (27018 -> 27052):
# bytecode/widefuse.go +50 (the array and float-op families, falu;falu, the
# pair tier's two families, the ALU sets and famOp; the header), heap/heap.go
# +35 (obj, refErr and fieldErr, so Get, GetField and SetField make no second
# call; Elem, the error-free array read both aload paths call), less
# bytecode/predecode.go -42 (the pair opcodes, fuseDelta and fuseWidth went)
# and vm/threaded.go -9 (compilePair, pairALU, pairFault and every
# hand-written fault block went for slow; aluFn takes values and covers the
# float and dividing ops, so compileBase has one ALU case).
LOC_MAX = 27052
# The same ratchet on the root module's test lines, internal/identity (test
# support that only tests may import) included. It was set when the seven
# suites that assert "the same bytes on every path" came to share one table
# instead of three copies of each helper, and the ping detector's tests went
# with it (18286 -> 17836; CHANGES.md has the per-file accounting). The ship
# policy's tests raised it by 83 (17836 -> 17919): TestHaltRidesTheLastAck
# (internal/cluster) and, in internal/replication, TestShipAtCommitPoints,
# TestShipPolicyMovesFrameBoundariesOnly and the pair run they share with
# BenchmarkColdReceive. Counting the link lowered it by 16 (17919 -> 17903):
# TestLatencyWrapper, TestDegradeOnBackupLoss,
# TestPrimaryExternalBackendDegrade, BenchmarkAblationNetwork and
# TestConfigDefaults' network clause went; TestLink, TestFigure2RawAndLinked
# (internal/harness), TestNoOutputAfterLoss and
# TestShippedCountsIgnoreDecoration (internal/replication) came in. Cheaper
# fleet requests raised it by 180 (17903 -> 18083): TestEventHeapOrderAndAllocs
# became a property test of the merged queue against one heap, and
# TestRunRejectsConfigsThatCannotRun (loadgen), TestAuditRejectsEveryClause
# (fleet), TestFrameDecodeAndAckAllocFree (wire) and
# TestEveryCutOfACaptureOpensOrErrs (debug) came in. One home per setting
# lowered it by 22 (18083 -> 18061): TestDualEnginePositionEquivalence,
# TestSoftRefsClearedWhenCollectable, three config-refusal rows and the
# dispatch= key check went; TestPollStopsAVictimNamedInItsLastPeriod
# (cluster), the retired header slots in TestCaptureHeaderRoundTrip and the
# backend-epoch and no-backend rows came in. The allocation-free replication
# path raised it by 123 (18061 -> 18184): alloc_test.go +46
# (TestPrimaryNativeRecordsAllocFree and its ackAll backend),
# transport_test.go +31 (TestPipeWakeAllocatesOnlyTheCopy), virtual_test.go
# +16 (TestRealSlotLatchAndTimeout's kept-timer clauses), lockreplay_unit_test.go
# +12 (walkOf, analyze's walk over a test's records), wire/fuzz_test.go +12 (the NativeSpans
# clause of FuzzSkipAgreesWithNext) and recordpath_test.go +6 (native results
# in TestColdReceiveAllocsPerFrame's counted frames). Chunked fleet logs
# raised it by 155 (18184 -> 18339): deliver_test.go +131 (FuzzDeliver,
# TestShardLogChunks, the 2^63 Seq row, and TestDeliverAdmission's table
# shared with the fuzz seeds) and requestpath_test.go +24
# (TestFreshSubmitAllocBudget's bytes-per-request clause and its derivation;
# the log reads through shardLog in three tests). Caller-owned fleet replies
# raised it by 106 (18339 -> 18445): requestpath_test.go +43
# (TestEveryStatusAnswersIntoTheCallersReply; TestFreshSubmitAllocBudget and
# TestHostileRequests answer into a kept Reply), key_test.go +30
# (FuzzParseKey, three no-mode rejection rows), minilang/compile_fuzz_test.go
# +28 (FuzzCompileSource), fleet_test.go +3 (mustOK returns a copy;
# TestNotOwnerRouting's kept Reply) and minilang_test.go +2 (the two non-ASCII
# rows of TestCompileErrors).
# One search harness raised it by 48 (18445 -> 18493): the fuzzer's tests
# moved (fuzzgen_test.go -138; fuzz_test.go +123 with TestFuzzKeysReplayExactly
# in place of key_test.go's TestFuzzReplayKeyParses, -22; differential_test.go
# +59), virtual_test.go +55 (TestOneActorRuns, TestNonActorWakeAdvances),
# sweep_test.go -30 (maskConsensus and its comment out,
# TestConsensusSweepTraceGolden in) and identity_test.go +1.
# One backup, one receive path raised it by 59 (18493 -> 18552):
# killsweep_test.go +25 (the warm backup as a second input of
# TestKillPointSweep, 18 rows -> 36), warm_test.go +27
# (TestWarmCaptureMatchesCold; TestWarmRejectsUnsupportedOptions lost its
# CaptureLog row), schedreplay_unit_test.go +12 (TestWarmPull in place of
# TestWarmFeedCounts), faultsweep_test.go -4 and backup_test.go -1 (one
# constructor for both backups).
# One coordinator skeleton raised it by 28 (18552 -> 18580):
# TestSchedReplayWaitsWhileOpen runs a sched replay over an open log to a
# native whose record is missing and pins that Poll admits and counts the
# gated thread only once the record is in.
# Thin monitors raised it by 136 (18580 -> 18716): coordinator_test.go +51
# (TestLockGatingAndRelease gates in AssignLID too, on both streams;
# TestKillDuringAcquireStopsAtTheAcquire), vm_test.go +34
# (TestGCCollectsGarbage's locked variant: the table follows the heap, a
# recycled slot starts with no monitor), bench_test.go +26
# (BenchmarkUncontendedLock; the two benchmarks share benchTracked),
# alloc_test.go +19 (the lock loop in TestThreadedHotLoopAllocFree),
# heap_test.go +4 (the 136-byte Object) and vm_edge_test.go +3.
# One slow path for every fused group raised it by 193 (18716 -> 18909):
# vm/dispatch_count_test.go +71 (TestDispatchCountsPinned: the fused-stream
# dispatches of the six programs), vm/fault_identity_test.go +59 (a row
# inside every family that holds a faultable op, each checked to run its
# group; the no-contraction row), bytecode/widefuse_test.go +63 (the re-pinned
# wide tier: 104 -> 167 opcodes), pairfreq_test.go +4 (ranks of the new
# families), cold_test.go -2 and epoch_edge_test.go -2 (no pair range).
TEST_LOC_MAX = 18909
# The ratchet on settable values: the exported fields of the root module's
# *Config and *Options structs (benchmark/ excluded), the census `make loc`
# prints. One home per setting set it at 102, from 122: SoftRefsCollectable
# (vm), GCThreshold and Heartbeat (ftvm.Options), GCThreshold
# (RecoverConfig), Replicas (consensus), NetDelay, RepDelay, OpCost,
# AckTimeout, PromoteBase and PromotePerOp (fleet), Tenants, ReqTimeout,
# Backoff and MaxTries (loadgen), Endpoint, HeartbeatEvery, AckTimeout and
# Epoch (PrimaryConfig), Dispatch and OverrideDispatch (debug.Options) and
# Dispatch (harness) went; cluster.Config gained AckTimeout and Epoch, the
# two of PrimaryConfig's that a run sets. A new setting needs a caller, not a
# test, that sets it, and no second home. One search harness lowered it to
# 100: fuzzgen.Config.MaxInstructions, which no caller set, went (the check
# runs under simtest's maxInstructions constant), and so did FuzzConfig.Size
# (a check takes the size from the program it is given). One backup, one
# receive path lowered it to 97: consensus.Config's ElectionMin, ElectionMax
# and Heartbeat, which no caller set, became constants with their defaults.
KNOB_MAX = 97
loc-check:
	./scripts/loc.sh $(LOC_MAX) $(TEST_LOC_MAX) $(KNOB_MAX)

# Clock-injection rule (DESIGN.md): no naked time.Now/time.Sleep/... in
# library code — time comes from an injected clock.Clock, or clock.Real.*
# as an explicit wall-time opt-in.
clock-lint:
	./scripts/clocklint.sh

# Deterministic simulation smoke: a seeded sweep of kill points × channel
# faults across modes and network schedules, fully virtual-time, well under
# 30s of wall clock. Any failure prints a single -replay string.
sim-smoke:
	$(GO) run ./cmd/ftvm-sim -progs 4 -nets 2

# Three-node view-change smoke: the first primary dies, the promoted backup
# recruits the idle node via snapshot + live-tail state transfer, and
# schedules also kill the promoted primary (the n-1 sequential-failure
# space), plus stale-epoch stragglers probing the split-brain gate.
view-smoke:
	$(GO) run ./cmd/ftvm-sim -view -progs 2 -nets 1

# Sharded-fleet smoke: the multi-tenant serving fleet under its seeded
# open-loop load generator — kills mid-window, replication-hop faults, double
# kills, stale-epoch probes — with every request model-checked for
# at-most-once execution. A 100k-client run with a mid-window kill rides
# along to exercise the scale path. Fully virtual-time.
fleet-smoke:
	$(GO) run ./cmd/ftvm-sim -fleet -progs 2
	$(GO) run ./cmd/ftvm-fleet -clients 100000 -nodes 5 -shards 16 -kills n2@800ms

# Consensus-backend smoke: the VM over the 3-replica replicated log —
# leader kills mid-commit, follower kills, partition windows, stale-term
# injections, contested elections — plus the differential smoke, whose
# consensus stage is a clean consensus scenario with its committed log
# replayed (part of the fuzzgen short suite, pinned here so the backend
# cannot be silently dropped from the gate). Fully virtual-time.
consensus-smoke:
	$(GO) run ./cmd/ftvm-sim -consensus -progs 2 -nets 1
	$(GO) test -short -run TestDifferentialSmoke ./internal/fuzzgen

# Time-travel debugger smoke: capture a log from a deterministic replay,
# drive the ftvm-debug REPL with a fixed script (twice, and at a second
# checkpoint density) requiring byte-identical transcripts, then -diff a pair
# of diverging captures and a log against itself. See scripts/debugsmoke.sh.
debug-smoke:
	./scripts/debugsmoke.sh

# Replay the regression tables of historical failure classes under the
# deterministic harness: the pair table (PR 1-3 bugs), the view-change
# table (epoch/promotion bugs), the fleet table (at-most-once /
# state-transfer bugs), and the consensus table (leader-kill-mid-commit /
# stale-term / split-vote classes) — all four through the same ParseKey + Run
# path `ftvm-sim -replay` takes. See internal/simtest/replayseeds_test.go.
replay-seeds:
	$(GO) test -run 'TestReplaySeeds' -v ./internal/simtest

# Bounded fuzzing pass: the differential smoke quota (a few hundred generated
# programs cross-checked standalone, on the simulator's pair and consensus
# scenarios, and across the two interpreter streams), the checks that a fuzz
# failure shrinks, writes its repro and replays from its key, plus a short burst of
# each native fuzz target — one per format that crosses a trust boundary:
# program images, assembler text, wire frames/acks/record batches (and the
# agreement of the two walks over a batch), client requests/replies, .ftlog
# captures, minilang source and simulator replay keys — and the fleet peer's
# receive path, where frames of a shard log arrive. `go test -fuzz` accepts
# one target per invocation.
fuzz-smoke:
	$(GO) test -short ./internal/fuzzgen
	$(GO) test -short -run 'TestInjectedDivergence|TestShrinkPreservesStage|TestFuzzKeysReplayExactly' ./internal/simtest
	$(GO) test -run '^$$' -fuzz FuzzProgramBinary -fuzztime 10s ./internal/bytecode
	$(GO) test -run '^$$' -fuzz FuzzAsmRoundTrip -fuzztime 10s ./internal/bytecode
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeFrame$$' -fuzztime 5s ./internal/wire
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeAck$$' -fuzztime 5s ./internal/wire
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeAll$$' -fuzztime 5s ./internal/wire
	$(GO) test -run '^$$' -fuzz 'FuzzSkipAgreesWithNext$$' -fuzztime 5s ./internal/wire
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeRequestReply$$' -fuzztime 5s ./internal/wire
	$(GO) test -run '^$$' -fuzz 'FuzzDeliver$$' -fuzztime 5s ./internal/fleet
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeLog$$' -fuzztime 5s ./internal/replication
	$(GO) test -run '^$$' -fuzz 'FuzzCompileSource$$' -fuzztime 5s ./internal/minilang
	$(GO) test -run '^$$' -fuzz 'FuzzParseKey$$' -fuzztime 5s ./internal/simtest

check: vet fmt-check clock-lint loc-check build test race bench-smoke bench-spine-smoke fuzz-smoke sim-smoke view-smoke fleet-smoke consensus-smoke debug-smoke

# The identity gates: the table in internal/identity run on the golden
# programs — the fused and step streams at the root (standalone, and over the
# consensus log) and in internal/replication (a pair's event log), the
# reference loop in internal/vm, the one test binary that links it — against
# internal/identity/testdata/exec_golden.json and pairGolden; the fuzzer's
# dispatch stage against the reference loop; and the edge sweeps (budgets,
# quanta, exact targets, faults, a clone inside a stepped tail, opcode homes).
# The command to run after touching the interpreter. `check` does not list it:
# `make test` already runs every test in it.
golden-dual:
	$(GO) test -count=1 -run 'TestExecGolden|TestDispatchDualMode|TestPairBackendByteMatches|TestThreeWay|AcrossEngines|TestCloneInsideExactTail|TestOpcodeHomes' . ./internal/replication ./internal/vm

bench:
	$(GO) run ./cmd/ftvm-bench -all

# A/B pairs of one spine workload: REV's committed tree against the working
# tree, both built reproducibly, N pairs at SEED with the first side of each
# pair drawn from a recorded seed, each side's median and quartiles per
# end-to-end metric and in how many pairs the working tree won or tied. See
# scripts/abpairs.sh.
REV ?= HEAD
WORKLOAD ?= db-lock
SEED ?= 1
N ?= 10
ab:
	./scripts/abpairs.sh $(REV) $(WORKLOAD) $(SEED) $(N)

# The same pairs of REV against itself, both sides built from `git archive
# REV`, so an A/A set runs while the working tree is dirty; it refuses to
# start when the two builds differ.
aa:
	./scripts/abpairs.sh $(REV) $(WORKLOAD) $(SEED) $(N) $(REV)

# One iteration of every Go benchmark: catches benchmarks that no longer
# compile or crash without paying for a real measurement run.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The benchmark spine (BENCHMARK.json, benchmark/) is its own module, which
# the root `go vet ./...` and `go test ./...` do not descend into: vet and
# test it against this tree, so a vm or replication API change cannot break
# it unnoticed.
bench-spine-smoke:
	$(GO) vet -C benchmark ./... && $(GO) test -C benchmark ./...
