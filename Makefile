# Tier-1 verification entry points. `make verify` is what CI and the
# pre-merge check run: vet plus the full suite under the race detector,
# so the network/protocol shutdown paths and the chaos tests are always
# exercised with -race. Chaos tests honor -short (see `make quick`).

GO ?= go

.PHONY: build test race vet verify quick bench codec-gate chaos-smoke monitor-smoke shard-smoke batcher-loop completion-loop bench-smoke judge

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# codec-gate = wire-codec checks that need a non-race build: the frame
# fuzz seed corpus (every registered kind, the same frames under the
# retired codec byte, and hostile prefixes), the send-path allocation
# gate, and the allocation ceilings of the replica's completion paths
# (its local read, its strong query and its update, under m-SC and
# m-lin), plus mocrpc's binary exec frames: the FuzzExecFrame seed
# corpus (every kind and level, hostile counts, every truncation) and
# the allocation ceiling of the server's framed exec loop; the shard
# schedule's zero-allocation single-shard delivery; MAssign's
# allocation counts on its apply and encode paths, with its pinned wire
# bytes; and the broadcast hold-back buffer's zero-allocation in-order
# delivery. The race detector disables sync.Pool reuse, which charges the
# pooled frame buffer to every encode, and instruments allocations, so
# the allocation assertions only hold without -race — hence the
# separate invocation.
codec-gate:
	$(GO) test ./internal/transport/ -run 'FuzzReadFrame|TestSendPathZeroAllocs' -count=1
	$(GO) test ./internal/mocrpc/ -run 'FuzzExecFrame|TestRPCExecAllocs' -count=1
	$(GO) test ./internal/core/ -run TestExecAllocationCeiling -count=1
	$(GO) test ./internal/shard/ -run 'FuzzRouting|TestScheduleDeliverAllocs' -count=1
	$(GO) test ./internal/mop/ -run TestMAssignAllocs -count=1
	$(GO) test ./internal/abcast/ -run TestDeliveryBufferAllocs -count=1

# shard-smoke = the sharding acceptance checks, race-instrumented: the
# shard.Group unit tests (exact ticket/close/commit message counts per
# lane, replicas fed the same lane streams in different cross-lane
# interleavings, no hold-back at the issuer, and the delivery callbacks:
# Subscribe starts no goroutine, and a replica's lane callbacks, each on
# its lane's own goroutine, never overlap) and the per-replica
# schedule tests (every interleaving of fixed lane logs gives the same
# lane schedules, and only the issuer returns its Close and Commit),
# the randomized cross-shard interleaving test in short mode (seeded
# adversarial schedules over the three-phase ticket/close/commit merge,
# every history through the unchanged exact checker), the
# store-buffering litmus cells (SB, SB with multi-reads, IRIW and a
# pipelined SB on two shards, m-SC and m-lin, 60 seeds each through the
# exact checker, the polynomial Verify required to agree with
# VerifyExact on every run), the sharding scaling test (closed-loop
# updates under a modeled per-NIC egress budget: 4 shard lanes against
# 1, in the simulator, with 10% cross-shard updates, and over loopback
# TCP, each held to a loose lower bound on its ops/s ratio), plus the
# sharded chaos cell: chaos-smoke's RunCampaign on a two-shard cluster,
# where the victim coordinates one lane and stays down (no -recover),
# the survivors narrow to the objects whose coordinator lives, that
# shard must keep serving and the merged traces must verify. The cell
# skips under -short, so it runs here without it.
shard-smoke:
	$(GO) test ./internal/shard/ -race -run 'TestGroup|TestSchedule' -count=1
	$(GO) test ./internal/core/ -race -short -run 'TestShardInterleaving|TestShardStoreBuffering|TestShardingScalesOrderingCapacity' -count=1 -v
	$(GO) test ./internal/chaos/ -race -run TestChaosShardedLaneKill -count=1 -v

# chaos-smoke = the seeded chaos acceptance run: race-instrumented mocd
# daemons on loopback TCP under socket resets, frame corruption and a
# timed partition, one SIGKILL + checkpoint-transfer rejoin, and the
# merged kill-safe traces validated by the unchanged exact checker. One
# seed drives the whole campaign, so a failure reproduces.
chaos-smoke:
	$(GO) test ./internal/chaos/ -race -run TestChaosSmoke -count=1 -v

# monitor-smoke = the live-verification acceptance run: real daemons
# stream every completed record over TCP to an in-process mocmon
# pipeline while one daemon is SIGKILLed and restarted (zero violations,
# restart visible as a superseded stream generation), then a planted
# stale read (mocd -staleinject) must be flagged online as Lemma 16.
monitor-smoke:
	$(GO) test ./internal/chaos/ -race -run TestMonitorSmoke -count=1 -v

# batcher-loop = the Batcher's tests, and the crash-free conformance
# tests of the three orderers under it, twenty times over under the race
# detector. The Batcher's flush policy is clocked by its own deliveries,
# which its callback counts back in on the inner orderer's member loop
# while submitters and the flusher race it, and an orderer's delivery
# order by its message interleaving, so what they do depends on how
# goroutines interleave; one pass samples one interleaving, and a
# load-dependent failure shows only in a loop.
batcher-loop:
	$(GO) test -race -count=20 -run 'Batcher|^Test(Sequencer|Lamport|Token)(Conformance|ConformanceNoDelay|SingleProcess)$$' ./internal/abcast/

# completion-loop = the completion-path race tests twenty times over
# under the race detector: m-SC and m-lin operations complete on the
# replica's own loops and timers, racing a failed broadcast, query
# deadlines and Close for the one call of their callback, and the
# RecordSink must see records in response order; like the Batcher's,
# these races show only in a loop.
completion-loop:
	$(GO) test -race -count=20 -run 'RecordSink|Submit|BatcherCloseRaces' ./internal/core ./internal/mlin ./internal/abcast

# judge = rehearse a before/after benchmark comparison against PARENT
# (any git revision): PAIRS alternating parent/change runs of every
# workload, stopping at the first run that is not correct=true with
# failed=0; scripts/judge.sh says what it prints.
PAIRS ?= 10
judge:
	scripts/judge.sh $(PARENT) $(PAIRS)

# bench-smoke = the repository benchmark (benchmark/README.md) with
# one-second windows: every workload end to end with its correctness
# gate on, so a change that leaves the tests green but makes a run
# incorrect (records reaching the sink late, say) fails here.
bench-smoke:
	$(GO) run -C benchmark moc/benchmark -smoke

# verify = the tier-1 gate: vet + race-enabled tests + codec and
# allocation gates + the Batcher and completion race loops + the seeded
# chaos campaign + the live-verification smoke. The full (non-short) interleaving soak and
# sharded chaos cell already run inside `race`; shard-smoke is the fast
# standalone cut CI reuses.
verify: vet race codec-gate batcher-loop completion-loop chaos-smoke monitor-smoke

# quick = the fast loop: -short trims the chaos/stress iteration counts.
quick:
	$(GO) test -short -race ./...

bench:
	$(GO) test -bench . -benchtime 1x .
