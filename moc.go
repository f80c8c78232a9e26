// Package moc (Multi-Object Consistency) is a Go implementation of
// Mittal & Garg, "Consistency Conditions for Multi-Object Distributed
// Operations" (ICDCS 1998): a replicated multi-object shared memory
// whose operations — m-operations — atomically span several objects,
// with a pluggable consistency condition, full execution recording, and
// checkers for the paper's consistency conditions.
//
// # Quickstart
//
//	s, err := moc.New(moc.Config{
//		Procs:       3,
//		Objects:     []string{"x", "y"},
//		Consistency: moc.MLinearizable,
//	})
//	if err != nil { ... }
//	defer s.Close()
//
//	p0, _ := s.Process(0)
//	x, _ := s.Object("x")
//	y, _ := s.Object("y")
//	_ = p0.MAssign(map[moc.ObjectID]moc.Value{x: 1, y: 2})
//	ok, _ := p0.DCAS(x, y, 1, 2, 10, 20) // atomic two-object CAS
//	_ = ok
//
//	// Per-request consistency: trade freshness guarantees for latency.
//	r, _ := p0.Exec(moc.MultiRead{Xs: []moc.ObjectID{x, y}},
//		moc.ExecOptions{Level: moc.Quorum})
//	_ = r.Value // plus r.Level, r.Responders, r.IsConsistent
//
//	res, _ := s.Verify() // re-check m-linearizability of the whole run
//
// # What is inside
//
//   - The formal model of Section 2 (histories, reads-from, legality,
//     admissibility) lives in internal/history.
//   - The exact NP-hard deciders for m-sequential consistency,
//     m-linearizability and m-normality (Theorems 1–2), the polynomial
//     Theorem 7 procedure for constrained executions, and Misra's
//     polynomial single-object case live in internal/checker; the most
//     useful entry points are re-exported below.
//   - The Section 5 protocols (Figures 4 and 6) share one replica,
//     internal/mlin, over a simulated asynchronous network
//     (internal/network) and two from-scratch atomic broadcast
//     implementations (internal/abcast).
//   - The database-schedule substrate of the Theorem 2 reduction lives
//     in internal/serial.
//
// See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
// per-figure reproduction results; `go run ./cmd/mocbench` regenerates
// them.
package moc

import (
	"moc/internal/checker"
	"moc/internal/core"
	"moc/internal/history"
	"moc/internal/mop"
	"moc/internal/object"
)

// Store, configuration and handles (see internal/core).
type (
	// Config parameterizes New.
	Config = core.Config
	// Store is a replicated multi-object shared memory.
	Store = core.Store
	// Process is a handle to one sequential process of a Store.
	Process = core.Process
	// Consistency selects the consistency condition a Store implements.
	Consistency = core.Consistency
	// BroadcastKind selects the atomic broadcast implementation.
	BroadcastKind = core.BroadcastKind
	// VerifyResult is the outcome of Store.Verify.
	VerifyResult = core.VerifyResult
	// ExecOptions tunes one Process.Exec call (per-request consistency
	// level); the zero value requests the store's native behavior.
	ExecOptions = core.ExecOptions
	// Result is what Process.Exec returns: the procedure's value plus
	// the certified consistency level, the responders that contributed,
	// and whether the certified level honors the requested one.
	Result = core.Result
	// Level is a per-request consistency level (One, Quorum, All).
	Level = core.Level
	// Future is a pending asynchronous m-operation (Process.ExecAsync).
	Future = core.Future
)

// Per-request consistency levels for m-linearizable stores. ONE reads
// the issuer's replica (session-monotonic, m-SC strength); QUORUM
// completes a query once a majority of replicas answered; ALL solicits
// every replica (the Figure 6 behavior, and the default).
const (
	One    = core.One
	Quorum = core.Quorum
	All    = core.All
)

// Object identity and values (see internal/object).
type (
	// ObjectID is the dense index of a shared object.
	ObjectID = object.ID
	// Value is the value stored in a shared object.
	Value = object.Value
	// ObjectSet is an immutable set of object IDs; procedures declare
	// their footprints with it.
	ObjectSet = object.Set
)

// NewObjectSet builds a footprint set for custom procedures (Func).
func NewObjectSet(ids ...ObjectID) ObjectSet { return object.NewSet(ids...) }

// Executable m-operations (see internal/mop).
type (
	// Procedure is a deterministic m-operation.
	Procedure = mop.Procedure
	// Txn is the object-access interface a Procedure runs against.
	Txn = mop.Txn
	// ReadOp, WriteOp, MultiRead, Sum, MAssign, CAS, DCAS, Transfer and
	// Func are the ready-made multi-object operations.
	ReadOp    = mop.ReadOp
	WriteOp   = mop.WriteOp
	MultiRead = mop.MultiRead
	Sum       = mop.Sum
	MAssign   = mop.MAssign
	CAS       = mop.CAS
	DCAS      = mop.DCAS
	Transfer  = mop.Transfer
	Func      = mop.Func
)

// Histories and checking (see internal/history and internal/checker).
type (
	// History is a recorded execution history (Section 2.2).
	History = history.History
	// Sequence is a candidate legal sequential history.
	Sequence = history.Sequence
	// CheckResult is the outcome of the exact deciders.
	CheckResult = checker.Result
)

// Consistency conditions (Section 2.3).
const (
	// MSequential is m-sequential consistency: local queries, broadcast
	// updates (Figure 4).
	MSequential = core.MSequential
	// MLinearizable is m-linearizability: queries additionally collect
	// the freshest versions from all processes (Figure 6).
	MLinearizable = core.MLinearizable
	// MLinearizableLocking is m-linearizability under the OO-constraint:
	// per-object homes with ordered exclusive locking (sharding instead
	// of replication, Section 4's object-level synchronization).
	MLinearizableLocking = core.MLinearizableLocking
	// MCausal is m-causal consistency (extension beyond the paper's own
	// protocols): updates apply locally and disseminate causally.
	MCausal = core.MCausal
)

// Atomic broadcast implementations.
const (
	// SequencerBroadcast routes updates through a fixed sequencer.
	SequencerBroadcast = core.SequencerBroadcast
	// LamportBroadcast totally orders updates with Lamport clocks and
	// all-to-all acknowledgements.
	LamportBroadcast = core.LamportBroadcast
	// TokenBroadcast totally orders updates with a circulating token.
	TokenBroadcast = core.TokenBroadcast
)

// New builds and starts a replicated multi-object store.
func New(cfg Config) (*Store, error) { return core.New(cfg) }

// CheckMSequential decides m-sequential consistency of a history with
// the exact (NP-hard, Theorem 1) decider.
func CheckMSequential(h *History) (CheckResult, error) {
	return checker.MSequentiallyConsistent(h)
}

// CheckMLinearizable decides m-linearizability of a history with the
// exact (NP-hard, Theorem 2) decider.
func CheckMLinearizable(h *History) (CheckResult, error) {
	return checker.MLinearizable(h)
}

// CheckMNormal decides m-normality of a history with the exact decider.
func CheckMNormal(h *History) (CheckResult, error) {
	return checker.MNormal(h)
}

// CheckMCausal decides m-causal consistency of a history (per-process
// views, exact decision).
func CheckMCausal(h *History) (checker.CausalResult, error) {
	return checker.MCausallyConsistent(h)
}

// DecodeHistory parses a history from its JSON interchange form (the
// format emitted by history JSON marshalling and cmd/mocsim -json).
func DecodeHistory(data []byte) (*History, error) {
	return history.DecodeJSON(data)
}
