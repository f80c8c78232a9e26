package mop

import "moc/internal/history"

// ExecOptions carries the per-request execution knobs of the unified
// Exec entry point. The zero value requests the store's default
// behavior, which matches what the pre-options Execute signatures did.
type ExecOptions struct {
	// Level selects the consistency level for query m-operations:
	// history.LevelOne reads only the local replica, history.LevelQuorum
	// completes at a majority of replicas, history.LevelAll waits for
	// every replica (the store default). Updates ignore the level — they
	// always flow through the atomic broadcast's total order.
	Level history.Level
}
