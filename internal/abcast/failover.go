// Crash-stop failure handling of the sequencer, the one broadcast that
// fails over: heartbeat-based failure suspicion, and the timing
// assumption under which failover preserves the total order.
//
// The failure model is crash-stop with restart (network-level: a down
// endpoint's traffic is dropped, see network.Faults.Crashes). Detection
// is by timeout: every process sends a heartbeat every Interval; a
// process unheard from for Timeout is suspected. Suspicion is accurate —
// and failover therefore safe — only under the timing assumption
//
//	Timeout >> MaxDelay + DelaySpike + retransmission backoff
//
// which the chaos tests maintain and DESIGN.md discusses: a falsely
// suspected (merely slow or partitioned) process can otherwise diverge
// from the group, the classic impossibility that full consensus-based
// view synchrony exists to solve. This package documents the assumption
// instead of solving consensus; see DESIGN.md section "Crash-stop fault
// model".
//
// A member whose own endpoint is down behaves like a halted process: its
// protocol loop discards everything it receives (only self-sends can
// reach it anyway) and takes no failover actions, so a crashed process
// cannot deliver or take over as sequencer while the rest of the group
// routes around it.
package abcast

import (
	"time"
)

// FDConfig enables heartbeat failure detection and crash failover in a
// Sequencer. Nil disables detection entirely — the sequencer then
// behaves exactly as in the crash-free build (no heartbeat traffic, fixed
// sequencer).
type FDConfig struct {
	// Interval is the heartbeat period. Default 2ms.
	Interval time.Duration
	// Timeout is how long a process may go unheard before it is
	// suspected. It must dominate the worst-case delivery delay including
	// retransmission; default 10×Interval.
	Timeout time.Duration
}

// withDefaults fills in zero fields.
func (c FDConfig) withDefaults() FDConfig {
	if c.Interval <= 0 {
		c.Interval = 2 * time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = 10 * c.Interval
	}
	return c
}

// detector is one process's failure detector. It is owned by that
// process's protocol loop and is not safe for concurrent use.
type detector struct {
	self    int
	timeout time.Duration
	heard   []time.Time
}

func newDetector(n, self int, timeout time.Duration) *detector {
	d := &detector{self: self, timeout: timeout, heard: make([]time.Time, n)}
	d.reset()
	return d
}

// hear records a sign of life from q (any message counts).
func (d *detector) hear(q int) { d.heard[q] = time.Now() }

// reset marks every process as just heard — used at startup and when the
// owner itself restarts, so a freshly (re)joined process does not
// instantly suspect the world.
func (d *detector) reset() {
	now := time.Now()
	for i := range d.heard {
		d.heard[i] = now
	}
}

// suspected reports whether q has gone unheard for the timeout. A
// process never suspects itself.
func (d *detector) suspected(q int) bool {
	if q == d.self {
		return false
	}
	return time.Since(d.heard[q]) > d.timeout
}

// suspectedCount returns how many processes are currently suspected.
func (d *detector) suspectedCount() int {
	c := 0
	for q := range d.heard {
		if d.suspected(q) {
			c++
		}
	}
	return c
}
