package abcast

import (
	"fmt"
	"testing"
	"time"

	"moc/internal/network/testutil"
)

// TestDeliveryBufferFastForward pins the hold-back buffer's rejoin
// contract: fast-forwarding discards held-back deliveries below the
// resume point, releases the ready suffix at it, and never moves
// backwards.
func TestDeliveryBufferFastForward(t *testing.T) {
	t.Parallel()
	b := newDeliveryBuffer()
	// Orders 5 and 6 arrive while 0..4 were lost to a crash window.
	if got := b.add(Delivery{Seq: 5, Payload: "m5"}); len(got) != 0 {
		t.Fatalf("gap delivery released early: %v", got)
	}
	if got := b.add(Delivery{Seq: 6, Payload: "m6"}); len(got) != 0 {
		t.Fatalf("gap delivery released early: %v", got)
	}
	// A checkpoint covering [0,5) resumes at 5: both held deliveries flow.
	got := b.fastForward(5)
	if len(got) != 2 || got[0].Seq != 5 || got[1].Seq != 6 {
		t.Fatalf("fastForward(5) = %v, want seqs [5 6]", got)
	}
	// Backwards or repeated fast-forwards are no-ops.
	if got := b.fastForward(3); got != nil {
		t.Fatalf("backwards fastForward released %v", got)
	}
	if got := b.add(Delivery{Seq: 7, Payload: "m7"}); len(got) != 1 || got[0].Seq != 7 {
		t.Fatalf("post-resume add = %v, want seq 7", got)
	}
	// Held-back deliveries below a later resume point are discarded.
	b.add(Delivery{Seq: 9, Payload: "m9"})
	if got := b.fastForward(10); len(got) != 0 {
		t.Fatalf("fastForward(10) = %v, want stale seq 9 discarded", got)
	}
}

// TestSequencerResumeSkipsRecoveredPrefix drives Resume end to end on
// the crash-free sequencer: member 0 is fast-forwarded to sequence 2
// before any orders arrive (modeling a restart that adopted a peer
// checkpoint with Applied=2), so it must deliver only the suffix while
// member 1 delivers everything.
func TestSequencerResumeSkipsRecoveredPrefix(t *testing.T) {
	t.Parallel()
	s, err := NewSequencer(SequencerConfig{Procs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	s.Resume(0, 2)
	for i := 0; i < 3; i++ {
		payload := fmt.Sprintf("m%d", i)
		if err := s.Broadcast(1, payload, len(payload)); err != nil {
			t.Fatal(err)
		}
	}
	var c0, c1 testutil.Collector[Delivery]
	s.Subscribe(1, c1.Add)
	full := c1.Wait(t, 10*time.Second, 3, testutil.Source("net", s.NetStats))
	for i, d := range full {
		if d.Seq != int64(i) {
			t.Fatalf("member 1 delivery %d has seq %d", i, d.Seq)
		}
	}
	// The simulated network may reorder the submissions, so the payload
	// holding sequence 2 is whatever member 1 delivered there — the
	// resumed member must deliver exactly that and nothing earlier.
	s.Subscribe(0, c0.Add)
	resumed := c0.Wait(t, 10*time.Second, 1, testutil.Source("net", s.NetStats))
	if len(resumed) != 1 || resumed[0].Seq != 2 || resumed[0].Payload != full[2].Payload {
		t.Fatalf("resumed member delivered %v, want only seq 2 (%v)", resumed, full[2].Payload)
	}
	time.Sleep(100 * time.Millisecond)
	if n := c0.Len(); n != 1 {
		t.Fatalf("resumed member delivered %d orders, want only seq 2", n)
	}
}
