package abcast

import (
	"sync"
	"testing"

	"moc/internal/transport"
)

// benchBatcher is the deployed shape of the batched update path: a
// sequencer over a three-node loopback TCP cluster under a batch-32
// Batcher with the default window. The issuer is process 1 — the sequencer endpoint
// lives on node 0, so both the request and the order cross a socket.
// own is the issuer's subscriber; the other processes subscribe a no-op.
func benchBatcher(b *testing.B, own func(Delivery)) *Batcher {
	const procs, issuer = 3, 1
	cl, err := transport.NewCluster(procs)
	if err != nil {
		b.Fatalf("NewCluster: %v", err)
	}
	seq, err := NewSequencer(SequencerConfig{Procs: procs, Links: cl.Factory()})
	if err != nil {
		cl.Close()
		b.Fatalf("NewSequencer: %v", err)
	}
	bat := NewBatcher(seq, BatchConfig{Size: 32})
	for p := 0; p < procs; p++ {
		if p == issuer {
			bat.Subscribe(p, own)
		} else {
			bat.Subscribe(p, func(Delivery) {})
		}
	}
	b.Cleanup(func() {
		bat.Close()
		cl.Close()
	})
	return bat
}

// BenchmarkBatcherLone is the latency an idle Batcher adds to one
// update: submit, wait for the issuer's own delivery, repeat.
func BenchmarkBatcherLone(b *testing.B) {
	landed := make(chan struct{}, 1)
	bat := benchBatcher(b, func(Delivery) { landed <- struct{}{} })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bat.Broadcast(1, int64(i), 8); err != nil {
			b.Fatalf("Broadcast: %v", err)
		}
		<-landed
	}
}

// BenchmarkBatcherPipelined keeps 64 closed-loop submitters on one
// Batcher and reports how many updates a flush carries.
func BenchmarkBatcherPipelined(b *testing.B) {
	const submitters = 64
	done := make([]chan struct{}, submitters)
	for i := range done {
		done[i] = make(chan struct{}, 1)
	}
	// Every update carries its submitter's index; the issuer's
	// subscriber hands each own delivery back to the submitter waiting
	// on it.
	bat := benchBatcher(b, func(d Delivery) { done[d.Payload.(int64)] <- struct{}{} })
	f0, _, _ := bat.BatchStats()
	b.ResetTimer()
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		n := b.N / submitters
		if s < b.N%submitters {
			n++
		}
		wg.Add(1)
		go func(s, n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := bat.Broadcast(1, int64(s), 8); err != nil {
					b.Errorf("Broadcast: %v", err)
					return
				}
				<-done[s]
			}
		}(s, n)
	}
	wg.Wait()
	b.StopTimer()
	f1, _, _ := bat.BatchStats()
	b.ReportMetric(float64(b.N)/float64(f1-f0), "items/flush")
}
