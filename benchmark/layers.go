package main

import (
	"encoding/json"
	"fmt"
	"time"

	"moc/internal/abcast"
	"moc/internal/core"
	"moc/internal/mocrpc"
	"moc/internal/mop"
	"moc/internal/object"
	"moc/internal/transport"
	"moc/internal/wire"
)

// The layer harnesses time calls into single packages through their
// public constructors and methods. They are micro-measurements taken
// beside a traced run, never inside a timed window.

// harnessRounds is the iteration count of the in-memory codec loops;
// the networked harnesses use harnessOps round trips.
const (
	harnessRounds = 20000
	harnessOps    = 1000
)

// keep holds the codec loops' results so the compiler cannot remove the
// calls.
var keep any

// wireCost is the binary codec's cost for one payload shape.
type wireCost struct {
	encodeNs, decodeNs float64
	bytes              int
}

func wireHarness(v any) (wireCost, error) {
	buf, err := wire.AppendAny(nil, v)
	if err != nil {
		return wireCost{}, err
	}
	c := wireCost{bytes: len(buf)}
	scratch := make([]byte, 0, len(buf))
	t0 := time.Now()
	for i := 0; i < harnessRounds; i++ {
		if scratch, err = wire.AppendAny(scratch[:0], v); err != nil {
			return wireCost{}, err
		}
	}
	c.encodeNs = float64(time.Since(t0).Nanoseconds()) / harnessRounds
	t0 = time.Now()
	for i := 0; i < harnessRounds; i++ {
		d := wire.NewDecoder(buf)
		keep = d.Any()
		if err := d.Err(); err != nil {
			return wireCost{}, err
		}
	}
	c.decodeNs = float64(time.Since(t0).Nanoseconds()) / harnessRounds
	return c, nil
}

// wirePayloads are the shapes the workloads put on the replica wire: a
// single-object write, a span-2 multi-assignment, and a full batch of 32
// writes. The m-lin query reply type is unexported, so it cannot be
// built from here.
func wirePayloads() map[string]any {
	items := make([]abcast.BatchItem, 32)
	for i := range items {
		items[i] = abcast.BatchItem{From: i % replicas, Payload: mop.WriteOp{X: object.ID(i % 8), V: object.Value(1000 + i)}, Bytes: 16}
	}
	return map[string]any{
		"write":   mop.WriteOp{X: 3, V: 42},
		"massign": mop.MAssign{Writes: map[object.ID]object.Value{2: 41, 5: 42}},
		"batch32": abcast.BatchMsg{Items: items},
	}
}

// rpcCodecCost is the JSON cost of one massign exchange on the mocrpc
// front door: marshal and unmarshal of the request and of the response.
type rpcCodecCost struct {
	roundTripNs         float64
	reqBytes, respBytes int
}

func rpcCodecHarness() (rpcCodecCost, error) {
	yes := true
	req := mocrpc.Request{ID: 12345, Op: "exec", Kind: "massign", Objs: []string{"x2", "x5"}, Vals: []int64{100041, 100042}}
	resp := mocrpc.Response{ID: 12345, OK: true, Level: "all", IsConsistent: &yes}
	rb, err := json.Marshal(req)
	if err != nil {
		return rpcCodecCost{}, err
	}
	sb, err := json.Marshal(resp)
	if err != nil {
		return rpcCodecCost{}, err
	}
	c := rpcCodecCost{reqBytes: len(rb) + 1, respBytes: len(sb) + 1} // +1: the line's newline
	t0 := time.Now()
	for i := 0; i < harnessRounds; i++ {
		var rq mocrpc.Request
		var rs mocrpc.Response
		b, err := json.Marshal(req)
		if err == nil {
			err = json.Unmarshal(b, &rq)
		}
		if err == nil {
			b, err = json.Marshal(resp)
		}
		if err == nil {
			err = json.Unmarshal(b, &rs)
		}
		if err != nil {
			return rpcCodecCost{}, err
		}
		keep = rs
	}
	c.roundTripNs = float64(time.Since(t0).Nanoseconds()) / harnessRounds
	return c, nil
}

// orderHarness times the sequencer alone over loopback TCP: Broadcast to
// the issuer's own Delivery, unbatched, one at a time. The issuer is
// process 1: the sequencer endpoint lives on node 0, so from there both
// the request and the order cross a real socket. The workloads run the
// sequencer only, so the Lamport and token orderers are not timed.
func orderHarness() (orderUs float64, err error) {
	cl, err := transport.NewCluster(replicas)
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	seq, err := abcast.NewSequencer(abcast.SequencerConfig{Procs: replicas, Links: cl.Factory()})
	if err != nil {
		return 0, err
	}
	defer seq.Close()
	stop := make(chan struct{})
	defer close(stop)
	const issuer = 1
	for p := 0; p < replicas; p++ {
		if p == issuer {
			continue
		}
		go func(ch <-chan abcast.Delivery) {
			for {
				select {
				case <-ch:
				case <-stop:
					return
				}
			}
		}(seq.Deliveries(p))
	}
	own := seq.Deliveries(issuer)
	var total time.Duration
	for i := -harnessOps / 10; i < harnessOps; i++ {
		t0 := time.Now()
		if err := seq.Broadcast(issuer, mop.WriteOp{X: object.ID(i & 7), V: object.Value(i)}, 16); err != nil {
			return 0, err
		}
		select {
		case <-own:
		case <-time.After(callTimeout):
			return 0, fmt.Errorf("benchmark: sequencer delivered nothing within %v", callTimeout)
		}
		if i >= 0 {
			total += time.Since(t0)
		}
	}
	return float64(total.Nanoseconds()) / harnessOps / 1e3, nil
}

// shardCost is the serial cost of the shard.Group merge: a single-shard
// and a cross-shard update through a sharded store, and the broadcast
// messages one cross-shard update costs.
type shardCost struct {
	singleUs, crossUs, msgsPerCrossOp float64
}

// shardHarness builds shard.NewGroup the way the workload does — through
// core.New with Shards set — because the group routes by the footprint of
// msc's unexported update payload.
func shardHarness(sp spec) (shardCost, error) {
	shape := sp
	shape.batch, shape.inflight = 1, 1
	em, err := newEmbedded(shape, 1, time.Time{}, nil, nil)
	if err != nil {
		return shardCost{}, err
	}
	defer em.close()
	proc, err := em.store.Process(0)
	if err != nil {
		return shardCost{}, err
	}
	// Objects 0 and shards live on shard 0; object 1 on shard 1.
	single := func(i int) mop.Procedure {
		return mop.MAssign{Writes: map[object.ID]object.Value{0: object.Value(i), object.ID(sp.shards): object.Value(i)}}
	}
	cross := func(i int) mop.Procedure {
		return mop.MAssign{Writes: map[object.ID]object.Value{0: object.Value(i), 1: object.Value(i)}}
	}
	run := func(mk func(int) mop.Procedure) (us, msgs float64, err error) {
		var total time.Duration
		var m0 int64
		for i := -harnessOps / 10; i < harnessOps; i++ {
			if i == 0 {
				m0, _ = em.store.BroadcastCost()
			}
			t0 := time.Now()
			if _, err := proc.Exec(mk(i+harnessOps), core.ExecOptions{}); err != nil {
				return 0, 0, err
			}
			if i >= 0 {
				total += time.Since(t0)
			}
		}
		m1, _ := em.store.BroadcastCost()
		return float64(total.Nanoseconds()) / harnessOps / 1e3, float64(m1-m0) / harnessOps, nil
	}
	var c shardCost
	if c.singleUs, _, err = run(single); err != nil {
		return shardCost{}, err
	}
	if c.crossUs, c.msgsPerCrossOp, err = run(cross); err != nil {
		return shardCost{}, err
	}
	return c, nil
}
