package shard

import (
	"reflect"
	"slices"
	"testing"

	"moc/internal/abcast"
)

// ticket is lane delivery of cross operation id's Ticket: issued by
// from over shards, closing on closer, carrying payload id.
func ticket(id int64, from int, shards []int, closer int) abcast.Delivery {
	return abcast.Delivery{From: from, Payload: Ticket{
		ID: id, From: from, Shards: shards, Closer: closer, Payload: testPayload{ID: int(id)}, Bytes: 8,
	}}
}

// single is a lane delivery of single-shard payload id.
func single(id int) abcast.Delivery {
	return abcast.Delivery{Payload: testPayload{ID: id}}
}

// issueLogs completes the lane logs: a fresh schedule for each issuer r
// reads them lane after lane in the order reads[r], issuer 0 first,
// until none delivers anything new, and every Close and Commit an issuer
// returns is sequenced on its lanes at once.
func issueLogs(logs [][]abcast.Delivery, reads [][]int) {
	scheds := make([]*schedule, len(reads))
	pos := make([][]int, len(reads))
	for r := range reads {
		scheds[r], pos[r] = newSchedule(r, len(logs)), make([]int, len(logs))
	}
	for progress := true; progress; {
		progress = false
		for r, lanes := range reads {
			for _, s := range lanes {
				for ; pos[r][s] < len(logs[s]); pos[r][s]++ {
					_, out := scheds[r].Deliver(s, logs[s][pos[r][s]])
					for _, o := range out {
						for _, l := range o.lanes {
							logs[l] = append(logs[l], abcast.Delivery{From: r, Payload: o.msg})
						}
					}
					progress = true
				}
			}
		}
	}
}

// interleavings calls f with every interleaving of lanes holding n[s]
// messages each, as the sequence of lanes to deliver from.
func interleavings(n []int, f func(order []int)) {
	left := slices.Clone(n)
	total := 0
	for _, c := range n {
		total += c
	}
	order := make([]int, 0, total)
	var rec func()
	rec = func() {
		if len(order) == total {
			f(order)
			return
		}
		for s := range left {
			if left[s] > 0 {
				left[s]--
				order = append(order, s)
				rec()
				order = order[:len(order)-1]
				left[s]++
			}
		}
	}
	rec()
}

// slot is one emitted operation as a lane schedule records it.
type slot struct {
	id  int
	seq int64
}

// Every interleaving of fixed lane logs, fed to a fresh schedule, gives
// the same per-lane schedules, emits every operation once the logs are
// drained, and schedules cross operations in ascending (final, id) order
// on every lane. The issuers run first and fix the logs; their Closes
// and Commits land where their own reading order puts them, which is
// chosen so that each of three broken merges fails here (final rank =
// partial rank, no clock lift at commit, partial rank = the last stamp
// instead of the maximum). Each shape holds single-shard traffic before
// and after its cross operations, and across its interleavings each
// operation's Close is delivered both before and after a Commit of the
// same operation.
func TestScheduleInterleavings(t *testing.T) {
	cases := []struct {
		name  string
		logs  [][]abcast.Delivery // Tickets and the singles before them
		reads [][]int             // per issuer: the order it reads the lanes in
		after []int               // per lane: a single sequenced after the merge, or 0
	}{
		{
			// X (12) is issued by 0 on shard 0 and closes on shard 1, Y
			// (11) by 1 the other way round; each issuer reads its own
			// lane first.
			"2 lanes, closing on each other's lane",
			[][]abcast.Delivery{
				{single(1), ticket(12, 0, []int{0, 1}, 1)},
				{single(2), ticket(11, 1, []int{0, 1}, 0)},
			},
			[][]int{{0, 1}, {1, 0}},
			[]int{3, 4},
		},
		{
			// U (22, issuer 0) and V (21, issuer 1) both close on shard
			// 2; U's ticket runs first on shard 0 and V's on shard 1.
			// Issuer 0 reads the highest lane first, issuer 1 the lowest.
			"3 lanes, ticketed in opposite lane orders",
			[][]abcast.Delivery{
				{ticket(22, 0, []int{0, 1, 2}, 2), ticket(21, 1, []int{0, 1, 2}, 2)},
				{ticket(21, 1, []int{0, 1, 2}, 2), ticket(22, 0, []int{0, 1, 2}, 2)},
				{single(5)},
			},
			[][]int{{2, 1, 0}, {0, 1, 2}},
			[]int{6, 7, 0},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			logs := c.logs
			issueLogs(logs, c.reads)
			for s, id := range c.after {
				if id != 0 {
					logs[s] = append(logs[s], single(id))
				}
			}
			// The final ranks the issuers announced, and the operation count.
			final := make(map[int]int64)
			ops := make(map[int]bool)
			lens := make([]int, len(logs))
			for s, log := range logs {
				lens[s] = len(log)
				for _, d := range log {
					switch m := d.Payload.(type) {
					case Commit:
						final[int(m.ID)] = m.Final
					case Ticket:
						ops[int(m.ID)] = true
					case testPayload:
						ops[m.ID] = true
					}
				}
			}
			var want [][]slot
			closeFirst, closeLater := make(map[int]int), make(map[int]int)
			n := 0
			interleavings(lens, func(order []int) {
				n++
				sc := newSchedule(2, len(logs)) // a replica that issued nothing
				pos := make([]int, len(logs))
				got := make([][]slot, len(logs))
				closed, committed := make(map[int]bool), make(map[int]bool)
				emitted := 0
				for _, s := range order {
					d := logs[s][pos[s]]
					pos[s]++
					switch m := d.Payload.(type) {
					case Close:
						closed[int(m.ID)] = true
					case Commit:
						if id := int(m.ID); !committed[id] {
							committed[id] = true
							if closed[id] {
								closeFirst[id]++
							} else {
								closeLater[id]++
							}
						}
					}
					emit, out := sc.Deliver(s, d)
					if len(out) > 0 {
						t.Fatalf("order %v: a replica that issued nothing returned %+v", order, out)
					}
					for _, e := range emit {
						emitted++
						for _, u := range e.Shards {
							got[u] = append(got[u], slot{e.Payload.(testPayload).ID, e.Seq})
						}
					}
				}
				if emitted != len(ops) || len(sc.cross) != 0 {
					t.Fatalf("order %v: stalled with %d of %d operations emitted", order, emitted, len(ops))
				}
				if want == nil {
					want = got
					for s, lane := range got {
						var prev slot
						for _, e := range lane {
							f, ok := final[e.id]
							if !ok {
								continue
							}
							if prev.id != 0 && (f < final[prev.id] || f == final[prev.id] && e.id < prev.id) {
								t.Fatalf("lane %d schedules %d (final %d) after %d (final %d)", s, e.id, f, prev.id, final[prev.id])
							}
							prev = e
						}
					}
				} else if !reflect.DeepEqual(got, want) {
					t.Fatalf("order %v: lane schedules %v, want %v", order, got, want)
				}
			})
			for id := range final {
				if closeFirst[id] == 0 || closeLater[id] == 0 {
					t.Errorf("operation %d: Close before a Commit in %d interleavings, after in %d; want both",
						id, closeFirst[id], closeLater[id])
				}
			}
			t.Logf("%d interleavings of lanes %v", n, lens)
		})
	}
}

// Only the issuer's schedule returns merge messages: one Close on the
// closing lane alone, from the delivery of the last Ticket on the other
// lanes, with the maximum stamp as its partial rank; then one Commit on
// those other lanes, from the delivery of the Close, with the rank the
// Close committed; then nothing.
func TestScheduleDeliverOutbound(t *testing.T) {
	const id, partial = 7, 3
	w := ticket(id, 0, []int{0, 1, 2}, 2)
	cases := []struct {
		name    string
		first   int // the ticket lane delivered first
		closing int // foreign tickets on the closing lane before the Close
		want    int64
	}{
		{"lane 1 last, partial rank wins", 0, 0, partial},
		{"lane 0 last, partial rank wins", 1, 0, partial},
		{"closing stamp wins", 0, 4, 5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// Two foreign tickets lift shard 1's clock, so W stamps 1 on
			// shard 0 and 3 on shard 1.
			logs := [][]abcast.Delivery{
				{w},
				{ticket(100, 2, []int{1, 2}, 2), ticket(101, 2, []int{1, 2}, 2), w},
				nil,
			}
			for i := 0; i < c.closing; i++ {
				logs[2] = append(logs[2], ticket(int64(200+i), 2, []int{0, 2}, 0))
			}
			issuer, other := newSchedule(0, 3), newSchedule(1, 3)
			deliver := func(s int, d abcast.Delivery) []outbound {
				t.Helper()
				if _, out := other.Deliver(s, d); len(out) > 0 {
					t.Fatalf("replica 1 returned %+v for lane %d", out, s)
				}
				_, out := issuer.Deliver(s, d)
				return slices.Clone(out)
			}
			expect := func(got []outbound, lanes []int, msg any, bytes int) {
				t.Helper()
				if want := []outbound{{lanes, msg, bytes}}; !reflect.DeepEqual(got, want) {
					t.Fatalf("outbound %+v, want %+v", got, want)
				}
			}
			lane := func(s int) {
				t.Helper()
				for i, d := range logs[s] {
					out := deliver(s, d)
					if s == 1-c.first && i == len(logs[s])-1 {
						expect(out, []int{2}, Close{Ticket: w.Payload.(Ticket), Partial: partial},
							8+ticketOverhead(3)+closeBytes)
						logs[2] = append(logs[2], abcast.Delivery{From: 0, Payload: out[0].msg})
					} else if len(out) > 0 {
						t.Fatalf("lane %d message %d: outbound %+v before the last ticket", s, i, out)
					}
				}
			}
			lane(c.first)
			lane(1 - c.first)
			for i, d := range logs[2] {
				out := deliver(2, d)
				if i < len(logs[2])-1 {
					if len(out) > 0 {
						t.Fatalf("foreign ticket %d on the closing lane: outbound %+v", i, out)
					}
					continue
				}
				expect(out, []int{0, 1}, Commit{ID: id, Final: c.want}, commitBytes)
				for _, s := range out[0].lanes {
					if out := deliver(s, abcast.Delivery{From: 0, Payload: out[0].msg}); len(out) > 0 {
						t.Fatalf("Commit on lane %d: outbound %+v", s, out)
					}
				}
			}
			if got := issuer.cross[id].final; got != c.want {
				t.Fatalf("committed rank %d, want %d", got, c.want)
			}
		})
	}
}

// A single-shard delivery on an idle lane allocates nothing: the lane
// schedule and Deliver's results reuse their buffers, and the emitted
// delivery's Shards is the lane's shared one-element slice. The
// allocation counts hold only without -race (make codec-gate).
func TestScheduleDeliverAllocs(t *testing.T) {
	sc := newSchedule(0, 2)
	d := single(1)
	if n := testing.AllocsPerRun(100, func() { sc.Deliver(1, d) }); n != 0 {
		t.Fatalf("%v allocations per single-shard delivery, want 0", n)
	}
	emit, _ := sc.Deliver(1, d)
	if !reflect.DeepEqual(emit[0].Shards, []int{1}) {
		t.Fatalf("Shards = %v, want [1]", emit[0].Shards)
	}
}

// BenchmarkScheduleDeliver times the merge step a lane callback runs
// under its replica lock. "single" is a single-shard delivery on an
// idle lane, the shape TestScheduleDeliverAllocs pins at 0 allocations.
// "cross" is one two-lane cross operation at its issuer's replica and at
// another replica: the Ticket on lane 0, the Close the issuer sends on
// lane 1, then the Commit it sends back on lane 0, which emits it.
func BenchmarkScheduleDeliver(b *testing.B) {
	b.Run("single", func(b *testing.B) {
		b.ReportAllocs()
		sc, d := newSchedule(0, 2), single(1)
		for i := 0; i < b.N; i++ {
			sc.Deliver(1, d)
		}
	})
	b.Run("cross", func(b *testing.B) {
		b.ReportAllocs()
		const issuer, procs = 0, 2
		shards := []int{0, 1}
		tickets := make([]abcast.Delivery, b.N)
		for i := range tickets {
			tickets[i] = ticket(int64(i+1)*procs+issuer, issuer, shards, 1)
		}
		reps := []*schedule{newSchedule(issuer, len(shards)), newSchedule(1, len(shards))}
		// deliver hands d to every replica on lane s and returns the merge
		// message the issuer's replica sends in reply, if any.
		deliver := func(s int, d abcast.Delivery) (reply abcast.Delivery, emitted int) {
			for _, sc := range reps {
				emit, out := sc.Deliver(s, d)
				emitted += len(emit)
				if len(out) > 0 {
					reply = abcast.Delivery{From: issuer, Payload: out[0].msg}
				}
			}
			return reply, emitted
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			closeMsg, _ := deliver(0, tickets[i])
			commit, _ := deliver(1, closeMsg)
			if _, emitted := deliver(0, commit); emitted != len(reps) {
				b.Fatalf("op %d emitted at %d of %d replicas", i, emitted, len(reps))
			}
		}
	})
}
