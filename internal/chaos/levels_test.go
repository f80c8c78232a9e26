package chaos

import (
	"slices"
	"testing"
	"time"

	"moc/internal/mocrpc"
)

// TestSlowPeerLevels is the TCP half of the QUORUM-vs-ALL trade (the
// SC-ABD quorum argument): three m-linearizable daemons, daemon 2
// started with -faultdelay so every frame it sends its peers is late.
// An ALL query from daemon 0 must gather daemon 2's response, so it
// cannot complete before the injected delay; a QUORUM query completes
// from daemons 0 and 1 without it. Both bounds are deterministic — the
// ALL floor is the delay itself, and the QUORUM median sits orders of
// magnitude under half of it — so no tail percentile is asserted.
func TestSlowPeerLevels(t *testing.T) {
	if testing.Short() {
		t.Skip("launches mocd daemons; skipped in -short")
	}
	bin, err := buildOnce()
	if err != nil {
		t.Fatal(err)
	}
	const faultDelay = 25 * time.Millisecond
	objs := []string{"a", "b", "c", "d"}
	cluster, err := Launch(ClusterConfig{
		MocdBin:     bin,
		Dir:         t.TempDir(),
		N:           3,
		Objects:     objs,
		Consistency: "mlin",
		Seed:        19,
		// The slow daemon still answers: QueryTimeout only backstops a
		// lost round and sits well above the injected delay.
		QueryTimeout: 400 * time.Millisecond,
		SlowNode:     2,
		FaultDelay:   faultDelay,
		RecoverWait:  500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	dump := func() {
		for i, log := range cluster.Logs() {
			t.Logf("daemon %d output:\n%s", i, log)
		}
	}

	c, err := mocrpc.Dial(cluster.ClientAddrs()[0], 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec("massign", objs, []int64{1, 2, 3, 4}, ""); err != nil {
		dump()
		t.Fatalf("seed massign: %v", err)
	}

	const perLevel = 20
	reads := func(level string) []time.Duration {
		ds := make([]time.Duration, 0, perLevel)
		for i := 0; i < perLevel; i++ {
			start := time.Now()
			resp, err := c.Exec("read", []string{objs[i%len(objs)]}, nil, level)
			ds = append(ds, time.Since(start))
			if err != nil {
				dump()
				t.Fatalf("%s read %d: %v", level, i, err)
			}
			if resp.Level != level {
				dump()
				t.Fatalf("%s read %d certified %q: the slow peer was not merely slow", level, i, resp.Level)
			}
			if want := int64(i%len(objs) + 1); resp.Value == nil || *resp.Value != want {
				dump()
				t.Fatalf("%s read %d of %s = %v, want the seeded %d", level, i, objs[i%len(objs)], resp.Value, want)
			}
		}
		slices.Sort(ds)
		return ds
	}
	quorum, all := reads("quorum"), reads("all")
	t.Logf("quorum min/median/max %v/%v/%v; all min/median/max %v/%v/%v",
		quorum[0], quorum[perLevel/2], quorum[perLevel-1], all[0], all[perLevel/2], all[perLevel-1])

	if all[0] < faultDelay {
		t.Fatalf("fastest ALL read took %v, under the slow peer's %v frame delay", all[0], faultDelay)
	}
	if med := quorum[perLevel/2]; med >= faultDelay/2 {
		t.Fatalf("QUORUM median %v is not below %v: quorum reads waited for the slow peer", med, faultDelay/2)
	}
}
