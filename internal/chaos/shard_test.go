package chaos

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestChaosShardedLaneKill is the sharded chaos acceptance run, the
// same RunCampaign as TestChaosSmoke on a sharded cluster: a
// 3-daemon cluster with the object space split over two sequencer
// lanes, a mixed cross-shard workload, then a SIGKILL of the daemon
// coordinating lane 1 — with no restart, since sharded lanes have no
// checkpoint rejoin path. The shard whose coordinator survives must
// keep completing operations while the dead daemon's client measures a
// total outage, and the merged kill-torn traces (which carry the shard
// map) must be accepted by the unchanged exact m-SC checker.
func TestChaosShardedLaneKill(t *testing.T) {
	if testing.Short() {
		t.Skip("full multi-process chaos campaign; run via make chaos-smoke")
	}
	bin, err := buildOnce()
	if err != nil {
		t.Fatal(err)
	}
	// Six objects over two shards: shard 0 = {a, c, e} (coordinator
	// daemon 0, survives), shard 1 = {b, d, f} (coordinator daemon 1,
	// killed).
	res, err := RunCampaign(CampaignConfig{
		Cluster: ClusterConfig{
			MocdBin:     bin,
			Dir:         t.TempDir(),
			N:           3,
			Objects:     []string{"a", "b", "c", "d", "e", "f"},
			Consistency: "msc",
			Shards:      2,
			Seed:        41,
		},
		Kill:        1,
		PhaseA:      900 * time.Millisecond,
		PhaseB:      900 * time.Millisecond,
		Pace:        60 * time.Millisecond,
		ReadFrac:    0.5,
		CallTimeout: time.Second,
	})
	if err != nil {
		if res != nil {
			for i, log := range res.Logs {
				t.Logf("daemon %d output:\n%s", i, log)
			}
		}
		t.Fatal(err)
	}
	t.Logf("attempts=%d ok=%d unavailable=%d indeterminate=%d records=%d torn=%d okAfterKill=%d unavailableAfterKill=%d shards=%q",
		res.Attempts, res.OK, res.Unavailable, res.Indeterminate, res.Records,
		res.TornLines, res.OKAfterKill, res.UnavailableAfterKill, res.ShardSpec)

	dump := func() {
		for i, log := range res.Logs {
			t.Logf("daemon %d output:\n%s", i, log)
		}
	}
	if !res.Accepted {
		dump()
		t.Fatalf("merged sharded chaos history (%d records) rejected by the exact checker", res.Records)
	}
	if res.ShardSpec == "" {
		dump()
		t.Fatal("traces carried no shard map")
	}
	if res.OKAfterKill == 0 {
		dump()
		t.Fatal("the surviving shard completed nothing after the lane kill")
	}
	if res.UnavailableAfterKill == 0 {
		dump()
		t.Fatal("the killed coordinator produced no measured unavailability")
	}
	if res.ServerErrors != 0 {
		dump()
		t.Fatalf("%d server errors on a well-formed workload", res.ServerErrors)
	}
	if want := []string{"a", "c", "e"}; !slices.Equal(res.SafeObjects, want) {
		dump()
		t.Fatalf("safe pool %v, want %v", res.SafeObjects, want)
	}
}

// TestSafeObjects pins the survivor pool rule: object idx is on lane
// idx mod max(Shards, 1), lane s is coordinated by daemon (N+s) mod N,
// and the pool is every object whose coordinator survives. Unsharded,
// daemon 0 coordinates the only lane.
func TestSafeObjects(t *testing.T) {
	objs := []string{"a", "b", "c", "d", "e", "f"}
	for _, tc := range []struct {
		shards, kill int
		want         []string
	}{
		{0, 0, nil},
		{0, 2, objs},
		{1, 0, nil},
		{1, 2, objs},
		{2, 1, []string{"a", "c", "e"}},
	} {
		cfg := CampaignConfig{Cluster: ClusterConfig{N: 3, Objects: objs, Shards: tc.shards}, Kill: tc.kill}
		if got := safeObjects(cfg); !slices.Equal(got, tc.want) {
			t.Errorf("Shards %d, Kill %d: pool %v, want %v", tc.shards, tc.kill, got, tc.want)
		}
	}
}

// TestRunCampaignRejectsBeforeLaunch: a campaign the cluster cannot run
// fails with an error naming its rule, before any daemon starts (the
// mocd binary does not exist, so a launch would fail differently).
func TestRunCampaignRejectsBeforeLaunch(t *testing.T) {
	dir := t.TempDir()
	valid := func() CampaignConfig {
		return CampaignConfig{
			Cluster: ClusterConfig{
				MocdBin: filepath.Join(dir, "no-such-mocd"),
				Dir:     dir,
				N:       3,
				Objects: []string{"a", "b", "c", "d", "e", "f"},
			},
			Kill:   2,
			PhaseA: time.Millisecond,
			PhaseB: time.Millisecond,
			Pace:   time.Millisecond,
		}
	}
	for _, tc := range []struct {
		name   string
		mutate func(*CampaignConfig)
		want   string
	}{
		{"unsharded kill 0", func(c *CampaignConfig) { c.Kill = 0 }, "leaves 0 objects whose lane coordinator survives"},
		{"kill N", func(c *CampaignConfig) { c.Kill = 3 }, "is not a daemon in [0, 3)"},
		{"sharded phase C", func(c *CampaignConfig) { c.Cluster.Shards, c.PhaseC = 2, time.Millisecond }, "PhaseC needs an unsharded cluster"},
		{"sharded mlin", func(c *CampaignConfig) { c.Cluster.Shards, c.Cluster.Consistency = 2, "mlin" }, "supports msc only"},
		{"pace 0", func(c *CampaignConfig) { c.Pace = 0 }, "Pace is required"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := valid()
			tc.mutate(&cfg)
			res, err := RunCampaign(cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RunCampaign = %v, %v; want an error containing %q", res, err, tc.want)
			}
		})
	}
	// The unmutated config does reach Launch, which is what makes the
	// cases above pre-launch rejections.
	if _, err := RunCampaign(valid()); err == nil || !strings.Contains(err.Error(), "start daemon 0") {
		t.Fatalf("valid config: got %v, want a launch failure", err)
	}
}
