package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"moc/internal/core"
	"moc/internal/mocrpc"
)

// ShardCampaignConfig parameterizes RunShardCampaign: a two-phase
// availability campaign against a sharded mocd cluster. Phase A runs
// the full cluster with a mixed workload whose span-2 footprints cross
// shard boundaries freely; at the boundary one daemon — the one owning
// a shard lane's sequencer endpoint — is SIGKILLed and never restarted
// (sharded lanes cannot adopt a checkpoint, so there is no rejoin
// path). Phase B restricts the survivors to objects of the shards whose
// coordinators survive: those lanes must keep serving while the dead
// lane is a total outage, and the merged kill-torn traces must still be
// accepted by the unchanged exact checker.
type ShardCampaignConfig struct {
	// Cluster must set Shards > 1. Consistency must be "msc" (m-lin
	// query rounds gather peer responses and would couple shard
	// availability to the dead daemon).
	Cluster ClusterConfig
	// Kill is the daemon SIGKILLed at the phase boundary. Lane s's
	// sequencer endpoint N+s is owned by daemon (N+s) mod N, so killing
	// daemon d takes down every lane s with s ≡ d (mod N); at least one
	// shard's coordinator must survive.
	Kill int
	// PhaseA, PhaseB are the phase lengths.
	PhaseA, PhaseB time.Duration
	// Pace is each worker's gap between operation attempts.
	Pace time.Duration
	// ReadFrac is the fraction of query operations.
	ReadFrac float64
	// CallTimeout bounds each RPC; RetryBase/RetryMax bound the
	// client-side reconnect backoff. Defaults: 2s, 10ms, 250ms.
	CallTimeout         time.Duration
	RetryBase, RetryMax time.Duration
	// Bucket is the availability-timeline bucket width. Default 100ms.
	Bucket time.Duration
}

// ShardCampaignResult summarizes one sharded chaos campaign.
type ShardCampaignResult struct {
	Attempts      int64 `json:"attempts"`
	OK            int64 `json:"ok"`
	Unavailable   int64 `json:"unavailable"`
	Indeterminate int64 `json:"indeterminate"`
	ServerErrors  int64 `json:"serverErrors"`
	// KillAt marks the SIGKILL on the same clock as Buckets.
	KillAt time.Duration `json:"killAtNs"`
	// OKAfterKill / UnavailableAfterKill sum the timeline from the kill
	// on: successes are the surviving shards' availability, failures the
	// dead daemon's client measuring the outage.
	OKAfterKill          int64 `json:"okAfterKill"`
	UnavailableAfterKill int64 `json:"unavailableAfterKill"`
	// SafeObjects is the phase-B object pool (shards with a surviving
	// coordinator).
	SafeObjects []string `json:"safeObjects"`
	// ShardSpec is the shard map the traces carried (MergeTraces rejects
	// disagreeing streams).
	ShardSpec string `json:"shardSpec"`
	// Records / TornLines / Accepted are the merged-trace verdict.
	Records   int  `json:"records"`
	TornLines int  `json:"tornLines"`
	Accepted  bool `json:"accepted"`
	// Buckets is the availability timeline.
	Buckets []Bucket `json:"buckets"`
	// Logs carries the daemons' output for diagnosis.
	Logs []string `json:"-"`
}

// safeObjects returns the objects of every shard whose sequencer
// coordinator is not the killed daemon, preserving list order.
func safeObjects(cfg ShardCampaignConfig) []string {
	n := cfg.Cluster.N
	var out []string
	for idx, name := range cfg.Cluster.Objects {
		s := idx % cfg.Cluster.Shards
		if (n+s)%n != cfg.Kill {
			out = append(out, name)
		}
	}
	return out
}

// anchorFix issues one paused-worker update on the safe object pool,
// moving the worker's server-side session anchor onto surviving shards
// before the kill (the daemons run one issuing lane, so the session is
// the process): a later update whose anchor still named the victim
// lane could be promoted onto it and block forever on the dead
// coordinator — the documented liveness cost of
// session anchoring, which this campaign steps around rather than
// measures. Retries transient connect failures; all lanes are still
// alive here, so the update itself always completes.
func (w *worker) anchorFix(objs []string, deadline time.Duration) error {
	op := w.ops
	w.ops++
	val := 1 + op*int64(w.n) + int64(w.id)
	vals := make([]int64, len(objs))
	for i := range vals {
		vals[i] = val
	}
	var err error
	for start := time.Now(); time.Since(start) < deadline; {
		if _, err = w.client.Exec("massign", objs, vals, ""); err == nil {
			return nil
		}
		if !mocrpc.IsRetryable(err) {
			return err
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("chaos: anchor fix on worker %d: %w", w.id, err)
}

// RunShardCampaign executes the sharded lane-kill campaign and
// validates the merged trace files with the exact checker.
func RunShardCampaign(cfg ShardCampaignConfig) (*ShardCampaignResult, error) {
	if cfg.Cluster.Shards < 2 {
		return nil, errors.New("chaos: shard campaign needs Cluster.Shards > 1")
	}
	if cfg.Cluster.Consistency != "" && cfg.Cluster.Consistency != "msc" {
		return nil, fmt.Errorf("chaos: shard campaign supports msc only, got %q", cfg.Cluster.Consistency)
	}
	if cfg.Kill < 0 || cfg.Kill >= cfg.Cluster.N {
		return nil, fmt.Errorf("chaos: Kill %d out of range", cfg.Kill)
	}
	if cfg.Pace <= 0 {
		return nil, errors.New("chaos: Pace is required (unpaced campaigns overwhelm the exact checkers)")
	}
	safe := safeObjects(cfg)
	if len(safe) < 2 {
		return nil, fmt.Errorf("chaos: killing daemon %d leaves %d safe objects; span-2 footprints need at least 2",
			cfg.Kill, len(safe))
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = 2 * time.Second
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 10 * time.Millisecond
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = 250 * time.Millisecond
	}
	if cfg.Bucket <= 0 {
		cfg.Bucket = 100 * time.Millisecond
	}

	cluster, err := Launch(cfg.Cluster)
	if err != nil {
		return nil, err
	}
	defer cluster.Close()

	wcfg := &CampaignConfig{
		Cluster:     cfg.Cluster,
		Pace:        cfg.Pace,
		ReadFrac:    cfg.ReadFrac,
		CallTimeout: cfg.CallTimeout,
		RetryBase:   cfg.RetryBase,
		RetryMax:    cfg.RetryMax,
		Bucket:      cfg.Bucket,
	}
	workers := make([]*worker, cfg.Cluster.N)
	for i := range workers {
		cl, err := mocrpc.Dial(cluster.ClientAddrs()[i], 10*time.Second)
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		cl.SetCallTimeout(cfg.CallTimeout)
		workers[i] = &worker{
			id: i, cfg: wcfg, client: cl,
			objects:        cfg.Cluster.Objects,
			restrictedObjs: safe,
			rng:            rand.New(rand.NewSource(cfg.Cluster.Seed + int64(i)*7919)),
			n:              cfg.Cluster.N,
		}
	}

	start := time.Now()
	tl := &timeline{start: start, width: cfg.Bucket}
	counters := &campaignCounters{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, w := range workers {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(cfg.Pace)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					if w.paused.Load() {
						continue
					}
					w.stepMu.Lock()
					w.step(tl, counters, stop)
					w.stepMu.Unlock()
				}
			}
		}()
	}

	// Phase A: full cluster, footprints cross shards freely.
	time.Sleep(cfg.PhaseA)

	// Quiesce everyone: the victim for trace completeness (an update the
	// lane ordered but the victim never acknowledged would be applied at
	// survivors yet recorded in no trace), the survivors so their
	// session anchors can be pinned onto a surviving shard before the
	// lane goes down.
	for _, w := range workers {
		w.paused.Store(true)
	}
	for _, w := range workers {
		w.stepMu.Lock()
		w.stepMu.Unlock() //nolint:staticcheck // barrier, not a critical section
	}
	for i, w := range workers {
		if i == cfg.Kill {
			continue
		}
		if err := w.anchorFix(safe[:2], 5*time.Second); err != nil {
			close(stop)
			wg.Wait()
			return nil, err
		}
	}
	killAt := time.Since(start)
	if err := cluster.Kill(cfg.Kill); err != nil {
		close(stop)
		wg.Wait()
		return nil, err
	}
	// Phase B: survivors carry a safe-shard-only load; the killed
	// daemon's worker measures the dead lane as unavailability.
	for i, w := range workers {
		if i != cfg.Kill {
			w.restricted.Store(true)
		}
		w.paused.Store(false)
	}
	time.Sleep(cfg.PhaseB)
	close(stop)
	wg.Wait()

	res := &ShardCampaignResult{
		Attempts:      counters.attempts.Load(),
		OK:            counters.ok.Load(),
		Unavailable:   counters.unavailable.Load(),
		Indeterminate: counters.indeterminate.Load(),
		ServerErrors:  counters.serverErrs.Load(),
		KillAt:        killAt,
		SafeObjects:   safe,
	}

	if err := cluster.SigtermAll(15 * time.Second); err != nil {
		res.Logs = cluster.Logs()
		return res, err
	}
	res.Logs = cluster.Logs()

	tl.mu.Lock()
	res.Buckets = tl.buckets
	tl.mu.Unlock()
	for _, b := range res.Buckets {
		if b.Start >= killAt {
			res.OKAfterKill += b.OK
			res.UnavailableAfterKill += b.Unavailable
		}
	}

	traces, torn, err := cluster.Traces()
	if err != nil {
		return res, err
	}
	res.TornLines = torn
	if len(traces) > 0 {
		res.ShardSpec = traces[0].Shards
	}
	recs, reg, cons, err := core.MergeTraces(traces...)
	if err != nil {
		return res, err
	}
	res.Records = len(recs)
	h, _, err := core.BuildHistory(reg, recs)
	if err != nil {
		return res, fmt.Errorf("chaos: merged sharded traces do not form a well-formed history: %w", err)
	}
	res.Accepted, err = check(cons, h)
	if err != nil {
		return res, err
	}
	return res, nil
}
