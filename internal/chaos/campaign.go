package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"moc/internal/checker"
	"moc/internal/core"
	"moc/internal/history"
	"moc/internal/mocrpc"
)

// CampaignConfig parameterizes RunCampaign: an availability campaign
// over a real mocd cluster. Phase A runs the full cluster (with socket
// faults and an optional partition window), phase B runs with one
// daemon SIGKILLed, and on an unsharded cluster phase C runs after the
// victim restarts and rejoins via checkpoint transfer. Sharded lanes
// cannot adopt a checkpoint, so a sharded campaign ends with phase B
// and its victim stays down. Op counts are paced, not open-loop: the
// exact checkers that validate the merged history are exponential in
// the worst case, so a campaign keeps the history bounded.
type CampaignConfig struct {
	// Cluster is the cluster to launch. A sharded one (Shards > 1) must
	// run "msc": m-lin query rounds gather peer responses and would
	// couple every shard's availability to the dead daemon.
	Cluster ClusterConfig
	// Kill is the daemon SIGKILLed at the A/B boundary, in [0, N).
	// Object idx is on lane idx mod S (S = max(Shards, 1)), and lane s's
	// coordinator endpoint N+s is owned by daemon (N+s) mod N. The
	// survivor pool, every object whose coordinator is not Kill, must
	// hold at least 2 objects (span-2 footprints). Unsharded, daemon 0
	// hosts the one coordinator, so killing it empties the pool: losing
	// the sequencer is a total outage, not a single-node failure.
	Kill int
	// PhaseA, PhaseB, PhaseC are the phase lengths. PhaseC must be 0 on
	// a sharded cluster.
	PhaseA, PhaseB, PhaseC time.Duration
	// Pace is each worker's gap between operation attempts.
	Pace time.Duration
	// ReadFrac is the fraction of query operations (reads never risk
	// duplication, so they retry through every failure class).
	ReadFrac float64
	// QueryLevels optionally assigns each query a consistency level
	// drawn uniformly from this list ("one", "quorum", "all"; "" is the
	// store's native level). Empty keeps every query level-less, the
	// pre-v1.1 behavior. Mixed-level campaigns on an m-linearizable
	// cluster are validated with the composed leveled checker: the full
	// merged history must be m-sequentially consistent and its
	// restriction to updates plus strong-certified queries must be
	// m-linearizable.
	QueryLevels []string
	// CallTimeout bounds each RPC; RetryBase/RetryMax bound the
	// client-side reconnect backoff. Defaults: 2s, 10ms, 250ms.
	CallTimeout         time.Duration
	RetryBase, RetryMax time.Duration
	// Bucket is the availability-timeline bucket width. Default 100ms.
	Bucket time.Duration
}

// Bucket is one slot of the availability timeline.
type Bucket struct {
	// Start is the bucket's offset from campaign start.
	Start time.Duration `json:"startNs"`
	// Attempts counts operation attempts that finished in this bucket;
	// OK counts the successful ones; Unavailable and Indeterminate the
	// failure classes (Unavailable = never reached a daemon,
	// Indeterminate = outcome unknown, update not retried).
	Attempts      int64 `json:"attempts"`
	OK            int64 `json:"ok"`
	Unavailable   int64 `json:"unavailable"`
	Indeterminate int64 `json:"indeterminate"`
}

// CampaignResult summarizes one chaos campaign.
type CampaignResult struct {
	Attempts      int64 `json:"attempts"`
	OK            int64 `json:"ok"`
	Unavailable   int64 `json:"unavailable"`
	Indeterminate int64 `json:"indeterminate"`
	// ServerErrors counts application-level refusals (should be zero —
	// the workload only issues well-formed operations; teardown-window
	// refusals land in Unavailable).
	ServerErrors int64 `json:"serverErrors"`
	// P50, P99 are completed-operation latencies, first attempt to
	// success, so an update that rides out an outage reports the outage.
	P50 time.Duration `json:"p50Ns"`
	P99 time.Duration `json:"p99Ns"`
	// Buckets is the availability timeline.
	Buckets []Bucket `json:"buckets"`
	// KillAt, RestartAt mark the schedule on the same clock as Buckets
	// (RestartAt stays 0 on a sharded cluster, whose victim stays down).
	KillAt    time.Duration `json:"killAtNs"`
	RestartAt time.Duration `json:"restartAtNs"`
	// OKAfterKill / UnavailableAfterKill sum the timeline from the kill
	// on: successes are the survivors' availability, failures the
	// victim's client measuring the outage.
	OKAfterKill          int64 `json:"okAfterKill"`
	UnavailableAfterKill int64 `json:"unavailableAfterKill"`
	// SafeObjects is the survivor pool (see CampaignConfig.Kill), the
	// only objects the survivors touch from the kill on.
	SafeObjects []string `json:"safeObjects"`
	// ShardSpec is the shard map the traces carried, "" unsharded
	// (MergeTraces rejects disagreeing streams).
	ShardSpec string `json:"shardSpec"`
	// Recoveries is the restarted daemon's adopted-checkpoint count
	// (1 = it rejoined via checkpoint transfer).
	Recoveries int64 `json:"recoveries"`
	// FaultResets, FaultCorrupted, PartitionRefusals sum the daemons'
	// injected-fault counters.
	FaultResets       int64 `json:"faultResets"`
	FaultCorrupted    int64 `json:"faultCorrupted"`
	PartitionRefusals int64 `json:"partitionRefusals"`
	// Records is the merged trace size; Accepted is the exact checker's
	// verdict on the merged history. TornLines counts interior trace
	// lines skipped as corrupt by the lenient reader (kill-torn files).
	Records   int  `json:"records"`
	TornLines int  `json:"tornLines"`
	Accepted  bool `json:"accepted"`
	// Logs carries the daemons' output for diagnosis.
	Logs []string `json:"-"`
}

// worker drives one daemon with paced, chaos-disciplined operations.
type worker struct {
	id      int
	cfg     *CampaignConfig
	client  *mocrpc.Client
	objects []string // footprint pool; narrowed to the survivor pool at the kill
	rng     *rand.Rand
	n       int // value-uniqueness stride

	ops int64 // monotone per-worker op counter; consumed even on failure

	// stepMu is held for each step. RunCampaign holds it across the kill
	// to quiesce the worker, and only then touches its other fields.
	stepMu sync.Mutex

	latencies []time.Duration // read once the worker goroutine has exited
}

// result buckets are shared across workers.
type timeline struct {
	start   time.Time
	width   time.Duration
	mu      sync.Mutex
	buckets []Bucket
}

func (tl *timeline) record(at time.Time, ok bool, unavailable, indeterminate bool) {
	idx := int(at.Sub(tl.start) / tl.width)
	if idx < 0 {
		idx = 0
	}
	tl.mu.Lock()
	for len(tl.buckets) <= idx {
		tl.buckets = append(tl.buckets, Bucket{Start: time.Duration(len(tl.buckets)) * tl.width})
	}
	b := &tl.buckets[idx]
	b.Attempts++
	switch {
	case ok:
		b.OK++
	case unavailable:
		b.Unavailable++
	case indeterminate:
		b.Indeterminate++
	}
	tl.mu.Unlock()
}

// step issues one operation with the chaos retry discipline: updates
// are retried only while the request provably never reached the daemon
// (ErrUnavailable); queries additionally retry through indeterminate
// failures. Values are never reused, even for failed updates — an
// indeterminate update may have executed, and a duplicate value would
// poison the merged history.
func (w *worker) step(tl *timeline, counters *campaignCounters, stop <-chan struct{}) {
	op := w.ops
	w.ops++
	update := w.rng.Float64() >= w.cfg.ReadFrac
	// Span-2 footprint: two distinct objects per operation.
	i := w.rng.Intn(len(w.objects))
	j := (i + 1 + w.rng.Intn(len(w.objects)-1)) % len(w.objects)
	objs := []string{w.objects[i], w.objects[j]}
	level := ""
	if !update && len(w.cfg.QueryLevels) > 0 {
		level = w.cfg.QueryLevels[w.rng.Intn(len(w.cfg.QueryLevels))]
	}

	backoff := w.cfg.RetryBase
	t0 := time.Now()
	for {
		var err error
		if update {
			val := 1 + op*int64(w.n) + int64(w.id)
			_, err = w.client.Exec("massign", objs, []int64{val, val}, "")
		} else {
			_, err = w.client.Exec("sum", objs, nil, level)
		}
		now := time.Now()
		counters.attempts.Add(1)
		if err == nil {
			counters.ok.Add(1)
			tl.record(now, true, false, false)
			// Latency is measured from the first attempt, so an update
			// that rides out an outage via retries reports the outage.
			w.latencies = append(w.latencies, now.Sub(t0))
			return
		}
		switch {
		case mocrpc.IsRetryable(err):
			counters.unavailable.Add(1)
			tl.record(now, false, true, false)
		case mocrpc.IsIndeterminate(err):
			counters.indeterminate.Add(1)
			tl.record(now, false, false, true)
		default:
			counters.serverErrs.Add(1)
			tl.record(now, false, false, false)
			return
		}
		// Retry the same operation — same value — only while that is
		// provably safe: the request never reached a daemon, or it is a
		// query. An indeterminate update burns its value and stops.
		if !mocrpc.IsRetryable(err) && update {
			return
		}
		var sleep time.Duration
		sleep, backoff = jitteredBackoff(backoff, w.cfg.RetryMax, w.rng)
		select {
		case <-stop:
			return
		case <-time.After(sleep):
		}
	}
}

func jitteredBackoff(cur, max time.Duration, rng *rand.Rand) (sleep, next time.Duration) {
	sleep = cur
	if half := int64(cur / 2); half > 0 {
		sleep = time.Duration(half + rng.Int63n(half+1))
	}
	next = cur * 2
	if next > max {
		next = max
	}
	return sleep, next
}

type campaignCounters struct {
	attempts, ok, unavailable, indeterminate, serverErrs atomic.Int64
}

// safeObjects returns the survivor pool in list order: every object
// whose lane coordinator is not the killed daemon (see
// CampaignConfig.Kill).
func safeObjects(cfg CampaignConfig) []string {
	n, lanes := cfg.Cluster.N, max(cfg.Cluster.Shards, 1)
	var out []string
	for idx, name := range cfg.Cluster.Objects {
		if (n+idx%lanes)%n != cfg.Kill {
			out = append(out, name)
		}
	}
	return out
}

// anchorFix issues one quiesced-worker update on the survivor pool,
// moving the worker's server-side session anchor onto surviving lanes
// before the kill (the daemons run one issuing lane, so the session is
// the process): a later update whose anchor still named the victim's
// lane could be promoted onto it and block forever on the dead
// coordinator — the documented liveness cost of session anchoring,
// which the campaign steps around rather than measures. Unsharded, it
// is one more unique-valued update. Retries transient connect failures;
// every lane is still alive here, so the update itself completes.
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
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("chaos: anchor fix on worker %d (%v deadline): %w", w.id, deadline, err)
}

// RunCampaign executes the chaos campaign and validates the merged
// trace files with the exact checker matching the cluster's consistency
// condition. Every difference between an unsharded and a sharded
// campaign follows from Cluster.Shards.
func RunCampaign(cfg CampaignConfig) (*CampaignResult, error) {
	sharded := cfg.Cluster.Shards > 1
	switch {
	case cfg.Pace <= 0:
		return nil, errors.New("chaos: Pace is required (unpaced campaigns overwhelm the exact checkers)")
	case sharded && cfg.Cluster.Consistency != "" && cfg.Cluster.Consistency != "msc":
		return nil, fmt.Errorf("chaos: a sharded campaign supports msc only, got %q", cfg.Cluster.Consistency)
	case sharded && cfg.PhaseC > 0:
		return nil, errors.New("chaos: PhaseC needs an unsharded cluster (sharded lanes have no checkpoint rejoin, so the victim stays down)")
	case cfg.Kill < 0 || cfg.Kill >= cfg.Cluster.N:
		return nil, fmt.Errorf("chaos: Kill %d is not a daemon in [0, %d)", cfg.Kill, cfg.Cluster.N)
	}
	safe := safeObjects(cfg)
	if len(safe) < 2 {
		return nil, fmt.Errorf("chaos: killing daemon %d leaves %d objects whose lane coordinator survives; span-2 footprints need at least 2",
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

	workers := make([]*worker, cfg.Cluster.N)
	for i := range workers {
		cl, err := mocrpc.Dial(cluster.ClientAddrs()[i], 10*time.Second)
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		cl.SetCallTimeout(cfg.CallTimeout)
		workers[i] = &worker{
			id: i, cfg: &cfg, client: cl,
			objects: cfg.Cluster.Objects,
			rng:     rand.New(rand.NewSource(cfg.Cluster.Seed + int64(i)*7919)),
			n:       cfg.Cluster.N,
		}
	}

	start := time.Now()
	tl := &timeline{start: start, width: cfg.Bucket}
	counters := &campaignCounters{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, w := range workers {
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
					w.stepMu.Lock()
					w.step(tl, counters, stop)
					w.stepMu.Unlock()
				}
			}
		}()
	}
	stopWorkers := sync.OnceFunc(func() {
		close(stop)
		wg.Wait()
	})
	defer stopWorkers()

	// Phase A: full cluster under socket faults (and the partition
	// window, if configured); footprints cross lanes freely.
	time.Sleep(cfg.PhaseA)
	// Quiesce every worker across the kill by holding its stepMu, which
	// waits out its in-flight step and starts no other. An update the
	// lane ordered but the victim never acknowledged would be applied at
	// survivors yet recorded in no trace — a survivor read observing it
	// would leave the merged history incomplete — so every victim update
	// at kill time is either acknowledged (recorded in the kill-safe
	// trace) or provably never submitted. Meanwhile each survivor pins
	// its session onto the pool and narrows its footprints to it. The
	// kill itself stays impolite — no drain, no trace seal — and the
	// victim's worker resumes at once so the outage is measured.
	var killAt time.Duration
	err = func() error {
		for _, w := range workers {
			w.stepMu.Lock()
			defer w.stepMu.Unlock()
		}
		for i, w := range workers {
			if i == cfg.Kill {
				continue
			}
			if err := w.anchorFix(safe[:2], 5*time.Second); err != nil {
				return err
			}
			w.objects = safe
		}
		killAt = time.Since(start)
		return cluster.Kill(cfg.Kill)
	}()
	if err != nil {
		return nil, err
	}
	// Phase B: survivors carry the pool's load; the victim's worker
	// records unavailability.
	time.Sleep(cfg.PhaseB)
	var restartAt time.Duration
	if !sharded {
		// Phase C: the restarted daemon serves again after checkpoint
		// rejoin.
		if err := cluster.Restart(cfg.Kill); err != nil {
			return nil, err
		}
		restartAt = time.Since(start)
		time.Sleep(cfg.PhaseC)
	}
	stopWorkers()

	res := &CampaignResult{
		Attempts:      counters.attempts.Load(),
		OK:            counters.ok.Load(),
		Unavailable:   counters.unavailable.Load(),
		Indeterminate: counters.indeterminate.Load(),
		ServerErrors:  counters.serverErrs.Load(),
		KillAt:        killAt,
		RestartAt:     restartAt,
		SafeObjects:   safe,
	}

	// Harvest counters from the live daemons before shutting down.
	for i := 0; i < cfg.Cluster.N; i++ {
		info, err := cluster.Info(i)
		if err != nil {
			continue
		}
		if i == cfg.Kill {
			res.Recoveries = info["recoveries"]
		}
		res.FaultResets += info["faultResets"]
		res.FaultCorrupted += info["faultCorrupted"]
		res.PartitionRefusals += info["partitionRefusals"]
	}

	if err := cluster.SigtermAll(15 * time.Second); err != nil {
		res.Logs = cluster.Logs()
		return res, err
	}
	res.Logs = cluster.Logs()

	var lats []time.Duration
	for _, w := range workers {
		lats = append(lats, w.latencies...)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if len(lats) > 0 {
		res.P50 = lats[len(lats)/2]
		res.P99 = lats[len(lats)*99/100]
	}
	res.Buckets = tl.buckets
	for _, b := range res.Buckets {
		if b.Start >= killAt {
			res.OKAfterKill += b.OK
			res.UnavailableAfterKill += b.Unavailable
		}
	}

	// Merge every generation's trace file and run the exact checker.
	traces, torn, err := cluster.Traces()
	if err != nil {
		return res, err
	}
	res.TornLines = torn
	res.ShardSpec = traces[0].Shards
	recs, reg, cons, err := core.MergeTraces(traces...)
	if err != nil {
		return res, err
	}
	res.Records = len(recs)
	h, _, err := core.BuildHistory(reg, recs)
	if err != nil {
		return res, fmt.Errorf("chaos: merged traces do not form a well-formed history: %w", err)
	}
	if len(cfg.QueryLevels) > 0 && cons == core.MLinearizable {
		// Mixed-level campaign: hold each query to the condition it was
		// certified at (force-completed quorum/all queries degrade to
		// the m-SC-only check automatically).
		r, err := checker.MixedLevels(h)
		if err != nil {
			return res, err
		}
		res.Accepted = r.Consistent
		return res, nil
	}
	res.Accepted, err = check(cons, h)
	if err != nil {
		return res, err
	}
	return res, nil
}

// check runs the exact checker for the campaign's consistency.
func check(cons core.Consistency, h *history.History) (bool, error) {
	switch cons {
	case core.MSequential:
		r, err := checker.MSequentiallyConsistent(h)
		if err != nil {
			return false, err
		}
		return r.Admissible, nil
	case core.MLinearizable:
		r, err := checker.MLinearizable(h)
		if err != nil {
			return false, err
		}
		return r.Admissible, nil
	default:
		return false, fmt.Errorf("chaos: no exact checker for %v", cons)
	}
}
