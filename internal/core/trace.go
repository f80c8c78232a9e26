package core

import (
	"errors"
	"fmt"
	"sort"

	"moc/internal/history"
	"moc/internal/mop"
	"moc/internal/object"
)

// ErrInFlight is returned by History/Verify while Execute calls are
// still outstanding.
var ErrInFlight = errors.New("core: m-operations still in flight; quiesce before building the history")

// ErrRecordingDisabled is returned when the store was configured with
// DisableRecording.
var ErrRecordingDisabled = errors.New("core: recording disabled")

// buildHistory reconstructs the execution history from the captured
// records, caching the raw material for sync-relation derivation.
func (s *Store) buildHistory() (*history.History, []history.ID, error) {
	if s.cfg.DisableRecording {
		return nil, nil, ErrRecordingDisabled
	}
	s.mu.Lock()
	if s.inFlight.Load() != 0 {
		s.mu.Unlock()
		return nil, nil, ErrInFlight
	}
	recs := make([]mop.Record, len(s.records))
	copy(recs, s.records)
	s.mu.Unlock()

	h, updateIDs, br, err := buildFromRecords(s.reg, recs)
	if err != nil {
		return nil, nil, err
	}
	s.mu.Lock()
	s.lastBuild = br
	s.mu.Unlock()
	return h, updateIDs, nil
}

// BuildHistory reconstructs an execution history from raw protocol
// records — typically records merged from several processes' trace
// dumps (MergeTraces). The records must cover a quiescent execution and
// carry timestamps from a shared clock (Config.Epoch). The returned IDs
// are the update m-operations in atomic-broadcast delivery order (the
// ~ww order).
func BuildHistory(reg *object.Registry, recs []mop.Record) (*history.History, []history.ID, error) {
	h, updateIDs, _, err := buildFromRecords(reg, recs)
	return h, updateIDs, err
}

// buildFromRecords is the shared reconstruction: the reads-from relation
// is derived exactly as in D5.1/D5.6 — the version vector at an
// m-operation's start event names, per object, the version it read;
// versions are mapped to writers by replaying the update m-operations in
// atomic-broadcast delivery order (version 0 is the imaginary initial
// m-operation). It mutates recs (sorting by invocation time).
func buildFromRecords(reg *object.Registry, recs []mop.Record) (*history.History, []history.ID, *buildResult, error) {
	// Deterministic builder order: by invocation time (unique within one
	// store by construction of s.now; merged multi-store records rely on
	// the shared epoch).
	sort.Slice(recs, func(i, j int) bool { return recs[i].Inv < recs[j].Inv })

	b := history.NewBuilder(reg)
	ids := make([]history.ID, len(recs))
	for i, rec := range recs {
		ids[i] = b.Add(rec.Proc, rec.Inv, rec.Resp, rec.Ops...)
		// The certified per-request consistency level rides into the
		// history so the leveled checker can hold each query to the
		// condition it was actually served at.
		b.SetLevel(ids[i], rec.Level)
	}

	// Collect the globally-ordered updates (broadcast protocols stamp a
	// delivery sequence; the object-locking protocol synchronizes per
	// object and stamps -1, so it contributes no global order).
	type upd struct {
		seq int64
		idx int
	}
	var updates []upd
	for i, rec := range recs {
		if rec.Update && rec.Seq >= 0 {
			updates = append(updates, upd{seq: rec.Seq, idx: i})
		}
	}
	sort.Slice(updates, func(i, j int) bool { return updates[i].seq < updates[j].seq })
	for i := 1; i < len(updates); i++ {
		if updates[i].seq == updates[i-1].seq {
			a, b := recs[updates[i-1].idx], recs[updates[i].idx]
			return nil, nil, nil, fmt.Errorf("core: duplicate delivery sequence %d (issuers %d and %d)", updates[i].seq, a.Proc, b.Proc)
		}
	}

	// Map (object, version) to the writer: every update record carries,
	// per written object, the version it established (TSEnd). This works
	// for both the globally-ordered broadcast protocols and protocols
	// that synchronize per object. Protocols without a per-object total
	// version order (causal) tag writes instead; tags map to writers
	// directly.
	writerOf := make([]map[int64]history.ID, reg.Len())
	for x := range writerOf {
		writerOf[x] = map[int64]history.ID{0: history.InitID}
	}
	writerByTag := map[mop.WriteTag]history.ID{mop.InitTag: history.InitID}
	updateIDs := make([]history.ID, 0, len(updates))
	for i, rec := range recs {
		if rec.WriteTags != nil {
			for _, tag := range rec.WriteTags {
				if prev, dup := writerByTag[tag]; dup && prev != ids[i] {
					return nil, nil, nil, fmt.Errorf("core: write tag %+v used by both %d and %d",
						tag, int(prev), int(ids[i]))
				}
				writerByTag[tag] = ids[i]
			}
			continue
		}
		for x, v := range rec.VersionedWrites() {
			if prev, dup := writerOf[x][v]; dup {
				return nil, nil, nil, fmt.Errorf("core: version %d of %s written by both %d and %d",
					v, reg.Name(x), int(prev), int(ids[i]))
			}
			writerOf[x][v] = ids[i]
		}
	}
	for _, u := range updates {
		updateIDs = append(updateIDs, ids[u.idx])
	}

	// Reads-from: per D5.1/D5.6 for version-vector protocols, directly
	// from the recorded tags otherwise.
	for i, rec := range recs {
		if rec.SourceTags != nil {
			for x, tag := range rec.SourceTags {
				writer, ok := writerByTag[tag]
				if !ok {
					return nil, nil, nil, fmt.Errorf(
						"core: m-operation at P%d read %s from unknown write tag %+v",
						rec.Proc, reg.Name(x), tag)
				}
				b.SetReadsFrom(ids[i], x, writer)
			}
			continue
		}
		for _, op := range history.ExternalReads(rec.Ops) {
			v := rec.TSStart.Get(op.Obj)
			writer, ok := writerOf[op.Obj][v]
			if !ok {
				return nil, nil, nil, fmt.Errorf(
					"core: m-operation at P%d read version %d of %s, which no recorded update wrote",
					rec.Proc, v, reg.Name(op.Obj))
			}
			b.SetReadsFrom(ids[i], op.Obj, writer)
		}
	}

	h, err := b.Build()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: build history: %w", err)
	}
	return h, updateIDs, &buildResult{h: h, recs: recs, ids: ids}, nil
}

// buildResult caches the most recent reconstruction's raw material for
// sync-relation derivation. Guarded by s.mu via buildHistory's caller
// pattern (buildHistory itself is only entered after quiescence).
type buildResult struct {
	h    *history.History
	recs []mop.Record
	ids  []history.ID
}

// ooSync derives the per-object synchronization order the locking
// protocol enforced, from the recorded version numbers: for every object
// x, the writer of version v precedes every holder that observed v,
// which precedes the writer of version v+1. The result puts the history
// under the OO-constraint (every conflicting pair shares an object and
// is chained through its version order).
func ooSync(br *buildResult, numObjects int) *history.Relation {
	sync := history.NewRelation(br.h.Len())
	for x := 0; x < numObjects; x++ {
		xid := object.ID(x)
		writerOf := map[int64]history.ID{0: history.InitID}
		maxV := int64(0)
		for i, rec := range br.recs {
			if v, ok := rec.VersionedWrites()[xid]; ok {
				writerOf[v] = br.ids[i]
				if v > maxV {
					maxV = v
				}
			}
		}
		// Writer chain.
		for v := int64(1); v <= maxV; v++ {
			if prev, ok := writerOf[v-1]; ok {
				if cur, ok2 := writerOf[v]; ok2 {
					sync.Add(prev, cur)
				}
			}
		}
		// Readers between consecutive writers.
		for i, rec := range br.recs {
			if !rec.Footprint.Contains(xid) {
				continue
			}
			if _, wrote := rec.VersionedWrites()[xid]; wrote {
				continue
			}
			v := rec.TSStart.Get(xid)
			if w, ok := writerOf[v]; ok {
				sync.Add(w, br.ids[i])
			}
			if next, ok := writerOf[v+1]; ok {
				sync.Add(br.ids[i], next)
			}
		}
	}
	return sync
}
