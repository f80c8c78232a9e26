// Package shard partitions the object space into independently
// sequenced shards and composes their per-shard total orders into one
// global order sound for the paper's §4 constraints.
//
// The theory hook: Theorem 7 only needs a total order per *conflicting*
// object set (the OO-constraint), not one global sequencer. Objects are
// partitioned by a static modular map; every m-operation whose
// footprint stays inside one shard rides that shard's atomic-broadcast
// lane untouched, and cross-shard m-operations are merged into the
// involved lanes by a three-phase ticket/close/commit (Skeen-style,
// 2k−1 lane broadcasts for k lanes; see Group) keyed on (shard set,
// per-shard ticket sequence), so any two conflicting
// updates — which necessarily share an object, hence a shard — are
// ordered by that shard's schedule. Gotsman & Burckhardt's composition
// of global operation sequencing is the blueprint for arguing the
// stitched order is globally m-SC/m-lin admissible (see DESIGN.md §11).
package shard

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"moc/internal/object"
)

// Map is the static object→shard partition: object x lives on shard
// x mod K. It is pure routing metadata — deterministic, panic-free for
// any input (hostile object IDs from the wire are clamped by modular
// reduction), and cheap enough to sit on every dispatch path.
type Map struct {
	objects int
	shards  int
}

// NewMap builds the modular partition of an objects-sized space into
// shards lanes. Every shard must own at least one object, so the lane
// fan-out never exceeds the object count.
func NewMap(objects, shards int) (*Map, error) {
	if objects < 1 {
		return nil, fmt.Errorf("shard: need at least one object, got %d", objects)
	}
	if shards < 1 {
		return nil, fmt.Errorf("shard: need at least one shard, got %d", shards)
	}
	if shards > objects {
		return nil, fmt.Errorf("shard: %d shards over %d objects leaves empty shards", shards, objects)
	}
	return &Map{objects: objects, shards: shards}, nil
}

// Shards is the number of shards (lanes).
func (m *Map) Shards() int { return m.shards }

// Objects is the size of the object space the map was built for.
func (m *Map) Objects() int { return m.objects }

// Of routes one object ID to its shard. Total and panic-free: IDs
// outside [0, objects) — including negative ones from hostile input —
// reduce modularly into a valid shard, so routing can run before
// validation without becoming a crash vector.
func (m *Map) Of(x object.ID) int {
	s := int(x) % m.shards
	if s < 0 {
		s += m.shards
	}
	return s
}

// ShardsOf maps a footprint to its sorted, duplicate-free shard set.
// The empty footprint routes to shard 0 (a no-op m-operation still
// needs a home lane so its delivery is totally ordered somewhere).
func (m *Map) ShardsOf(ids []object.ID) []int {
	if len(ids) == 0 {
		return []int{0}
	}
	seen := make([]bool, m.shards)
	out := make([]int, 0, len(ids))
	for _, x := range ids {
		s := m.Of(x)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Ints(out)
	return out
}

// Spec renders the partition as a string ("mod:K/N") for trace headers
// and cross-node agreement checks: two maps compose only if their specs
// are equal.
func (m *Map) Spec() string {
	return "mod:" + strconv.Itoa(m.shards) + "/" + strconv.Itoa(m.objects)
}

// ParseSpec inverts Spec.
func ParseSpec(spec string) (*Map, error) {
	rest, ok := strings.CutPrefix(spec, "mod:")
	if !ok {
		return nil, fmt.Errorf("shard: unknown map spec %q", spec)
	}
	k, n, ok := strings.Cut(rest, "/")
	if !ok {
		return nil, fmt.Errorf("shard: malformed map spec %q", spec)
	}
	shards, err := strconv.Atoi(k)
	if err != nil {
		return nil, fmt.Errorf("shard: malformed map spec %q: %v", spec, err)
	}
	objects, err := strconv.Atoi(n)
	if err != nil {
		return nil, fmt.Errorf("shard: malformed map spec %q: %v", spec, err)
	}
	return NewMap(objects, shards)
}
