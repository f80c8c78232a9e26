// Package wire is the registry of every payload type that may cross
// the TCP transport inside a frame, and the hand-rolled binary codec
// those frames use. Protocol packages (abcast, mlin, recovery, mop)
// register their wire structs here with a stable numeric tag; the
// registry remembers the concrete type and indexes it by tag so the
// codec can marshal `any` payload slots without reflection on the
// encode path. Tests enumerate every registered kind and prove each one
// round-trips through the transport's frame codec. A payload type that
// skips Register would fail to encode the first time it crossed a real
// wire — the enumeration makes that a compile-adjacent test failure
// instead of a runtime surprise.
//
// Tags are part of the wire format and must never be renumbered; see
// tags.go for the authoritative allocation table.
package wire

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
)

// Tag is the stable numeric identity of one registered payload kind on
// the wire. Tags 0–15 are reserved for the codec's built-in value
// encodings (nil, bool, integers, strings, ...); registered kinds start
// at 16.
type Tag uint16

// Marshaler is implemented by every registered payload type: append the
// binary encoding of the receiver to b and return the extended slice.
// The only failure mode is a nested `any` slot holding an unregistered
// type.
type Marshaler interface {
	MarshalWire(b []byte) ([]byte, error)
}

// Unmarshaler is implemented by the pointer type of every registered
// payload kind: decode the receiver from d, consuming exactly the bytes
// MarshalWire produced. Implementations must be panic-free on truncated
// or corrupt input — return d.Err() instead.
type Unmarshaler interface {
	UnmarshalWire(d *Decoder) error
}

type registration struct {
	typ reflect.Type
	tag Tag
}

var (
	regMu sync.Mutex
	types []reflect.Type
	// byType maps a concrete payload type to its tag; byTag maps back.
	// Both are copy-on-write maps republished under regMu so the encode
	// hot path reads them without locking.
	byType atomic.Pointer[map[reflect.Type]Tag]
	byTag  atomic.Pointer[map[Tag]reflect.Type]
)

func init() {
	empty1 := make(map[reflect.Type]Tag)
	empty2 := make(map[Tag]reflect.Type)
	byType.Store(&empty1)
	byTag.Store(&empty2)
}

// Register records v's concrete type under the given stable tag and
// verifies the codec contract: v must implement Marshaler and *T must
// implement Unmarshaler. Registration happens in package init
// functions, so violations panic — they are programming errors, caught
// the first time any test imports the package.
func Register(tag Tag, v any) {
	if tag < FirstKindTag {
		panic(fmt.Sprintf("wire: tag %d is inside the built-in range [0,%d)", tag, FirstKindTag))
	}
	if _, ok := v.(Marshaler); !ok {
		panic(fmt.Sprintf("wire: %T does not implement wire.Marshaler", v))
	}
	t := reflect.TypeOf(v)
	if _, ok := reflect.New(t).Interface().(Unmarshaler); !ok {
		panic(fmt.Sprintf("wire: *%v does not implement wire.Unmarshaler", t))
	}

	regMu.Lock()
	defer regMu.Unlock()
	oldByType, oldByTag := *byType.Load(), *byTag.Load()
	if prev, dup := oldByType[t]; dup {
		if prev != tag {
			panic(fmt.Sprintf("wire: %v registered twice with tags %d and %d", t, prev, tag))
		}
		return // idempotent re-registration
	}
	if prev, dup := oldByTag[tag]; dup {
		panic(fmt.Sprintf("wire: tag %d claimed by both %v and %v", tag, prev, t))
	}
	newByType := make(map[reflect.Type]Tag, len(oldByType)+1)
	for k, val := range oldByType {
		newByType[k] = val
	}
	newByType[t] = tag
	newByTag := make(map[Tag]reflect.Type, len(oldByTag)+1)
	for k, val := range oldByTag {
		newByTag[k] = val
	}
	newByTag[tag] = t
	byType.Store(&newByType)
	byTag.Store(&newByTag)
	types = append(types, t)
}

// Types returns the concrete types registered so far, in registration
// order. The slice is a copy; callers may not mutate registry state
// through it.
func Types() []reflect.Type {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]reflect.Type, len(types))
	copy(out, types)
	return out
}

// TagOf returns the registered tag for v's concrete type.
func TagOf(v any) (Tag, bool) {
	tag, ok := (*byType.Load())[reflect.TypeOf(v)]
	return tag, ok
}

// typeOf returns the concrete type registered under tag.
func typeOf(tag Tag) (reflect.Type, bool) {
	t, ok := (*byTag.Load())[tag]
	return t, ok
}
