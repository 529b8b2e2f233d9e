package core

import (
	"reflect"
	"sync/atomic"
	"time"
)

// TraceOp identifies a life-cycle transition reported to the trace hook.
type TraceOp uint8

const (
	// TraceAlloc: a message entered the Allocated state via New.
	TraceAlloc TraceOp = iota + 1
	// TraceAdopt: a received buffer became a live Published message.
	TraceAdopt
	// TracePublish: an Allocated message transitioned to Published.
	TracePublish
	// TraceGrow: a String/Vector payload region was appended to a message.
	TraceGrow
	// TraceDestruct: the last reference was released and the arena
	// reclaimed.
	TraceDestruct
	// TraceStale: lifecycle-debug mode caught an access through a dangling
	// pointer into a destructed arena (the address-reuse/ABA hazard).
	TraceStale
)

// String returns the operation name.
func (op TraceOp) String() string {
	switch op {
	case TraceAlloc:
		return "alloc"
	case TraceAdopt:
		return "adopt"
	case TracePublish:
		return "publish"
	case TraceGrow:
		return "grow"
	case TraceDestruct:
		return "destruct"
	case TraceStale:
		return "stale"
	default:
		return "unknown"
	}
}

// TraceEvent is one life-cycle transition. Base+Gen identify the exact
// arena incarnation: Base alone is ambiguous once a pooled buffer is
// reissued, which is precisely the ABA hazard the generation disambiguates.
type TraceEvent struct {
	Op    TraceOp
	Base  uintptr   // arena start address
	Gen   uint64    // incarnation of the arena at Base
	Type  string    // skeleton type name, "" for untyped adoption
	State State     // state after the transition
	Refs  int32     // reference count at emission
	Bytes int       // capacity (alloc/adopt), grown bytes (grow), else 0
	Time  time.Time // emission timestamp
}

// traceHook is the process-wide life-cycle trace sink. The hot path pays
// one atomic pointer load and a nil check when tracing is disabled; no
// timestamp is taken and no event is built unless a hook is installed.
var traceHook atomic.Pointer[func(TraceEvent)]

// SetTrace installs f as the life-cycle trace hook (nil disables). The
// hook runs inline on the allocating/publishing/releasing goroutine and
// must be fast and non-blocking; it must not call back into message
// APIs for the message it is being notified about.
func SetTrace(f func(TraceEvent)) {
	if f == nil {
		traceHook.Store(nil)
		return
	}
	traceHook.Store(&f)
}

// TracingEnabled reports whether a trace hook is installed.
func TracingEnabled() bool { return traceHook.Load() != nil }

// typeName renders a skeleton type for trace events and diagnostics.
func typeName(t reflect.Type) string {
	if t == nil {
		return ""
	}
	return t.String()
}

// traceEmit reports one transition on r. st is passed explicitly so the
// caller can report the state it observed under the record lock without
// the hook re-reading it unsynchronized.
func traceEmit(op TraceOp, r *record, st State, bytes int) {
	f := traceHook.Load()
	if f == nil {
		return
	}
	(*f)(TraceEvent{
		Op:    op,
		Base:  r.base,
		Gen:   r.gen,
		Type:  typeName(r.typ),
		State: st,
		Refs:  int32(r.life.Load() & refsMask),
		Bytes: bytes,
		Time:  time.Now(),
	})
}
