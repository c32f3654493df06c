package trace

// Buffer is a Tracer that records the event stream in memory. It is
// the per-lane window buffer of sharded execution (sim.ShardGroup):
// each lane engine traces into its own Buffer while the lanes advance
// concurrently, and at every window barrier the group merges the lane
// streams into the real sink with MergeStreams and resets the buffers.
// Like every Tracer it needs no locking: a single engine delivers
// events from one goroutine at a time.
type Buffer struct {
	events []Event
}

// NewBuffer returns an empty recording sink.
func NewBuffer() *Buffer { return &Buffer{} }

// Emit records e.
func (b *Buffer) Emit(e Event) { b.events = append(b.events, e) }

// Len reports the number of recorded events.
func (b *Buffer) Len() int { return len(b.events) }

// Events exposes the recorded stream. The slice is the buffer's live
// backing store: read it, do not retain it across a Reset or Emit.
func (b *Buffer) Events() []Event { return b.events }

// Reset discards the recorded stream, keeping the backing array for
// reuse. Sharded execution drains each lane's buffer at every window
// barrier, so the steady-state allocation cost of per-lane tracing is
// zero.
func (b *Buffer) Reset() { b.events = b.events[:0] }
