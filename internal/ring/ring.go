// Package ring provides a growable power-of-two FIFO ring buffer — the
// backing structure for the node work queue and the transport
// mailboxes, which previously used append + q.items = q.items[1:]
// slices. That idiom has two hot-path pathologies under sustained load:
// the backing array is reallocated (and the live suffix copied) every
// time the head outruns the remaining capacity, and the consumed prefix
// of each array stays reachable — dead messages are retained until the
// whole array is dropped, so steady-state memory grows with cumulative
// throughput rather than with backlog.
//
// The ring keeps one buffer and wraps head/tail indices around it with
// a mask; it reallocates only when the *live* element count outgrows
// the buffer (doubling, so the amortized cost per element is O(1)), and
// it zeroes each slot as it is consumed so the elements' referents
// become collectable immediately. Steady-state capacity is therefore
// bounded by the high-water backlog, never by throughput.
//
// Ring is not safe for concurrent use; callers (workQueue, mailbox)
// wrap it in their own mutex + condvar to keep the unbounded,
// blocking-receive semantics the protocol's no-waiting property needs.
package ring

// minCap is the initial buffer size on first Push. Small enough that an
// idle queue costs nothing to speak of, large enough that short bursts
// never grow.
const minCap = 16

// Ring is a FIFO queue over a power-of-two circular buffer. The zero
// value is an empty ring ready for use.
type Ring[T any] struct {
	buf  []T
	head uint64 // index of the next element to Pop
	tail uint64 // index of the next free slot
}

// Len returns the number of queued elements.
func (r *Ring[T]) Len() int { return int(r.tail - r.head) }

// Cap returns the current buffer capacity (0 before the first Push).
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Push appends v at the tail, growing the buffer if it is full.
func (r *Ring[T]) Push(v T) {
	if r.Len() == len(r.buf) {
		r.grow()
	}
	r.buf[r.tail&uint64(len(r.buf)-1)] = v
	r.tail++
}

// Pop removes and returns the head element. ok is false if the ring is
// empty. The vacated slot is zeroed so the element's referents are not
// retained by the buffer.
func (r *Ring[T]) Pop() (v T, ok bool) {
	if r.head == r.tail {
		return v, false
	}
	i := r.head & uint64(len(r.buf)-1)
	v = r.buf[i]
	var zero T
	r.buf[i] = zero
	r.head++
	return v, true
}

// Peek returns the head element without removing it. ok is false if the
// ring is empty.
func (r *Ring[T]) Peek() (v T, ok bool) {
	if r.head == r.tail {
		return v, false
	}
	return r.buf[r.head&uint64(len(r.buf)-1)], true
}

// At returns a pointer to the i-th queued element, 0 being the head.
// The pointer is valid until the next Push (which may move the buffer).
// It panics if i is out of range.
func (r *Ring[T]) At(i int) *T {
	if i < 0 || i >= r.Len() {
		panic("ring: index out of range")
	}
	return &r.buf[(r.head+uint64(i))&uint64(len(r.buf)-1)]
}

// grow doubles the buffer (or allocates the initial one) and linearizes
// the live elements into it starting at index 0.
func (r *Ring[T]) grow() {
	newCap := minCap
	if len(r.buf) > 0 {
		newCap = len(r.buf) * 2
	}
	nb := make([]T, newCap)
	n := r.Len()
	mask := uint64(len(r.buf) - 1)
	for i := 0; i < n; i++ {
		nb[i] = r.buf[(r.head+uint64(i))&mask]
	}
	r.buf = nb
	r.head = 0
	r.tail = uint64(n)
}
