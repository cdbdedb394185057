package core

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
)

// Status is the outcome of a transaction as observed by its handle.
type Status int

// Handle outcomes.
const (
	// StatusPending: subtransactions are still in flight.
	StatusPending Status = iota
	// StatusCommitted: every subtransaction terminated normally.
	StatusCommitted
	// StatusCompensated: at least one subtransaction aborted; the tree
	// (including compensators) has fully terminated and all effects of
	// the aborted branches were compensated away.
	StatusCompensated
	// StatusAborted: an NC3V transaction was globally aborted by
	// two-phase commit; no effects remain.
	StatusAborted
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusPending:
		return "pending"
	case StatusCommitted:
		return "committed"
	case StatusCompensated:
		return "compensated"
	case StatusAborted:
		return "aborted"
	}
	return "unknown"
}

// Handle is the client-side observer of one submitted transaction. It
// is pure instrumentation: the protocol never waits on it, and it never
// delays a subtransaction. Completion is detected by balancing
// "subtransactions spawned" against "subtransactions terminated" —
// the client-local analogue of the paper's request/completion counters.
type Handle struct {
	ID model.TxnID

	mu        sync.Mutex
	expected  int
	done      int
	aborts    int
	ncAborted bool
	version   model.Version
	verSet    bool
	reads     []model.ReadResult
	nodes     map[model.NodeID]bool
	completed chan struct{}
	closed    bool
	submitted time.Time
	finished  time.Time
	// needsUnlock marks well-behaved update transactions in NC3V mode,
	// whose commute locks must be released by the asynchronous clean-up
	// once the tree completes. takeUnlock consumes the flag so clean-up
	// fires exactly once.
	needsUnlock bool
	// isUpdate marks update (non-read-only) transactions.
	isUpdate bool
	// rootOnly (distributed mode) completes the handle when the root
	// subtransaction terminates: descendants may execute in other
	// processes, whose terminations this process never observes. Spawn
	// notifications are ignored and expected stays at 1, mirroring the
	// paper's guarantee that no user transaction waits on remote
	// activity.
	rootOnly bool
	// tc is the trace context minted at submission when this transaction
	// was head-sampled; the zero value means untraced. Immutable after
	// Submit publishes the handle.
	tc obs.TraceContext
}

// takeUnlock consumes the clean-up obligation; it returns true at most
// once per handle.
func (h *Handle) takeUnlock() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.needsUnlock {
		h.needsUnlock = false
		return true
	}
	return false
}

func newHandle(id model.TxnID) *Handle {
	return &Handle{
		ID:        id,
		nodes:     make(map[model.NodeID]bool),
		completed: make(chan struct{}),
		submitted: time.Now(),
	}
}

// addExpected notes that n more subtransactions will terminate. Called
// before the corresponding messages are sent, so done can never catch
// up with expected while work remains.
func (h *Handle) addExpected(n int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.expected += n
}

// reportDone records the termination of one subtransaction at node,
// along with its read results and whether it aborted. It reports
// whether this call completed the whole tree (true exactly once per
// handle), which is the edge the cluster's instrumentation keys off.
// When the completed tree is a committed update, commits (if non-nil)
// is bumped before Done closes, so a caller returning from Wait never
// reads the count low.
func (h *Handle) reportDone(node model.NodeID, reads []model.ReadResult, aborted bool, commits *atomic.Int64) (completed bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.done++
	h.nodes[node] = true
	h.reads = append(h.reads, reads...)
	if aborted {
		h.aborts++
	}
	wasClosed := h.closed
	h.maybeComplete(commits)
	return h.closed && !wasClosed
}

// reportVersion records the version the root assigned to the tree.
func (h *Handle) reportVersion(v model.Version) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.version = v
	h.verSet = true
}

// reportNCAbort records that 2PC decided abort for this NC transaction.
func (h *Handle) reportNCAbort() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ncAborted = true
}

func (h *Handle) maybeComplete(commits *atomic.Int64) {
	if !h.closed && h.expected > 0 && h.done == h.expected {
		h.closed = true
		h.finished = time.Now()
		if commits != nil && h.isUpdate && !h.ncAborted && h.aborts == 0 {
			commits.Add(1)
		}
		close(h.completed)
	}
}

// Done returns a channel closed when the whole tree (including any
// compensating subtransactions) has terminated everywhere.
func (h *Handle) Done() <-chan struct{} { return h.completed }

// Wait blocks until completion.
func (h *Handle) Wait() { <-h.completed }

// WaitTimeout blocks up to d; it reports whether the transaction
// completed in time. The fast path avoids arming a timer at all — in
// batched submission a group's later members are usually already done
// by the time the waiter reaches them — and the slow path stops its
// timer on completion rather than leaving a long-deadline entry in the
// runtime timer heap per call (at tens of thousands of waits per
// second that churn was visible in profiles).
func (h *Handle) WaitTimeout(d time.Duration) bool {
	select {
	case <-h.completed:
		return true
	default:
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-h.completed:
		return true
	case <-t.C:
		return false
	}
}

// Status returns the current outcome.
func (h *Handle) Status() Status {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.closed {
		return StatusPending
	}
	if h.ncAborted {
		return StatusAborted
	}
	if h.aborts > 0 {
		return StatusCompensated
	}
	return StatusCommitted
}

// Version returns the version number assigned to the transaction by
// its root subtransaction; ok is false if the root has not executed
// yet.
func (h *Handle) Version() (v model.Version, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.version, h.verSet
}

// Reads returns the read results reported so far. For a completed
// read-only transaction this is the full, globally consistent result
// set (Theorem 4.1).
func (h *Handle) Reads() []model.ReadResult {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]model.ReadResult, len(h.reads))
	copy(out, h.reads)
	return out
}

// Nodes returns the set of nodes the tree actually executed on.
func (h *Handle) Nodes() []model.NodeID {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]model.NodeID, 0, len(h.nodes))
	for n := range h.nodes {
		out = append(out, n)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Latency returns the wall-clock time from submission to completion;
// valid only after completion (zero otherwise).
func (h *Handle) Latency() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.closed {
		return 0
	}
	return h.finished.Sub(h.submitted)
}
