package core

import (
	"sync"
	"time"

	"repro/internal/model"
)

// This file is the one election primitive behind both of the cluster's
// leader roles. The paper (Section 4.3) assumes "a distributed mutual
// exclusion mechanism" keeps one advancement running; the coordinator
// role (failover.go) is one lease slot, and each partition's replica
// group (replication.go) is another. Every rule is written once here,
// and every rule takes the current time as a parameter:
//
//   - a holder renews the slot by heartbeating every LeaseInterval;
//   - a candidate at position pos is due once the slot has been silent
//     for LeaseTimeout + pos×LeaseInterval, so the lowest live position
//     claims first and its announcement renews everyone else's lease
//     before their own threshold passes;
//   - a claim mints nextTerm above every term seen and above the
//     caller's journaled floor — terms are partitioned by proposer, so
//     two claims never mint the same term;
//   - a beat renews the lease when it carries a higher term (adopting
//     its sender as holder) or comes from the current holder. Because
//     terms are partitioned by proposer, an equal term from any other
//     sender cannot occur, so this one rule serves both roles.
//
// Safety never depends on the lease: the coordinator's phases are
// idempotent max-merges (DESIGN.md §5a item 8) and replicated applies
// are deduplicated per sender regardless of term (item 11). The lease
// adds determinism and liveness. Each role keeps its own term space —
// a replica election must never fence a coordinator.

// LeaseConfig tunes one lease (Config.FailoverConfig for the
// coordinator role, Config.ReplicaConfig for the replica groups).
type LeaseConfig struct {
	// LeaseInterval is the holder's heartbeat period; 0 means 25ms.
	LeaseInterval time.Duration
	// LeaseTimeout is how long a candidate tolerates heartbeat silence
	// before claiming (plus a stagger of one LeaseInterval per candidate
	// position, so earlier positions win ties); 0 means 4×LeaseInterval.
	LeaseTimeout time.Duration
	// OnRoleChange, when set, observes this process's view of a slot's
	// holder changing: on a claim holder is the local node; on losing
	// the slot it is the node whose beat won, or -1 when a coordinator
	// steps down without having heard its successor. slot is the
	// partition for replica groups and 0 for the coordinator. Called
	// outside locks; used for logging.
	OnRoleChange func(slot int, holder model.NodeID, term uint64)
}

func (lc LeaseConfig) withDefaults() LeaseConfig {
	if lc.LeaseInterval <= 0 {
		lc.LeaseInterval = 25 * time.Millisecond
	}
	if lc.LeaseTimeout <= 0 {
		lc.LeaseTimeout = 4 * lc.LeaseInterval
	}
	return lc
}

// nextTerm returns the smallest term node id may propose that is
// strictly greater than maxSeen. Terms are partitioned by proposer —
// term ≡ id+1 (mod n) — so concurrent claims by different nodes always
// mint distinct, totally ordered terms.
func nextTerm(maxSeen uint64, id model.NodeID, n int) uint64 {
	k := maxSeen / uint64(n)
	t := k*uint64(n) + uint64(id) + 1
	if t <= maxSeen {
		t += uint64(n)
	}
	return t
}

// noHolder marks a slot whose holder is unknown (the coordinator slot
// before any beat, or after this node stepped down).
const noHolder model.NodeID = -1

// leaseSlot is one slot's view at this node.
type leaseSlot struct {
	holder model.NodeID
	term   uint64    // highest term minted or adopted
	last   time.Time // last renewing beat (or own claim, or release)
}

// lease is this node's view of a set of slots, plus the ticker that
// drives its role's heartbeats and elections.
type lease struct {
	cfg  LeaseConfig
	self model.NodeID
	n    int // number of proposers (database nodes)

	mu      sync.Mutex
	slots   []leaseSlot
	stopped bool
	stopCh  chan struct{}
	wg      sync.WaitGroup
}

func newLease(cfg LeaseConfig, self model.NodeID, n, nslots int) *lease {
	l := &lease{
		cfg:    cfg.withDefaults(),
		self:   self,
		n:      n,
		slots:  make([]leaseSlot, nslots),
		stopCh: make(chan struct{}),
	}
	for i := range l.slots {
		l.slots[i].holder = noHolder
	}
	return l
}

// due reports whether this node, a candidate at position pos (< 0:
// never a candidate), should claim slot at now.
func (l *lease) due(slot, pos int, now time.Time) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.slots[slot]
	wait := l.cfg.LeaseTimeout + time.Duration(pos)*l.cfg.LeaseInterval
	return pos >= 0 && s.holder != l.self && now.Sub(s.last) > wait
}

// claim makes this node the holder of slot under a fresh term above
// every term seen and above floor (the caller's journaled high-water
// mark, so a restarted node never re-mints a fenced term). It returns
// 0 once the lease is stopped. The caller journals the term before
// announcing it.
func (l *lease) claim(slot int, floor uint64, now time.Time) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.stopped {
		return 0
	}
	s := &l.slots[slot]
	s.term = nextTerm(max(s.term, floor), l.self, l.n)
	s.holder, s.last = l.self, now
	return s.term
}

// observe folds a beat from node from at term into slot: a lower term
// is ignored; a higher term, or the current holder's beat, renews the
// lease and makes from the holder. It reports whether this node held
// the slot and has just lost it.
func (l *lease) observe(slot int, from model.NodeID, term uint64, now time.Time) (deposed bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &l.slots[slot]
	if term < s.term || (term == s.term && from != s.holder) {
		return false
	}
	deposed = s.holder == l.self && from != l.self
	s.holder, s.term, s.last = from, term, now
	return deposed
}

// release steps this node down from slot (if it still holds it) and
// restarts the clock, so it is not due again for a full lease. It
// returns the slot's view afterwards.
func (l *lease) release(slot int, now time.Time) leaseSlot {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &l.slots[slot]
	if s.holder == l.self {
		s.holder = noHolder
	}
	s.last = now
	return *s
}

// get returns this node's view of slot.
func (l *lease) get(slot int) leaseSlot {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.slots[slot]
}

// start opens the start-up grace period on every slot and launches the
// ticker, which calls tick every LeaseInterval until stop.
func (l *lease) start(tick func(now time.Time)) {
	now := time.Now()
	l.mu.Lock()
	for i := range l.slots {
		l.slots[i].last = now
	}
	l.wg.Add(1)
	l.mu.Unlock()
	go func() {
		defer l.wg.Done()
		t := time.NewTicker(l.cfg.LeaseInterval)
		defer t.Stop()
		for {
			select {
			case <-l.stopCh:
				return
			case <-t.C:
				tick(time.Now())
			}
		}
	}()
}

// stop ends the ticker and refuses further claims; idempotent.
func (l *lease) stop() {
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		return
	}
	l.stopped = true
	close(l.stopCh)
	l.mu.Unlock()
	l.wg.Wait()
}
