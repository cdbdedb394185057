package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/transport"
)

// This file makes partition owner groups real (Config.Replicate): each
// locally hosted node runs one replicator. Every partition is one slot
// of the lease primitive (lease.go), with candidate position = the
// node's index in the partition's OwnerSet; non-owners never claim.
//
//   - The primary of a partition streams every applied effect set to
//     the other owners as ReplicateMsg (emitted from executeSubtxn, so
//     frames share the Exec durability barrier), and broadcasts empty
//     ReplicateMsgs as lease heartbeats.
//   - A backup whose lease lapses promotes itself, journals the new
//     term in the replication term space (separate from the
//     coordinator's, so a replica election never fences a valid
//     coordinator), and starts heartbeating.
//   - Safety never depends on the lease: commuting ops merge in any
//     order, and backups apply every stream idempotently (per-sender
//     seq frontiers) regardless of term. The lease adds read routing
//     (reads of a dead node's partitions move to the promoted backup
//     within a bounded window) and bounds dual-primary windows.

// ReplicaPartHealth is one partition's replica-group status at one
// node, served machine-readable by threev-node's /health.
type ReplicaPartHealth struct {
	Part          int          `json:"part"`
	Role          string       `json:"role"` // "primary" | "backup"
	Primary       model.NodeID `json:"primary"`
	Term          uint64       `json:"term"`
	LastBeatAgeMs int64        `json:"last_beat_age_ms"`
	// SentSeq is this node's replication stream frontier (as a primary,
	// past or present); Acked maps backup node id -> applied frontier it
	// acked; Applied maps sender node id -> frontier this node applied
	// (as a backup). MaxLag is SentSeq minus the slowest backup's ack.
	SentSeq uint64            `json:"sent_seq"`
	Acked   map[string]uint64 `json:"acked,omitempty"`
	Applied map[string]uint64 `json:"applied,omitempty"`
	MaxLag  uint64            `json:"max_lag"`
}

// replicator supervises one locally hosted node's replica-group roles
// across all partitions.
type replicator struct {
	c     *Cluster
	nd    *Node
	lease *lease // one slot per partition

	mu    sync.Mutex
	acked [][]uint64 // [part][node] applied frontier acked by each backup
}

func newReplicator(c *Cluster, nd *Node) *replicator {
	r := &replicator{
		c:     c,
		nd:    nd,
		lease: newLease(c.cfg.ReplicaConfig, nd.id, c.cfg.Nodes, nd.nparts),
		acked: make([][]uint64, nd.nparts),
	}
	for p := range r.acked {
		r.lease.slots[p].holder = c.pmap.Primary(p)
		r.acked[p] = make([]uint64, c.cfg.Nodes)
	}
	return r
}

// ownerPos returns this node's position in a partition's owner group
// (0 = placement primary), or -1 when the node is not an owner (never
// eligible for promotion).
func (r *replicator) ownerPos(part int) int {
	for i, o := range r.nd.pmap.OwnerSet(part) {
		if o == r.nd.id {
			return i
		}
	}
	return -1
}

// start claims the partitions this node is placement primary for
// (minting a fresh term above anything durably recovered, so a
// restarted ex-primary cannot reuse a fenced one) and launches the
// lease loop.
func (r *replicator) start() {
	for p := 0; p < r.nd.nparts; p++ {
		if r.c.pmap.Primary(p) == r.nd.id {
			r.claim(p, time.Now())
		}
	}
	r.lease.start(r.tick)
}

func (r *replicator) tick(now time.Time) {
	for part := 0; part < r.nd.nparts; part++ {
		if s := r.lease.get(part); s.holder == r.nd.id {
			r.heartbeat(part, s.term)
			r.publishLag(part)
		} else if r.lease.due(part, r.ownerPos(part), now) {
			r.claim(part, now)
		}
	}
}

// claim elects this node primary for one partition: mint a term above
// everything seen, journal it (observeReplTerm) before announcing, and
// heartbeat immediately so surviving owners adopt the new primary
// before their own staggered thresholds pass.
func (r *replicator) claim(part int, now time.Time) {
	term := r.lease.claim(part, r.nd.replTerms[part].Load(), now)
	if term == 0 {
		return
	}
	// Durable before the announcement: a post-crash restart of this
	// process must not propose a term at or below this one.
	r.nd.observeReplTerm(part, term)
	r.nd.reg.Inc(obs.CtrPromotions, 1)
	r.nd.reg.RecordEvent(obs.Event{Kind: obs.EvTakeover, Node: int(r.nd.id),
		Detail: "replica promotion, partition " + itoa(uint64(part)) + ", term " + itoa(term)})
	if f := r.c.cfg.ReplicaConfig.OnRoleChange; f != nil {
		f(part, r.nd.id, term)
	}
	r.heartbeat(part, term)
}

// heartbeat broadcasts an empty ReplicateMsg — lease renewal plus the
// stream frontier, so caught-up backups ack a fresh lag sample — to the
// partition's other owners.
func (r *replicator) heartbeat(part int, term uint64) {
	msg := ReplicateMsg{Part: part, Term: term, Seq: r.nd.replSeqs[part].Load()}
	for _, o := range r.nd.pmap.OwnerSet(part) {
		if o != r.nd.id {
			r.nd.net.Send(transport.Message{From: r.nd.id, To: o, Payload: msg})
		}
	}
}

// noteBeat folds an accepted lease heartbeat (or data frame — any
// current-or-higher-term ReplicateMsg renews) into the lease view.
// Called from the node's delivery path via Node.onReplBeat.
func (r *replicator) noteBeat(part int, from model.NodeID, term uint64) {
	if r.lease.observe(part, from, term, time.Now()) {
		if f := r.c.cfg.ReplicaConfig.OnRoleChange; f != nil {
			f(part, from, term)
		}
	}
}

// noteAck folds a backup's applied-frontier ack into the lag view.
// Called from the node's delivery path via Node.onReplAck.
func (r *replicator) noteAck(part int, from model.NodeID, seq uint64) {
	if int(from) < 0 || int(from) >= r.c.cfg.Nodes {
		return
	}
	r.mu.Lock()
	if seq > r.acked[part][from] {
		r.acked[part][from] = seq
	}
	r.mu.Unlock()
}

// publishLag gauges sent-minus-acked per backup for one partition this
// node is primary of (threev_replica_lag{part,node} in Prometheus).
func (r *replicator) publishLag(part int) {
	sent := r.nd.replSeqs[part].Load()
	r.mu.Lock()
	acked := append([]uint64(nil), r.acked[part]...)
	r.mu.Unlock()
	for _, o := range r.nd.pmap.OwnerSet(part) {
		if o == r.nd.id {
			continue
		}
		var lag uint64
		if sent > acked[o] {
			lag = sent - acked[o]
		}
		r.nd.reg.SetGauge(obs.ReplicaLagGauge(part, int(o)), float64(lag))
	}
}

// currentPrimary returns this node's view of a partition's primary.
func (r *replicator) currentPrimary(part int) model.NodeID {
	if part < 0 || part >= r.nd.nparts {
		return 0
	}
	return r.lease.get(part).holder
}

// health snapshots every partition's replica-group status at this node.
func (r *replicator) health() []ReplicaPartHealth {
	now := time.Now()
	out := make([]ReplicaPartHealth, r.nd.nparts)
	for part := 0; part < r.nd.nparts; part++ {
		s := r.lease.get(part)
		r.mu.Lock()
		acked := append([]uint64(nil), r.acked[part]...)
		r.mu.Unlock()
		h := ReplicaPartHealth{
			Part:    part,
			Role:    "backup",
			Primary: s.holder,
			Term:    s.term,
			SentSeq: r.nd.replSeqs[part].Load(),
		}
		if !s.last.IsZero() {
			h.LastBeatAgeMs = now.Sub(s.last).Milliseconds()
		}
		if s.holder == r.nd.id {
			h.Role = "primary"
			h.Acked = make(map[string]uint64)
			for _, o := range r.nd.pmap.OwnerSet(part) {
				if o == r.nd.id {
					continue
				}
				h.Acked[fmt.Sprint(int(o))] = acked[o]
				if h.SentSeq > acked[o] && h.SentSeq-acked[o] > h.MaxLag {
					h.MaxLag = h.SentSeq - acked[o]
				}
			}
		} else {
			h.Applied = make(map[string]uint64)
			for _, o := range r.nd.pmap.OwnerSet(part) {
				if o == r.nd.id {
					continue
				}
				h.Applied[fmt.Sprint(int(o))] = r.nd.replApplied[part][o].Load()
			}
		}
		out[part] = h
	}
	return out
}
