package core

import (
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
//   - Data does not flow through the replicator at all: every
//     subtransaction that applies updates in a partition sends the
//     applied effect set to the partition's other owners as counted
//     replica children (Node.spawnReplicas). They ride the ordinary
//     subtransaction path — R at the sender, C at each owner — so the
//     advancement that closes a version also proves every owner holds
//     all of that version's updates. A lagging backup shows up in the
//     ordinary R−C counter-lag gauges.
//   - The primary broadcasts ReplBeatMsg lease heartbeats. A backup
//     whose lease lapses promotes itself, journals the new term in the
//     replication term space (separate from the coordinator's, so a
//     replica election never fences a valid coordinator), and starts
//     heartbeating.
//   - Safety never depends on the lease: commuting ops merge in any
//     order, whoever sends them. The lease adds read routing (reads of
//     a dead node's partitions move to the promoted backup within a
//     bounded window) and bounds dual-primary windows.

// ReplicaPartHealth is one partition's replica-group status at one
// node, served machine-readable by threev-node's /health.
type ReplicaPartHealth struct {
	Part          int          `json:"part"`
	Role          string       `json:"role"` // "primary" | "backup"
	Primary       model.NodeID `json:"primary"`
	Term          uint64       `json:"term"`
	LastBeatAgeMs int64        `json:"last_beat_age_ms"`
}

// replicator supervises one locally hosted node's replica-group roles
// across all partitions.
type replicator struct {
	c     *Cluster
	nd    *Node
	lease *lease // one slot per partition
}

func newReplicator(c *Cluster, nd *Node) *replicator {
	r := &replicator{
		c:     c,
		nd:    nd,
		lease: newLease(c.cfg.ReplicaConfig, nd.id, c.cfg.Nodes, nd.nparts),
	}
	for p := range r.lease.slots {
		r.lease.slots[p].holder = c.pmap.Primary(p)
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

// heartbeat broadcasts a lease renewal to the partition's other owners.
func (r *replicator) heartbeat(part int, term uint64) {
	msg := ReplBeatMsg{Part: part, Term: term}
	for _, o := range r.nd.pmap.OwnerSet(part) {
		if o != r.nd.id {
			r.nd.net.Send(transport.Message{From: r.nd.id, To: o, Payload: msg})
		}
	}
}

// noteBeat folds an accepted current-or-higher-term lease heartbeat into
// the lease view. Called from the node's delivery path via
// Node.onReplBeat.
func (r *replicator) noteBeat(part int, from model.NodeID, term uint64) {
	if r.lease.observe(part, from, term, time.Now()) {
		if f := r.c.cfg.ReplicaConfig.OnRoleChange; f != nil {
			f(part, from, term)
		}
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
	for part := range out {
		s := r.lease.get(part)
		h := ReplicaPartHealth{Part: part, Role: "backup", Primary: s.holder, Term: s.term}
		if s.holder == r.nd.id {
			h.Role = "primary"
		}
		if !s.last.IsZero() {
			h.LastBeatAgeMs = now.Sub(s.last).Milliseconds()
		}
		out[part] = h
	}
	return out
}
