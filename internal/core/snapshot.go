package core

import (
	"fmt"
	"time"

	"repro/internal/model"
	"repro/internal/storage"
)

// ClusterSnapshot is a serializable image of a quiesced cluster: every
// node's versioned store plus the version numbers and the transaction
// sequence counter. It supports backup/restore of a data recording
// system between runs (the paper's systems are operational databases;
// durability is a substrate the paper takes as given).
//
// A snapshot is only meaningful when taken at quiescence — no
// in-flight transactions and no advancement running. ExportSnapshot
// verifies the observable part of that condition (all request and
// completion counters balanced, version numbers uniform) and refuses
// otherwise; in-flight client handles cannot be saved in any case.
type ClusterSnapshot struct {
	Nodes  int
	VR, VU model.Version
	Seq    uint64
	Stores [][]storage.ExportedItem
}

// ExportSnapshot captures the cluster state. It fails if the cluster is
// visibly not quiescent (unbalanced counters or version disagreement).
func (c *Cluster) ExportSnapshot() (*ClusterSnapshot, error) {
	// Client-side check: every submitted transaction must have
	// completed (a just-submitted root may not have touched any counter
	// yet, so the counter check below cannot see it).
	pending := 0
	c.handles.Range(func(_, v any) bool {
		if v.(*Handle).Status() == StatusPending {
			pending++
		}
		return true
	})
	if pending > 0 {
		return nil, fmt.Errorf("core: snapshot refused: %d transactions still in flight", pending)
	}
	if c.distributed {
		return nil, fmt.Errorf("core: snapshots require a single-process cluster")
	}
	if c.nparts > 1 {
		return nil, fmt.Errorf("core: snapshots require an unpartitioned cluster (the format carries one version pair)")
	}
	snap := &ClusterSnapshot{Nodes: len(c.nodes), Seq: c.seq.Load()}
	vrRef, vuRef := c.nodes[0].Versions()
	for i, nd := range c.nodes {
		vr, vu := nd.Versions()
		if vr != vrRef || vu != vuRef {
			return nil, fmt.Errorf("core: snapshot refused: node %d at vr=%d/vu=%d, node 0 at vr=%d/vu=%d (advancement in flight?)",
				i, vr, vu, vrRef, vuRef)
		}
	}
	// A handle completes just before its root's completion counter is
	// incremented (the increment is deferred to the execution's tail),
	// so a caller that waited on every handle can still catch R one
	// ahead of C for a moment: let the tails land before refusing.
	deadline := time.Now().Add(snapshotSettle)
	for {
		err := c.counterImbalance()
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(time.Millisecond)
	}
	snap.VR, snap.VU = vrRef, vuRef
	for _, nd := range c.nodes {
		snap.Stores = append(snap.Stores, nd.store.Export())
	}
	return snap, nil
}

// snapshotSettle bounds how long ExportSnapshot waits for the request
// and completion counters to balance before it refuses.
const snapshotSettle = time.Second

// counterImbalance checks, for every active version anywhere in the
// cluster, that everything sent from p to q has completed at q; it
// describes the first pair that has not, or returns nil.
func (c *Cluster) counterImbalance() error {
	versions := make(map[model.Version]bool)
	for _, nd := range c.nodes {
		for _, v := range nd.Counters().Versions() {
			versions[v] = true
		}
	}
	for v := range versions {
		for p := range c.nodes {
			for q := range c.nodes {
				r := c.nodes[p].Counters().R(v, model.NodeID(q))
				cc := c.nodes[q].Counters().C(v, model.NodeID(p))
				if r != cc {
					return fmt.Errorf("core: snapshot refused: version %d has R[%d][%d]=%d but C=%d (transactions in flight)",
						v, p, q, r, cc)
				}
			}
		}
	}
	return nil
}

// RestoreSnapshot installs a snapshot into a freshly built (not yet
// used) cluster of the same size. Call before submitting transactions;
// typically immediately after NewCluster and before/after Start.
func (c *Cluster) RestoreSnapshot(s *ClusterSnapshot) error {
	if c.distributed {
		return fmt.Errorf("core: snapshots require a single-process cluster")
	}
	if c.nparts > 1 {
		return fmt.Errorf("core: snapshots require an unpartitioned cluster (the format carries one version pair)")
	}
	if s.Nodes != len(c.nodes) {
		return fmt.Errorf("core: snapshot is for %d nodes, cluster has %d", s.Nodes, len(c.nodes))
	}
	if s.VU != s.VR+1 {
		return fmt.Errorf("core: snapshot has vu=%d vr=%d; expected vu == vr+1", s.VU, s.VR)
	}
	for i, nd := range c.nodes {
		nd.store.Import(s.Stores[i])
		nd.verMu.Lock()
		nd.pv[0] = verPair{vu: s.VU, vr: s.VR}
		nd.verMu.Unlock()
		nd.cnts[0].EnsureVersion(s.VR)
		nd.cnts[0].EnsureVersion(s.VU)
	}
	coord := c.currentCoordinator()
	cp := coord.parts[0]
	cp.advMu.Lock()
	cp.vr, cp.vu = s.VR, s.VU
	cp.advMu.Unlock()
	c.seq.Store(s.Seq)
	return nil
}
