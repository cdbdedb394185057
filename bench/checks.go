package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/durable"
	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/verify"
)

// finalChecks is the per-run correctness gate. It closes the stack. On a
// durable stack it returns how long reopening the journals took.
func (d *driver) finalChecks() time.Duration {
	st, w := d.st, d.cfg.w
	if w.Stack == stackRepl {
		// Replica streams are asynchronous: wait until every backup applied
		// what the primaries sent before reading the final state.
		deadline := time.Now().Add(opTimeout)
		for {
			c := st.counts().obsCtr
			if c["repl_sends"] == c["repl_applies"] {
				break
			}
			if time.Now().After(deadline) {
				d.problem("replication never drained: %d sends, %d applies", c["repl_sends"], c["repl_applies"])
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	for i := 0; i < 2; i++ {
		if rep := st.advance(); rep.Err != nil {
			d.problem("final advance %d: %v", i, rep.Err)
		}
	}
	for _, p := range st.problems() {
		d.problem("%s", p)
	}
	if w.Stack == stackRepl {
		if rep := verify.CheckPartitions(st.clusters[0]); !rep.OK() {
			d.problem("%v", rep)
		}
	}

	// Every member's summaries must equal the sums the program acknowledged.
	// With replica groups every node owns every partition, so each of the
	// Span children's effects reaches every one of the nodes exactly once.
	mult, everywhere := int64(1), w.Stack == stackRepl
	if everywhere {
		mult = int64(w.Span)
	}
	for g := 0; g < w.Groups; g++ {
		nodes := groupNodes(w, g)
		if everywhere {
			nodes = nodes[:0]
			for n := 0; n < w.Nodes; n++ {
				nodes = append(nodes, model.NodeID(n))
			}
		}
		wantBal, wantCount := mult*d.expBal[g].Load(), mult*d.expCount[g].Load()
		for _, n := range nodes {
			rec, _, ok := st.cluster(n).Node(int(n)).Store().ReadMax(groupKey(g), math.MaxUint64)
			if !ok {
				if wantCount != 0 {
					d.problem("group %d missing at node %v", g, n)
				}
				continue
			}
			if rec.Field("bal") != wantBal || rec.Field("count") != wantCount {
				d.problem("group %d at node %v: bal=%d count=%d, acknowledged bal=%d count=%d",
					g, n, rec.Field("bal"), rec.Field("count"), wantBal, wantCount)
			}
		}
	}

	var recoverDur time.Duration
	if w.Stack == stackDurableTCP {
		recoverDur = d.recoveryCheck()
	}
	st.close()
	return recoverDur
}

// recoveryCheck closes every node, reopens its journal directory and
// requires the recovered store to equal the store as it was before the
// close: every acknowledged write is readable after a clean restart. It does
// not cover a crash: under fsync `interval` the last 5 ms of acknowledged
// writes are not yet on the device, and Close syncs them.
func (d *driver) recoveryCheck() time.Duration {
	st := d.st
	before := make([][]storage.ExportedItem, len(st.clusters))
	for i, c := range st.clusters {
		before[i] = c.Node(i).Store().Export()
	}
	opts := st.dbOpts
	st.close()
	var dur time.Duration
	for i, o := range opts {
		t0 := time.Now()
		db, restore, _, err := durable.Open(o)
		dur += time.Since(t0)
		if err != nil {
			d.problem("node %d: reopen: %v", i, err)
			continue
		}
		if restore == nil || restore.Store == nil {
			d.problem("node %d: reopen found no checkpoint", i)
		} else if diff := diffExports(before[i], restore.Store.Export()); diff != "" {
			d.problem("node %d: recovered store differs: %s", i, diff)
		}
		if err := db.Close(); err != nil {
			d.problem("node %d: close after recovery: %v", i, err)
		}
	}
	return dur
}

// diffExports compares two store exports (both sorted by key, versions
// ascending); "" means equal.
func diffExports(a, b []storage.ExportedItem) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d items before, %d after", len(a), len(b))
	}
	for i := range a {
		if a[i].Key != b[i].Key {
			return fmt.Sprintf("item %d is %q before, %q after", i, a[i].Key, b[i].Key)
		}
		if len(a[i].Versions) != len(b[i].Versions) {
			return fmt.Sprintf("%q has %d versions before, %d after", a[i].Key, len(a[i].Versions), len(b[i].Versions))
		}
		for j := range a[i].Versions {
			va, vb := a[i].Versions[j], b[i].Versions[j]
			if va.Ver != vb.Ver || !va.Rec.Equal(vb.Rec) {
				return fmt.Sprintf("%q version %d before %v, version %d after %v", a[i].Key, va.Ver, va.Rec, vb.Ver, vb.Rec)
			}
		}
	}
	return ""
}
