// Package trace replays, step by step and fully deterministically, the
// example execution of Table 1 of the paper (Section 2.3) on sites p,
// q, s with items A, B at p, D, E at q, and F at s — and checks every
// annotated counter value and every version state of Figure 2 along the
// way.
//
// The replay exercises all the protocol's delicate interleavings:
//
//   - a descendant (jp, version 2) arriving at a node (p) before the
//     advancement notice, acting as the implicit notification;
//   - a descendant (iq, version 1) arriving at a node (q) that has
//     already advanced, triggering the dual write on D (versions 1 AND
//     2) but a single write on E (no version-2 copy exists);
//   - lazy copy-on-update everywhere;
//   - the request/completion counter bookkeeping for every hop;
//   - quiescence detection by asynchronous counter reads, followed by
//     the read-version switch and garbage collection.
//
// Determinism comes from the scripted transport: messages are parked
// until the replay releases them, and a cluster on it executes every
// subtransaction inline during delivery.
package trace

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/transport"
)

// Check is one assertion made during the replay.
type Check struct {
	Desc string
	Got  string
	Want string
	OK   bool
}

// Step is one row (or row group) of Table 1 as replayed.
type Step struct {
	Time   string
	Site   string
	What   string
	Checks []Check
}

// Result is a completed replay.
type Result struct {
	Steps  []Step
	Passed int
	Failed int
}

// OK reports whether every check passed.
func (r *Result) OK() bool { return r.Failed == 0 }

// String renders the replay as a table-like report.
func (r *Result) String() string {
	out := ""
	for _, s := range r.Steps {
		out += fmt.Sprintf("TIME %-6s SITE %-2s %s\n", s.Time, s.Site, s.What)
		for _, c := range s.Checks {
			mark := "ok"
			if !c.OK {
				mark = "FAIL"
			}
			out += fmt.Sprintf("    [%s] %s = %s (want %s)\n", mark, c.Desc, c.Got, c.Want)
		}
	}
	out += fmt.Sprintf("checks: %d passed, %d failed\n", r.Passed, r.Failed)
	return out
}

// replayer carries the machinery through the steps.
type replayer struct {
	script  *transport.Script
	cluster *core.Cluster
	res     *Result
	cur     *Step
}

const (
	p = model.NodeID(0)
	q = model.NodeID(1)
	s = model.NodeID(2)
)

// coordID is the coordinator endpoint in a 3-node cluster.
const coordID = model.NodeID(3)

func (r *replayer) step(timeLabel string, site model.NodeID, what string) {
	r.res.Steps = append(r.res.Steps, Step{Time: timeLabel, Site: site.String(), What: what})
	r.cur = &r.res.Steps[len(r.res.Steps)-1]
}

func (r *replayer) check(desc string, got, want any) {
	g, w := fmt.Sprint(got), fmt.Sprint(want)
	ok := g == w
	r.cur.Checks = append(r.cur.Checks, Check{Desc: desc, Got: g, Want: w, OK: ok})
	if ok {
		r.res.Passed++
	} else {
		r.res.Failed++
	}
}

// versions renders an item's live versions like "[0 1 2]".
func (r *replayer) versions(node model.NodeID, key string) string {
	return fmt.Sprint(r.cluster.Node(int(node)).Store().LiveVersions(key))
}

// bal reads the balance of key at exactly version v.
func (r *replayer) bal(node model.NodeID, key string, v model.Version) string {
	rec, ok := r.cluster.Node(int(node)).Store().Peek(key, v)
	if !ok {
		return "missing"
	}
	return fmt.Sprint(rec.Field("bal"))
}

// deliverSubtxn releases the oldest parked subtransaction of the given
// transaction addressed to node. Selecting by transaction id matters:
// Table 1 interleaves i's and j's subtransactions at the same sites.
func (r *replayer) deliverSubtxn(node model.NodeID, txn model.TxnID) bool {
	return r.script.DeliverWhere(func(m transport.Message) bool {
		sm, ok := m.Payload.(core.SubtxnMsg)
		return ok && m.To == node && sm.Txn == txn
	})
}

// deliverAdvancementTo releases the parked start-advancement notice for
// node.
func (r *replayer) deliverAdvancementTo(node model.NodeID) bool {
	return r.script.DeliverWhere(func(m transport.Message) bool {
		_, ok := m.Payload.(core.StartAdvancementMsg)
		return ok && m.To == node
	})
}

// Replay runs the full Table 1 schedule and returns the checked steps.
func Replay() (*Result, error) {
	script := transport.NewScript(4) // p, q, s + coordinator
	cluster, err := core.NewCluster(core.Config{
		Nodes:        3,
		Transport:    script,
		PollInterval: time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	for node, keys := range map[model.NodeID][]string{p: {"A", "B"}, q: {"D", "E"}, s: {"F"}} {
		for _, k := range keys {
			rec := model.NewRecord()
			rec.Fields["bal"] = 0
			cluster.Preload(node, k, rec)
		}
	}
	cluster.Start()
	defer cluster.Close()

	r := &replayer{script: script, cluster: cluster, res: &Result{}}

	// Transaction i (Figure 1 / Table 1): root at p updates A, spawns
	// iq to q (which updates D and E and spawns iqp back to p updating
	// B) and is to s (updating F).
	txnI := &model.TxnSpec{Label: "i", Root: &model.SubtxnSpec{
		Node:    p,
		Updates: []model.KeyOp{{Key: "A", Op: model.AddOp{Field: "bal", Delta: 10}}},
		Children: []*model.SubtxnSpec{
			{
				Node: q,
				Updates: []model.KeyOp{
					{Key: "D", Op: model.AddOp{Field: "bal", Delta: 20}},
					{Key: "E", Op: model.AddOp{Field: "bal", Delta: 30}},
				},
				Children: []*model.SubtxnSpec{
					{Node: p, Updates: []model.KeyOp{{Key: "B", Op: model.AddOp{Field: "bal", Delta: 40}}}},
				},
			},
			{Node: s, Updates: []model.KeyOp{{Key: "F", Op: model.AddOp{Field: "bal", Delta: 50}}}},
		},
	}}
	txnJ := &model.TxnSpec{Label: "j", Root: &model.SubtxnSpec{
		Node:    q,
		Updates: []model.KeyOp{{Key: "D", Op: model.AddOp{Field: "bal", Delta: 100}}},
		Children: []*model.SubtxnSpec{
			{Node: p, Updates: []model.KeyOp{{Key: "A", Op: model.AddOp{Field: "bal", Delta: 200}}}},
		},
	}}

	np := cluster.Node(int(p))
	nq := cluster.Node(int(q))
	ns := cluster.Node(int(s))

	// TIME 1-4: update transaction i arrives at p, updates A version 1,
	// issues iq and is. (The root commits after issuing its children,
	// bumping C1pp — the paper reports the client-side completion
	// notice later, at time 27; the counter semantics are identical.)
	hI, err := cluster.Submit(txnI)
	if err != nil {
		return nil, err
	}
	r.step("1-4", p, "update tx i arrives; i updates A version 1; subtx iq issued to q, is issued to s")
	r.deliverSubtxn(p, hI.ID)
	r.check("R1pp", np.Counters().R(1, p), 1)
	r.check("R1pq", np.Counters().R(1, q), 1)
	r.check("R1ps", np.Counters().R(1, s), 1)
	r.check("A versions", r.versions(p, "A"), "[0 1]")
	r.check("A@1.bal", r.bal(p, "A", 1), 10)
	r.check("A@0.bal untouched", r.bal(p, "A", 0), 0)

	// TIME 5-6: read transaction x arrives at p, reads A version 0.
	hX, err := cluster.Submit(&model.TxnSpec{Label: "x", Root: &model.SubtxnSpec{Node: p, Reads: []string{"A"}}})
	if err != nil {
		return nil, err
	}
	r.step("5-6", p, "read tx x arrives; x reads A version 0")
	r.deliverSubtxn(p, hX.ID)
	reads := hX.Reads()
	if len(reads) == 1 {
		r.check("x read version", reads[0].VersionRead, 0)
		r.check("x read value", reads[0].Record.Field("bal"), 0)
	} else {
		r.check("x read count", len(reads), 1)
	}

	// TIME 7-8: is arrives at s, updates F version 1.
	r.step("7-8", s, "is arrives; is updates F version 1")
	r.deliverSubtxn(s, hI.ID)
	r.check("F versions", r.versions(s, "F"), "[0 1]")
	r.check("F@1.bal", r.bal(s, "F", 1), 50)
	r.check("C1ps (at s)", ns.Counters().C(1, p), 1)

	// TIME 9: version advancement begins. The coordinator broadcasts
	// start-advancement notices; only q receives one now.
	advDone := cluster.AdvanceAsync()
	r.step("9", q, "version advancement begins; q advances update version to 2")
	// The coordinator goroutine sends the three notices asynchronously;
	// wait until they are all parked before delivering q's.
	waitParked(script, 3, func(m transport.Message) bool {
		_, ok := m.Payload.(core.StartAdvancementMsg)
		return ok
	})
	r.deliverAdvancementTo(q)
	vrq, vuq := nq.Versions()
	r.check("q.vu", vuq, 2)
	r.check("q.vr", vrq, 0)

	// TIME 10-12: update transaction j arrives at q, updates D version
	// 2, issues jp to p.
	hJ, err := cluster.Submit(txnJ)
	if err != nil {
		return nil, err
	}
	r.step("10-12", q, "update tx j arrives; j updates D version 2; jp issued to p")
	r.deliverSubtxn(q, hJ.ID)
	r.check("R2qq", nq.Counters().R(2, q), 1)
	r.check("R2qp", nq.Counters().R(2, p), 1)
	r.check("D versions", r.versions(q, "D"), "[0 2]")
	r.check("D@2.bal", r.bal(q, "D", 2), 100)
	r.check("C2qq (root j committed)", nq.Counters().C(2, q), 1)

	// TIME 13-16: iq (version 1) arrives at q, which already advanced:
	// iq updates D versions 1 AND 2 (the dual write) but E only in
	// version 1 (E has no version-2 copy); iqp issued to p.
	r.step("13-16", q, "iq arrives; iq updates D versions 1 and 2; iq updates E version 1; iqp issued to p")
	r.deliverSubtxn(q, hI.ID)
	r.check("D versions", r.versions(q, "D"), "[0 1 2]")
	r.check("D@1.bal (v1: only iq)", r.bal(q, "D", 1), 20)
	r.check("D@2.bal (v2: j and iq)", r.bal(q, "D", 2), 120)
	r.check("E versions (no dual write)", r.versions(q, "E"), "[0 1]")
	r.check("E@1.bal", r.bal(q, "E", 1), 30)
	r.check("R1qp", nq.Counters().R(1, p), 1)
	r.check("C1pq (iq committed at q)", nq.Counters().C(1, p), 1)
	r.check("dual writes at q", nq.Metrics().DualWrites, 1)

	// TIME 17-18: read transaction y arrives at q, reads D version 0.
	hY, err := cluster.Submit(&model.TxnSpec{Label: "y", Root: &model.SubtxnSpec{Node: q, Reads: []string{"D"}}})
	if err != nil {
		return nil, err
	}
	r.step("17-18", q, "read tx y arrives; y reads D version 0")
	r.deliverSubtxn(q, hY.ID)
	yReads := hY.Reads()
	if len(yReads) == 1 {
		r.check("y read version", yReads[0].VersionRead, 0)
		r.check("y read value", yReads[0].Record.Field("bal"), 0)
	} else {
		r.check("y read count", len(yReads), 1)
	}

	// TIME 19-22: jp (version 2) arrives at p BEFORE p was notified of
	// the advancement; its version-id is the notification. p advances
	// its update version to 2 and jp updates A version 2.
	r.step("19-22", p, "jp arrives with version 2; p begins version advancement implicitly; jp updates A version 2")
	r.deliverSubtxn(p, hJ.ID)
	_, vup := np.Versions()
	r.check("p.vu (implicit advancement)", vup, 2)
	r.check("p implicit advances", np.Metrics().ImplicitAdvances, 1)
	r.check("A versions", r.versions(p, "A"), "[0 1 2]")
	r.check("A@2.bal (i then jp)", r.bal(p, "A", 2), 210)
	r.check("A@1.bal (v1: only i)", r.bal(p, "A", 1), 10)
	r.check("C2qp (jp committed at p)", np.Counters().C(2, q), 1)

	// TIME 23: the coordinator's advancement notice finally arrives at
	// p; the update version is already 2.
	r.step("23", p, "version advancement notice arrives; update version already advanced to 2")
	r.deliverAdvancementTo(p)
	_, vup = np.Versions()
	r.check("p.vu unchanged", vup, 2)

	// TIME 24-25: iqp (version 1) arrives at p, updates B version 1.
	// B has no version-2 copy, so no dual write happens.
	r.step("24-25", p, "iqp arrives from q; iqp updates B version 1")
	r.deliverSubtxn(p, hI.ID)
	r.check("B versions", r.versions(p, "B"), "[0 1]")
	r.check("B@1.bal", r.bal(p, "B", 1), 40)
	r.check("C1qp (iqp committed at p)", np.Counters().C(1, q), 1)

	// The advancement notice for s is still in flight; deliver it now.
	r.step("25b", s, "advancement notice reaches s")
	r.deliverAdvancementTo(s)
	_, vus := ns.Versions()
	r.check("s.vu", vus, 2)

	// TIME 26-28: all completion notices arrive; transactions i and j
	// are complete and every counter matches its request counter.
	r.step("26-28", p, "i and j complete; all version-1 and version-2 counters match")
	if !hI.WaitTimeout(5 * time.Second) {
		r.check("txn i completed", "timeout", "completed")
	} else {
		r.check("txn i status", hI.Status(), core.StatusCommitted)
	}
	if !hJ.WaitTimeout(5 * time.Second) {
		r.check("txn j completed", "timeout", "completed")
	} else {
		r.check("txn j status", hJ.Status(), core.StatusCommitted)
	}
	r.check("v1 R/C p->p", fmt.Sprint(np.Counters().R(1, p), np.Counters().C(1, p)), "1 1")
	r.check("v1 R/C p->q", fmt.Sprint(np.Counters().R(1, q), nq.Counters().C(1, p)), "1 1")
	r.check("v1 R/C p->s", fmt.Sprint(np.Counters().R(1, s), ns.Counters().C(1, p)), "1 1")
	r.check("v1 R/C q->p", fmt.Sprint(nq.Counters().R(1, p), np.Counters().C(1, q)), "1 1")
	r.check("v2 R/C q->q", fmt.Sprint(nq.Counters().R(2, q), nq.Counters().C(2, q)), "1 1")
	r.check("v2 R/C q->p", fmt.Sprint(nq.Counters().R(2, p), np.Counters().C(2, q)), "1 1")

	// Figure 2, "Eventually (after time 28)" — before the read-version
	// switch and garbage collection.
	r.step("fig2", p, "Figure 2 'eventually' state (pre-GC)")
	r.check("A", r.versions(p, "A"), "[0 1 2]")
	r.check("B", r.versions(p, "B"), "[0 1]")
	r.check("D", r.versions(q, "D"), "[0 1 2]")
	r.check("E", r.versions(q, "E"), "[0 1]")
	r.check("F", r.versions(s, "F"), "[0 1]")

	// Beyond time 28: "A coordinator can determine [stability] by means
	// of an asynchronous read of the counters, and then inform each
	// site of a read version advancement." Pump the scripted network
	// until the four-phase advancement completes.
	r.step("29+", p, "coordinator detects quiescence asynchronously; read version advances; GC runs")
	var rep core.AdvanceReport
	pumped := false
	for i := 0; i < 100000; i++ {
		script.DeliverAll()
		select {
		case rep = <-advDone:
			pumped = true
		default:
			time.Sleep(200 * time.Microsecond)
			continue
		}
		break
	}
	r.check("advancement completed", pumped, true)
	if pumped {
		r.check("new read version", rep.NewVR, 1)
		r.check("new update version", rep.NewVU, 2)
	}
	for i, n := range []*core.Node{np, nq, ns} {
		vr, vu := n.Versions()
		r.check(fmt.Sprintf("node %v vr/vu", model.NodeID(i)), fmt.Sprint(vr, " ", vu), "1 2")
	}
	// Post-GC states: version 0 is gone; untouched copies were
	// renumbered.
	r.check("A post-GC", r.versions(p, "A"), "[1 2]")
	r.check("B post-GC", r.versions(p, "B"), "[1]")
	r.check("D post-GC", r.versions(q, "D"), "[1 2]")
	r.check("E post-GC", r.versions(q, "E"), "[1]")
	r.check("F post-GC", r.versions(s, "F"), "[1]")

	// A fresh read now sees version 1: the January charges are visible.
	hX2, err := cluster.Submit(&model.TxnSpec{Label: "x2", Root: &model.SubtxnSpec{Node: p, Reads: []string{"A"}}})
	if err != nil {
		return nil, err
	}
	r.step("final", p, "new read tx sees version 1")
	r.deliverSubtxn(p, hX2.ID)
	x2 := hX2.Reads()
	if len(x2) == 1 {
		r.check("x2 read version", x2[0].VersionRead, 1)
		r.check("x2 read value", x2[0].Record.Field("bal"), 10)
	} else {
		r.check("x2 read count", len(x2), 1)
	}
	r.check("max live versions ever", cluster.MaxLiveVersionsEver() <= 3, true)
	r.check("violations", len(cluster.Violations()), 0)

	// Let the stray read-transaction bookkeeping finish.
	script.DeliverAll()
	return r.res, nil
}

// waitParked spins until at least n parked messages match pred — the
// coordinator goroutine sends its broadcasts asynchronously.
func waitParked(script *transport.Script, n int, pred func(transport.Message) bool) {
	for i := 0; i < 50000; i++ {
		if script.CountWhere(pred) >= n {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}
