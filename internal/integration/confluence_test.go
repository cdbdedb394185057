package integration

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/transport"
)

// confluenceRun executes a fixed transaction set on a scripted cluster,
// delivering every message in an order chosen by the seeded RNG, runs a
// full advancement (also pumped in random order), and returns the final
// logical state of every node's store: what a read of each item at the
// newest version sees.
//
// This is the most direct test of the paper's premise: because update
// subtransactions commute and the protocol tolerates arbitrary message
// reordering (implicit notification, dual writes), EVERY delivery order
// must converge to the same database state. A divergence means either
// an op that doesn't really commute or a protocol path that depends on
// arrival order.
func confluenceRun(t *testing.T, seed int64) string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	script := transport.NewScript(4)
	c, err := core.NewCluster(core.Config{
		Nodes:        3,
		Transport:    script,
		PollInterval: 100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for node, keys := range map[model.NodeID][]string{0: {"A", "B"}, 1: {"D", "E"}, 2: {"F"}} {
		for _, k := range keys {
			rec := model.NewRecord()
			rec.Fields["bal"] = 0
			c.Preload(node, k, rec)
		}
	}
	c.Start()
	defer c.Close()

	// A fixed transaction set touching every item, including a
	// compensated (aborting) tree and deep fan-out with revisits.
	add := func(key string, d int64) model.KeyOp {
		return model.KeyOp{Key: key, Op: model.AddOp{Field: "bal", Delta: d}}
	}
	var handles []*core.Handle
	submit := func(spec *model.TxnSpec) {
		h, err := c.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	for i := 0; i < 6; i++ {
		submit(&model.TxnSpec{Root: &model.SubtxnSpec{
			Node:    model.NodeID(i % 3),
			Updates: nil,
			Children: []*model.SubtxnSpec{
				{Node: 0, Updates: []model.KeyOp{add("A", 1), add("B", 2)}},
				{Node: 1, Updates: []model.KeyOp{add("D", 3)}, Children: []*model.SubtxnSpec{
					{Node: 2, Updates: []model.KeyOp{add("F", 4)}},
				}},
			},
		}})
	}
	submit(&model.TxnSpec{Root: &model.SubtxnSpec{ // compensated tree: net zero
		Node:    0,
		Abort:   true,
		Updates: []model.KeyOp{add("A", 100)},
		Children: []*model.SubtxnSpec{
			{Node: 1, Updates: []model.KeyOp{add("E", 100)}},
		},
	}})

	// Random-order pump: deliver everything (including advancement
	// traffic) in RNG order until the advancement completes, settled()
	// holds and no messages remain.
	advance := func(settled func() bool) {
		advDone := c.AdvanceAsync()
		deadline := time.Now().Add(20 * time.Second)
		advFinished := false
		for {
			if n := script.PendingCount(); n > 0 {
				script.DeliverIndex(rng.Intn(n))
				continue
			}
			if !advFinished {
				select {
				case rep := <-advDone:
					advFinished = true
					if rep.Interrupted {
						t.Fatal("advancement interrupted")
					}
					continue
				default: // coordinator between sweeps
				}
			} else if settled() {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("confluence run (seed %d) did not converge; %d pending", seed, script.PendingCount())
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	advance(func() bool {
		for _, h := range handles {
			select {
			case <-h.Done():
			default:
				return false
			}
		}
		return true
	})
	if vio := c.Violations(); vio != nil {
		t.Fatalf("seed %d: violations %v", seed, vio)
	}
	if c.MaxLiveVersionsEver() > 3 {
		t.Fatalf("seed %d: %d live versions", seed, c.MaxLiveVersionsEver())
	}
	// Compare logical state, not version layout: an update that raced
	// the switch to the new update version legitimately sits one version
	// above its siblings (v1={bal=5} v2={bal=6} against v1={bal=6}). One
	// more advancement publishes every such straggler, and a read at the
	// final update version then sees each item's whole history.
	advance(func() bool { return true })
	_, vu := c.Coordinator().Versions()
	state := ""
	for i := 0; i < 3; i++ {
		store := c.Node(i).Store()
		state += fmt.Sprintf("node%d:\n", i)
		for _, k := range store.Keys() {
			rec, _, _ := store.ReadMax(k, vu)
			state += fmt.Sprintf("%s: %v\n", k, rec)
		}
	}
	return state
}

// TestConfluenceAcrossDeliveryOrders runs the same transaction set
// under many random delivery orders and requires identical final
// logical states: the commutativity the protocol exploits, verified end
// to end.
func TestConfluenceAcrossDeliveryOrders(t *testing.T) {
	reference := confluenceRun(t, 1)
	// The expected final state: 6 × the fan-out increments, the
	// compensated tree invisible.
	for _, want := range []string{"A: {bal=6", "B: {bal=12", "D: {bal=18", "F: {bal=24", "E: {bal=0"} {
		if !containsStr(reference, want) {
			t.Fatalf("reference state missing %q:\n%s", want, reference)
		}
	}
	for seed := int64(2); seed <= 12; seed++ {
		got := confluenceRun(t, seed)
		if got != reference {
			t.Fatalf("delivery order (seed %d) changed the final state:\n--- reference ---\n%s\n--- seed %d ---\n%s",
				seed, reference, seed, got)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
