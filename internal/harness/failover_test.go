package harness

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
)

// TestCoordinatorKillAtEachPhase is the chaos gate for coordinator
// failover: for each of the four advancement phases, kill the active
// coordinator right as that phase completes, and require that a
// standby takes over under a higher term, finishes the sweep, the
// cluster converges, and every acknowledged update remains readable.
func TestCoordinatorKillAtEachPhase(t *testing.T) {
	for phase := 1; phase <= 4; phase++ {
		t.Run(fmt.Sprintf("phase%d", phase), func(t *testing.T) {
			c, err := core.NewCluster(core.Config{
				Nodes:          3,
				Reliable:       true,
				Failover:       true,
				ResendInterval: 5 * time.Millisecond,
				AckTimeout:     30 * time.Second,
				FailoverConfig: core.LeaseConfig{
					LeaseInterval: 10 * time.Millisecond,
					LeaseTimeout:  40 * time.Millisecond,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			keys := map[model.NodeID]string{0: "A", 1: "B", 2: "C"}
			for node, key := range keys {
				rec := model.NewRecord()
				rec.Fields["bal"] = 0
				c.Preload(node, key, rec)
			}
			c.Start()
			defer c.Close()

			// Acknowledged updates: every handle completes before the
			// sweep starts, so all of them must be readable after the
			// takeover publishes version 1.
			want := map[string]int64{}
			for i := 0; i < 30; i++ {
				node := model.NodeID(i % 3)
				key := keys[node]
				h, serr := c.Submit(&model.TxnSpec{Root: &model.SubtxnSpec{
					Node:    node,
					Updates: []model.KeyOp{{Key: key, Op: model.AddOp{Field: "bal", Delta: 1}}},
				}})
				if serr != nil {
					t.Fatal(serr)
				}
				if !h.WaitTimeout(30 * time.Second) {
					t.Fatal("update timed out before the chaos window even opened")
				}
				want[key]++
			}

			killCh := ArmPhaseKill(c, phase)
			rep := c.Advance()
			if !rep.Interrupted {
				t.Fatalf("sweep survived a phase-%d coordinator kill: %+v", phase, rep)
			}
			var kill FailoverKill
			select {
			case kill = <-killCh:
			case <-time.After(5 * time.Second):
				t.Fatal("chaos kill never fired")
			}
			if kill.Phase != phase {
				t.Fatalf("killed at phase %d, armed for %d", kill.Phase, phase)
			}

			tr, err := AwaitTakeover(c, kill.Term, 1, 15*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if tr.NewTerm <= kill.Term {
				t.Fatalf("takeover term %d not above killed term %d", tr.NewTerm, kill.Term)
			}
			if tr.Takeovers < 1 {
				t.Fatalf("no takeover counted: %+v", tr)
			}
			if errs := GateErrors(c, 10*time.Second); len(errs) != 0 {
				t.Fatalf("gate failed after phase-%d kill: %v", phase, errs)
			}

			// Nothing acknowledged lost: the published read version must
			// show every pre-kill update.
			for node, key := range keys {
				h, serr := c.Submit(&model.TxnSpec{Root: &model.SubtxnSpec{
					Node:  node,
					Reads: []string{key},
				}})
				if serr != nil {
					t.Fatal(serr)
				}
				if !h.WaitTimeout(30 * time.Second) {
					t.Fatal("read timed out after takeover")
				}
				reads := h.Reads()
				if len(reads) != 1 || reads[0].Record == nil {
					t.Fatalf("read of %q returned %+v", key, reads)
				}
				if got := reads[0].Record.Field("bal"); got != want[key] {
					t.Fatalf("acknowledged updates lost: %q has bal %d, want %d", key, got, want[key])
				}
			}

			// The successor must remain a fully functional coordinator.
			if rep2 := c.Advance(); rep2.Interrupted {
				t.Fatalf("successor's next sweep failed: %v", rep2.Err)
			}
		})
	}
}
