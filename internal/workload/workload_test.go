package workload

import (
	"testing"

	"repro/internal/model"
)

func TestGeneratorReproducible(t *testing.T) {
	a := New(Config{Nodes: 4, Seed: 7, ReadFraction: 0.3})
	b := New(Config{Nodes: 4, Seed: 7, ReadFraction: 0.3})
	for i := 0; i < 100; i++ {
		ta, tb := a.Next(), b.Next()
		if ta.Kind != tb.Kind || ta.Group != tb.Group || ta.Spec.String() != tb.Spec.String() {
			t.Fatalf("streams diverged at %d: %v vs %v", i, ta.Spec, tb.Spec)
		}
	}
}

func TestGeneratedSpecsValidate(t *testing.T) {
	g := New(Config{Nodes: 5, Span: 3, ReadFraction: 0.3, NonCommutingFraction: 0.1, AbortFraction: 0.1, Seed: 3})
	for i := 0; i < 500; i++ {
		txn := g.Next()
		if err := txn.Spec.Validate(); err != nil {
			t.Fatalf("generated invalid spec: %v", err)
		}
	}
}

func TestKindMixMatchesFractions(t *testing.T) {
	g := New(Config{Nodes: 4, ReadFraction: 0.5, NonCommutingFraction: 0.2, Seed: 11})
	counts := map[Kind]int{}
	const n = 5000
	for i := 0; i < n; i++ {
		counts[g.Next().Kind]++
	}
	if f := float64(counts[KindRead]) / n; f < 0.45 || f > 0.55 {
		t.Errorf("read fraction = %.3f, want ≈0.5", f)
	}
	// Non-commuting is 20% of the non-read half ≈ 10% overall.
	if f := float64(counts[KindNonCommuting]) / n; f < 0.07 || f > 0.13 {
		t.Errorf("nc fraction = %.3f, want ≈0.1", f)
	}
}

func TestUpdateShapeFollowsAuditConvention(t *testing.T) {
	g := New(Config{Nodes: 4, Span: 3, Seed: 5})
	var txn Txn
	for {
		txn = g.Next()
		if txn.Kind == KindUpdate {
			break
		}
	}
	if txn.Parts != 3 {
		t.Fatalf("Parts = %d, want 3", txn.Parts)
	}
	if len(txn.Spec.Root.Children) != 3 {
		t.Fatalf("children = %d, want 3", len(txn.Spec.Root.Children))
	}
	seen := map[int]bool{}
	for _, c := range txn.Spec.Root.Children {
		var tuple *model.Tuple
		for _, u := range c.Updates {
			if ap, ok := u.Op.(model.AppendOp); ok {
				tt := ap.T
				tuple = &tt
			}
		}
		if tuple == nil {
			t.Fatal("child without tuple insert")
		}
		if tuple.Txn != txn.Writer || tuple.Total != 3 {
			t.Errorf("tuple identity wrong: %+v", tuple)
		}
		seen[tuple.Part] = true
	}
	if len(seen) != 3 {
		t.Errorf("parts not distinct: %v", seen)
	}
}

func TestReadCoversWholeGroup(t *testing.T) {
	g := New(Config{Nodes: 4, Span: 2, ReadFraction: 1, Seed: 9})
	txn := g.Next()
	if txn.Kind != KindRead {
		t.Fatal("expected read")
	}
	if !txn.Spec.ReadOnly() {
		t.Error("read spec not read-only")
	}
	if len(txn.Spec.Root.Children) != 2 {
		t.Errorf("read children = %d, want 2", len(txn.Spec.Root.Children))
	}
	nodes := g.GroupNodes(txn.Group)
	for i, c := range txn.Spec.Root.Children {
		if c.Node != nodes[i] {
			t.Errorf("read child %d at node %v, want %v", i, c.Node, nodes[i])
		}
		if len(c.Reads) != 1 || c.Reads[0] != GroupKey(txn.Group) {
			t.Errorf("read child keys = %v", c.Reads)
		}
	}
}

func TestNonCommutingSpecMarked(t *testing.T) {
	g := New(Config{Nodes: 4, NonCommutingFraction: 1, Seed: 13})
	txn := g.Next()
	if txn.Kind != KindNonCommuting {
		t.Fatal("expected NC txn")
	}
	if !txn.Spec.NonCommuting {
		t.Error("NC spec not marked")
	}
	if err := txn.Spec.Validate(); err != nil {
		t.Errorf("NC spec invalid: %v", err)
	}
}

func TestAbortFractionRespectsGroundTruth(t *testing.T) {
	g := New(Config{Nodes: 3, AbortFraction: 1, Seed: 17})
	before := g.GroupSeq(0)
	var txn Txn
	for {
		txn = g.Next()
		if txn.Kind == KindUpdate {
			break
		}
	}
	if !txn.Aborting || !txn.Spec.Root.Abort {
		t.Fatal("abort not injected with AbortFraction=1")
	}
	if g.GroupSeq(txn.Group) != before {
		t.Error("aborted update advanced the group sequence (staleness ground truth corrupted)")
	}
}

func TestPreloadSpecsCoverAllGroups(t *testing.T) {
	g := New(Config{Nodes: 4, Groups: 10, Span: 2, Seed: 1})
	specs := g.PreloadSpecs()
	if len(specs) != 20 {
		t.Fatalf("preload specs = %d, want 20", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		seen[s.Key+"@"+s.Node.String()] = true
	}
	if len(seen) != 20 {
		t.Errorf("duplicate preload specs: %d unique", len(seen))
	}
}

func TestGroupNodesWrapAround(t *testing.T) {
	g := New(Config{Nodes: 3, Groups: 10, Span: 2, Seed: 1})
	nodes := g.GroupNodes(2) // starts at node 2, wraps to 0
	if nodes[0] != 2 || nodes[1] != 0 {
		t.Errorf("GroupNodes(2) = %v, want [2 0]", nodes)
	}
}

func TestSpanClampedToNodes(t *testing.T) {
	g := New(Config{Nodes: 2, Span: 8, Seed: 1})
	if got := len(g.GroupNodes(0)); got != 2 {
		t.Errorf("span = %d, want clamped to 2", got)
	}
}

func TestPresets(t *testing.T) {
	for name, cfg := range map[string]Config{
		"hospital": Hospital(4, 1),
		"calls":    CallRecording(4, 1),
		"pos":      PointOfSale(4, 0.05, 1),
	} {
		g := New(cfg)
		for i := 0; i < 50; i++ {
			if err := g.Next().Spec.Validate(); err != nil {
				t.Errorf("%s produced invalid spec: %v", name, err)
			}
		}
	}
}

func TestKindString(t *testing.T) {
	if KindUpdate.String() != "update" || KindRead.String() != "read" ||
		KindNonCommuting.String() != "noncommuting" || Kind(9).String() != "unknown" {
		t.Error("Kind.String values wrong")
	}
}
