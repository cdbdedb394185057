package core

import (
	"testing"
	"time"

	"repro/internal/model"
)

// TestLeaseRules drives the coordinator lease with explicit clock
// values, so every rule is pinned without a sleep. Proposers n = 3,
// LeaseTimeout T = 100ms, LeaseInterval I = 25ms; every case starts
// with a lease whose holder is unknown, term 0, silent since time 0.
func TestLeaseRules(t *testing.T) {
	const T, I = 100 * time.Millisecond, 25 * time.Millisecond
	const none = noHolder
	type step struct {
		at   time.Duration // now, relative to time 0
		op   string        // "beat" (from, term) | "claim" (term = floor) | "release" | "due" (pos)
		from model.NodeID
		term uint64
		pos  int
		want bool // beat: deposed; due: due
		// The lease's holder and term after the step.
		holder model.NodeID
		sTerm  uint64
	}
	for _, tc := range []struct {
		name  string
		self  model.NodeID
		steps []step
	}{
		{"(a) positions 0, 1, 2 are due after T, T+I, T+2I of silence", 2, []step{
			{at: T, op: "due", pos: 0, want: false, holder: none},
			{at: T + 1, op: "due", pos: 0, want: true, holder: none},
			{at: T + I, op: "due", pos: 1, want: false, holder: none},
			{at: T + I + 1, op: "due", pos: 1, want: true, holder: none},
			{at: T + 2*I, op: "due", pos: 2, want: false, holder: none},
			{at: T + 2*I + 1, op: "due", pos: 2, want: true, holder: none},
		}},
		{"(b) a lower-term beat neither renews nor changes the holder", 0, []step{
			{at: 10 * time.Millisecond, op: "beat", from: 1, term: 5, holder: 1, sTerm: 5},
			{at: 50 * time.Millisecond, op: "beat", from: 2, term: 3, holder: 1, sTerm: 5},
			{at: 10*time.Millisecond + T + 1, op: "due", pos: 0, want: true, holder: 1, sTerm: 5},
		}},
		{"(c) a higher term is adopted and deposes exactly the holder", 0, []step{
			{at: 0, op: "claim", holder: 0, sTerm: 1},
			{at: 10 * time.Millisecond, op: "beat", from: 1, term: 2, want: true, holder: 1, sTerm: 2},
			{at: 20 * time.Millisecond, op: "beat", from: 2, term: 3, want: false, holder: 2, sTerm: 3},
		}},
		{"(d) the holder's beat at the current term renews; another sender's does not", 0, []step{
			{at: 0, op: "beat", from: 1, term: 2, holder: 1, sTerm: 2},
			{at: 90 * time.Millisecond, op: "beat", from: 1, term: 2, holder: 1, sTerm: 2},
			{at: 150 * time.Millisecond, op: "beat", from: 2, term: 2, holder: 1, sTerm: 2},
			{at: 90*time.Millisecond + T, op: "due", pos: 0, want: false, holder: 1, sTerm: 2},
			{at: 90*time.Millisecond + T + 1, op: "due", pos: 0, want: true, holder: 1, sTerm: 2},
		}},
		{"(e) a claim mints nextTerm above max(seen, journaled floor)", 1, []step{
			{at: 0, op: "beat", from: 2, term: 6, holder: 2, sTerm: 6},
			{at: 200 * time.Millisecond, op: "claim", term: 0, holder: 1, sTerm: 8},
			{at: 300 * time.Millisecond, op: "claim", term: 20, holder: 1, sTerm: 23},
			{at: time.Hour, op: "due", pos: 0, want: false, holder: 1, sTerm: 23},
		}},
		{"(f) after a demotion the node is not due for a full lease", 0, []step{
			{at: 0, op: "claim", holder: 0, sTerm: 1},
			{at: time.Second, op: "release", holder: none, sTerm: 1},
			{at: time.Second + T, op: "due", pos: 0, want: false, holder: none, sTerm: 1},
			{at: time.Second + T + 1, op: "due", pos: 0, want: true, holder: none, sTerm: 1},
		}},
		{"(f) stepping down keeps a successor already heard", 0, []step{
			{at: 0, op: "claim", holder: 0, sTerm: 1},
			{at: 10 * time.Millisecond, op: "beat", from: 1, term: 5, want: true, holder: 1, sTerm: 5},
			{at: 20 * time.Millisecond, op: "release", holder: 1, sTerm: 5},
			{at: 30 * time.Millisecond, op: "beat", from: 1, term: 5, holder: 1, sTerm: 5},
			{at: 30*time.Millisecond + T, op: "due", pos: 0, want: false, holder: 1, sTerm: 5},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t0 := time.Unix(1000, 0)
			l := newLease(LeaseConfig{LeaseInterval: I, LeaseTimeout: T}, tc.self, 3)
			l.last = t0
			for i, st := range tc.steps {
				now := t0.Add(st.at)
				switch st.op {
				case "beat":
					if got := l.observe(st.from, st.term, now); got != st.want {
						t.Fatalf("step %d: beat from %d at term %d: deposed = %v, want %v", i, st.from, st.term, got, st.want)
					}
				case "claim":
					if got := l.claim(st.term, now); got != st.sTerm {
						t.Fatalf("step %d: claim minted term %d, want %d", i, got, st.sTerm)
					}
				case "release":
					l.release(now)
				case "due":
					if got := l.due(st.pos, now); got != st.want {
						t.Fatalf("step %d: due(pos %d, +%v) = %v, want %v", i, st.pos, st.at, got, st.want)
					}
				}
				if holder, term := l.get(); holder != st.holder || term != st.sTerm {
					t.Fatalf("step %d (%s): lease (holder %d, term %d), want (%d, %d)", i, st.op, holder, term, st.holder, st.sTerm)
				}
			}
		})
	}

	// (e) continued: nodes that have seen the same term and journaled the
	// same floor never mint the same term, and always mint above both.
	for seen := uint64(0); seen < 30; seen++ {
		for _, floor := range []uint64{0, seen + 2} {
			minted := map[uint64]model.NodeID{}
			for id := model.NodeID(0); id < 3; id++ {
				l := newLease(LeaseConfig{}, id, 3)
				l.term = seen
				term := l.claim(floor, time.Unix(0, 0))
				if term <= max(seen, floor) {
					t.Fatalf("node %d minted %d after seen %d, floor %d", id, term, seen, floor)
				}
				if prev, dup := minted[term]; dup {
					t.Fatalf("nodes %d and %d both minted term %d (seen %d, floor %d)", prev, id, term, seen, floor)
				}
				minted[term] = id
			}
		}
	}

	// A stopped lease refuses claims.
	l := newLease(LeaseConfig{}, 0, 3)
	l.stop()
	if term := l.claim(0, time.Unix(0, 0)); term != 0 {
		t.Fatalf("stopped lease minted term %d", term)
	}
}
