package ring

import (
	"math/rand"
	"testing"
)

func TestFIFOOrder(t *testing.T) {
	var r Ring[int]
	for i := 0; i < 100; i++ {
		r.Push(i)
	}
	if r.Len() != 100 {
		t.Fatalf("Len = %d, want 100", r.Len())
	}
	for i := 0; i < 100; i++ {
		v, ok := r.Pop()
		if !ok || v != i {
			t.Fatalf("Pop #%d = %d ok=%v", i, v, ok)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("Pop on empty ring reported ok")
	}
}

func TestPeek(t *testing.T) {
	var r Ring[string]
	if _, ok := r.Peek(); ok {
		t.Fatal("Peek on empty ring reported ok")
	}
	r.Push("a")
	r.Push("b")
	if v, ok := r.Peek(); !ok || v != "a" {
		t.Fatalf("Peek = %q ok=%v, want a", v, ok)
	}
	if r.Len() != 2 {
		t.Fatalf("Peek consumed an element: Len = %d", r.Len())
	}
}

func TestWrapAroundInterleaved(t *testing.T) {
	// Interleave pushes and pops so head/tail lap the buffer many times
	// without ever growing past minCap.
	var r Ring[int]
	next, expect := 0, 0
	for round := 0; round < 1000; round++ {
		for i := 0; i < 7; i++ {
			r.Push(next)
			next++
		}
		for i := 0; i < 7; i++ {
			v, ok := r.Pop()
			if !ok || v != expect {
				t.Fatalf("round %d: Pop = %d ok=%v, want %d", round, v, ok, expect)
			}
			expect++
		}
	}
	if r.Cap() > minCap {
		t.Errorf("Cap = %d after depth-7 traffic, want %d", r.Cap(), minCap)
	}
}

// TestSteadyStateCapacityBounded is the regression test for the
// slice-shift retention bug: with a bounded backlog, capacity must be
// bounded by the backlog high-water mark (rounded up to a power of
// two), no matter how many elements flow through in total.
func TestSteadyStateCapacityBounded(t *testing.T) {
	var r Ring[[]byte]
	const depth = 100 // high-water backlog
	payload := make([]byte, 1)
	for i := 0; i < 200000; i++ {
		r.Push(payload)
		if r.Len() > depth {
			t.Fatal("backlog exceeded test bound")
		}
		if i%2 == 0 || r.Len() == depth {
			r.Pop()
		}
	}
	// 128 is the next power of two above depth; anything larger means
	// capacity scaled with throughput, not backlog.
	if r.Cap() > 128 {
		t.Errorf("Cap = %d after 200k elements at backlog ≤ %d, want ≤ 128", r.Cap(), depth)
	}
}

func TestPopZeroesSlot(t *testing.T) {
	var r Ring[*int]
	x := new(int)
	r.Push(x)
	if v, ok := r.Pop(); !ok || v != x {
		t.Fatal("Pop did not return pushed pointer")
	}
	// The vacated slot must no longer reference x.
	for _, p := range r.buf {
		if p == x {
			t.Fatal("consumed slot still references the popped element")
		}
	}
}

func TestGrowPreservesOrderAcrossWrap(t *testing.T) {
	// Force a grow while head is mid-buffer so linearization must copy
	// a wrapped live region.
	var r Ring[int]
	for i := 0; i < minCap; i++ {
		r.Push(i)
	}
	for i := 0; i < minCap/2; i++ {
		r.Pop()
	}
	for i := minCap; i < 4*minCap; i++ {
		r.Push(i) // grows at least once with head != 0
	}
	expect := minCap / 2
	for {
		v, ok := r.Pop()
		if !ok {
			break
		}
		if v != expect {
			t.Fatalf("Pop = %d, want %d", v, expect)
		}
		expect++
	}
	if expect != 4*minCap {
		t.Fatalf("drained %d elements, want %d", expect-minCap/2, 4*minCap-minCap/2)
	}
}

func TestRandomizedAgainstSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var r Ring[int]
	var ref []int
	for step := 0; step < 100000; step++ {
		if rng.Intn(2) == 0 {
			v := rng.Int()
			r.Push(v)
			ref = append(ref, v)
		} else if len(ref) > 0 {
			v, ok := r.Pop()
			if !ok || v != ref[0] {
				t.Fatalf("step %d: Pop = %d ok=%v, want %d", step, v, ok, ref[0])
			}
			ref = ref[1:]
		} else if _, ok := r.Pop(); ok {
			t.Fatalf("step %d: Pop on empty reported ok", step)
		}
		if r.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", step, r.Len(), len(ref))
		}
	}
}

func TestAtIndexesFromHead(t *testing.T) {
	// Pop a few first so the live run wraps the buffer end.
	var r Ring[int]
	for i := 0; i < 12; i++ {
		r.Push(i)
	}
	for i := 0; i < 10; i++ {
		r.Pop()
	}
	for i := 12; i < 24; i++ {
		r.Push(i)
	}
	for i := 0; i < r.Len(); i++ {
		if v := *r.At(i); v != 10+i {
			t.Fatalf("At(%d) = %d, want %d", i, v, 10+i)
		}
	}
	*r.At(0) = -1
	if v, _ := r.Pop(); v != -1 {
		t.Fatalf("write through At(0) not seen by Pop: got %d", v)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("At(Len()) did not panic")
		}
	}()
	r.At(r.Len())
}
