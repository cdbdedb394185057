package tcpnet

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/transport/reliable"
)

// newTestCluster builds k tcpnet Nets in one process, endpoint i
// hosted by net i, all on loopback listeners. Returns the nets; the
// caller registers handlers and Starts them.
func newTestCluster(t *testing.T, k int) []*Net {
	t.Helper()
	listeners := make([]net.Listener, k)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
	}
	nets := make([]*Net, k)
	for i := range nets {
		peers := make(map[model.NodeID]string)
		for j, l := range listeners {
			if j != i {
				peers[model.NodeID(j)] = l.Addr().String()
			}
		}
		n, err := New(Config{
			Local:        []model.NodeID{model.NodeID(i)},
			Peers:        peers,
			Listener:     listeners[i],
			ReconnectMin: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		nets[i] = n
		t.Cleanup(n.Close)
	}
	return nets
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestCrossProcessDelivery(t *testing.T) {
	const k, per = 3, 100
	nets := newTestCluster(t, k)
	var got [k]atomic.Int64
	var sum [k]atomic.Int64
	for i, n := range nets {
		i := i
		n.Register(model.NodeID(i), func(m transport.Message) {
			p, ok := m.Payload.(core.GCMsg)
			if !ok {
				t.Errorf("endpoint %d: unexpected payload %T", i, m.Payload)
				return
			}
			got[i].Add(1)
			sum[i].Add(int64(p.Keep))
		})
		n.Start()
	}
	want := int64(0)
	for v := 1; v <= per; v++ {
		want += int64(v)
	}
	for from, n := range nets {
		for to := 0; to < k; to++ {
			if to == from {
				continue
			}
			for v := 1; v <= per; v++ {
				n.Send(transport.Message{From: model.NodeID(from), To: model.NodeID(to), Payload: core.GCMsg{Keep: model.Version(v)}})
			}
		}
	}
	for i := 0; i < k; i++ {
		i := i
		waitFor(t, fmt.Sprintf("endpoint %d to receive %d messages", i, (k-1)*per), func() bool {
			return got[i].Load() == int64((k-1)*per)
		})
		if s := sum[i].Load(); s != int64(k-1)*want {
			t.Errorf("endpoint %d: payload sum %d, want %d", i, s, int64(k-1)*want)
		}
	}
	st := nets[0].Stats()
	if st.Messages != int64((k-1)*per) {
		t.Errorf("net 0 counted %d sends, want %d", st.Messages, (k-1)*per)
	}
	if st.ByType["gc"] != int64((k-1)*per) {
		t.Errorf("net 0 ByType[gc] = %d, want %d (stable registered name)", st.ByType["gc"], (k-1)*per)
	}
	if st.BytesSent == 0 || st.FramesSent == 0 {
		t.Errorf("net 0 reported no wire traffic: %+v", st)
	}
	if st.FramesReceived == 0 || st.BytesReceived == 0 {
		t.Errorf("net 0 reported no inbound traffic: %+v", st)
	}
}

// TestLoopbackBypass checks self-sends skip the codec entirely: an
// unregistered payload type (which the wire codec would reject) is
// delivered fine, and no frames are counted.
func TestLoopbackBypass(t *testing.T) {
	type unencodable struct{ v int }
	nets := newTestCluster(t, 1)
	var got atomic.Int64
	nets[0].Register(0, func(m transport.Message) {
		if p, ok := m.Payload.(unencodable); ok && p.v == 7 {
			got.Add(1)
		}
	})
	nets[0].Start()
	nets[0].Send(transport.Message{From: 0, To: 0, Payload: unencodable{v: 7}})
	waitFor(t, "loopback delivery", func() bool { return got.Load() == 1 })
	if st := nets[0].Stats(); st.FramesSent != 0 || st.BytesSent != 0 {
		t.Errorf("loopback send crossed the wire: %+v", st)
	}
}

// TestReliableHealsKilledConnections is the acceptance-criteria check
// at unit scale: reliable.Wrap composed over tcpnet delivers every
// message exactly once even when every live connection is forcibly
// killed mid-run.
func TestReliableHealsKilledConnections(t *testing.T) {
	const total = 400
	nets := newTestCluster(t, 2)
	sessions := make([]*reliable.Session, 2)
	for i, n := range nets {
		sessions[i] = reliable.Wrap(n, 2, reliable.Config{
			RetransmitInterval: 5 * time.Millisecond,
			MaxBackoff:         50 * time.Millisecond,
		})
	}
	var mu sync.Mutex
	seen := make(map[model.Version]int)
	sessions[1].Register(1, func(m transport.Message) {
		p, ok := m.Payload.(core.GCMsg)
		if !ok {
			t.Errorf("unexpected payload %T", m.Payload)
			return
		}
		mu.Lock()
		seen[p.Keep]++
		mu.Unlock()
	})
	sessions[0].Register(0, func(transport.Message) {})
	for _, s := range sessions {
		s.Start()
		defer s.Close()
	}
	for v := 1; v <= total; v++ {
		sessions[0].Send(transport.Message{From: 0, To: 1, Payload: core.GCMsg{Keep: model.Version(v)}})
		if v == total/4 || v == total/2 {
			nets[0].KillConnections()
			nets[1].KillConnections()
		}
		if v%50 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	waitFor(t, "all messages delivered", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(seen) == total
	})
	mu.Lock()
	for v, c := range seen {
		if c != 1 {
			t.Errorf("message %d delivered %d times, want exactly once", v, c)
		}
	}
	mu.Unlock()
	if r := nets[0].Stats().Reconnects; r < 1 {
		t.Errorf("expected at least one reconnect after KillConnections, got %d", r)
	}
	waitFor(t, "session to settle", func() bool { return sessions[0].InFlight() == 0 })
}

// TestPeerRestartRedial is the crash-restart regression at transport
// scale: when the remote process dies and a new one comes back on the
// SAME address, the reconnecting link must redial it and delivery must
// resume. It also pins the reconnect-counting semantics: one successful
// re-dial is one reconnect event, no matter how many backoff attempts
// the downtime cost.
func TestPeerRestartRedial(t *testing.T) {
	lb, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrB := lb.Addr().String()
	la, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	newB := func(l net.Listener) (*Net, *atomic.Int64) {
		nb, err := New(Config{
			Local:        []model.NodeID{1},
			Peers:        map[model.NodeID]string{0: la.Addr().String()},
			Listener:     l,
			ReconnectMin: 2 * time.Millisecond,
			ReconnectMax: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		var got atomic.Int64
		nb.Register(1, func(m transport.Message) { got.Add(1) })
		nb.Start()
		return nb, &got
	}
	na, err := New(Config{
		Local:        []model.NodeID{0},
		Peers:        map[model.NodeID]string{1: addrB},
		Listener:     la,
		ReconnectMin: 2 * time.Millisecond,
		ReconnectMax: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	na.Register(0, func(transport.Message) {})
	na.Start()
	defer na.Close()

	b1, got1 := newB(lb)
	na.Send(transport.Message{From: 0, To: 1, Payload: core.GCMsg{Keep: 1}})
	waitFor(t, "delivery to first incarnation", func() bool { return got1.Load() == 1 })

	// Kill the remote process. Sends during the outage push the link
	// through the write-failure -> dial-backoff path.
	b1.Close()
	na.Send(transport.Message{From: 0, To: 1, Payload: core.GCMsg{Keep: 2}})
	time.Sleep(10 * time.Millisecond)

	// Restart on the same address.
	lb2, err := net.Listen("tcp", addrB)
	if err != nil {
		t.Fatalf("rebind %s: %v", addrB, err)
	}
	b2, got2 := newB(lb2)
	defer b2.Close()

	// Raw tcpnet may lose frames written into the dying socket; keep
	// sending until the new incarnation hears us (the reliable layer's
	// job in production).
	waitFor(t, "delivery to restarted incarnation", func() bool {
		na.Send(transport.Message{From: 0, To: 1, Payload: core.GCMsg{Keep: 3}})
		return got2.Load() > 0
	})
	if r := na.Stats().Reconnects; r != 1 {
		t.Errorf("reconnects = %d, want exactly 1 (one successful re-dial, not one per attempt)", r)
	}
}

// TestCloseInterruptsDialBackoff: a Net shutting down while a writer is
// mid-backoff against a dead peer must not stall for the backoff
// duration — link.close() interrupts the sleep.
func TestCloseInterruptsDialBackoff(t *testing.T) {
	// Reserve an address nobody listens on.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := l.Addr().String()
	l.Close()
	la, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	na, err := New(Config{
		Local:        []model.NodeID{0},
		Peers:        map[model.NodeID]string{1: deadAddr},
		Listener:     la,
		ReconnectMin: 2 * time.Second,
		ReconnectMax: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	na.Register(0, func(transport.Message) {})
	na.Start()
	na.Send(transport.Message{From: 0, To: 1, Payload: core.GCMsg{Keep: 1}})
	time.Sleep(50 * time.Millisecond) // let the writer fail its dial and enter the 2s backoff
	start := time.Now()
	na.Close()
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Errorf("Close stalled %v behind dial backoff; want prompt return", d)
	}
}

// TestBatchFramesCoalesceAndRoute runs BatchFrames mode against a
// process hosting two endpoints on one address: the writer must encode
// runs of queued messages as single version-3 frames (fewer frames
// than messages, batch-size histogram populated), and the reader must
// route each member by its own To — in per-destination send order.
func TestBatchFramesCoalesceAndRoute(t *testing.T) {
	la, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lb, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	na, err := New(Config{
		Local:       []model.NodeID{0},
		Peers:       map[model.NodeID]string{1: lb.Addr().String(), 2: lb.Addr().String()},
		Listener:    la,
		BatchFrames: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	nb, err := New(Config{
		Local:       []model.NodeID{1, 2},
		Peers:       map[model.NodeID]string{0: la.Addr().String()},
		Listener:    lb,
		BatchFrames: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(na.Close)
	t.Cleanup(nb.Close)

	reg := obs.New(obs.Options{})
	na.SetObs(reg)
	var mu sync.Mutex
	got := map[model.NodeID][]model.Version{}
	record := func(id model.NodeID) transport.Handler {
		return func(m transport.Message) {
			if _, isBatch := m.Payload.(transport.BatchMsg); isBatch {
				t.Error("handler saw a BatchMsg envelope")
				return
			}
			mu.Lock()
			got[id] = append(got[id], m.Payload.(core.GCMsg).Keep)
			mu.Unlock()
		}
	}
	na.Register(0, func(transport.Message) {})
	nb.Register(1, record(1))
	nb.Register(2, record(2))
	na.Start()
	nb.Start()

	const perDest = 1000
	for v := 1; v <= perDest; v++ {
		na.Send(transport.Message{From: 0, To: 1, Payload: core.GCMsg{Keep: model.Version(v)}})
		na.Send(transport.Message{From: 0, To: 2, Payload: core.GCMsg{Keep: model.Version(v)}})
	}
	waitFor(t, "all batched deliveries", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got[1]) == perDest && len(got[2]) == perDest
	})
	mu.Lock()
	defer mu.Unlock()
	for _, id := range []model.NodeID{1, 2} {
		for i, v := range got[id] {
			if v != model.Version(i+1) {
				t.Fatalf("endpoint %d delivery %d = %d, want %d (order violated)", id, i, v, i+1)
			}
		}
	}
	st := na.Stats()
	if st.FramesSent >= 2*perDest {
		t.Errorf("FramesSent = %d for %d messages: nothing coalesced", st.FramesSent, 2*perDest)
	}
	if st.Flushes == 0 {
		t.Error("BatchFrames mode recorded no flushes")
	}
	if bs := reg.Snapshot().BatchSize; bs.Count == 0 || bs.Mean() <= 1 {
		t.Errorf("batch-size histogram count=%d mean=%.2f; want populated with mean > 1", bs.Count, bs.Mean())
	}
}

// TestScrapeUnderLoad hammers Stats() and the obs snapshot while
// senders and KillConnections run concurrently — the -race exercise
// for the accounting paths.
func TestScrapeUnderLoad(t *testing.T) {
	nets := newTestCluster(t, 2)
	reg := obs.New(obs.Options{})
	for i, n := range nets {
		i := i
		n.SetObs(reg)
		n.Register(model.NodeID(i), func(transport.Message) {})
		n.Start()
	}
	const total = 5000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := 1; v <= total; v++ {
			nets[0].Send(transport.Message{From: 0, To: 1, Payload: core.GCMsg{Keep: model.Version(v)}})
			nets[1].Send(transport.Message{From: 1, To: 0, Payload: core.GCMsg{Keep: model.Version(v)}})
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			nets[0].KillConnections()
			time.Sleep(time.Millisecond)
		}
	}()
	for i := 0; i < 200; i++ {
		_ = nets[0].Stats()
		_ = nets[1].Stats()
		_ = reg.Snapshot()
	}
	wg.Wait()
	waitFor(t, "wire encode observations", func() bool { return reg.Snapshot().WireEncode.Count > 0 })
	if reg.Snapshot().WireDecode.Count == 0 {
		t.Error("no wire decode latency observed")
	}
}
