package integration

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestThreeProcessClusterOverTCP is the real-networking acceptance
// test: build cmd/threev-node once, spawn a three-process loopback
// cluster, drive a commuting workload from every process while every
// TCP connection is forcibly killed mid-run, run one full version
// advancement, and assert the cluster converged — each account must
// show every process's updates.
func TestThreeProcessClusterOverTCP(t *testing.T) {
	runThreeProcessCluster(t, 0)
}

// TestThreeProcessClusterOverTCPBatched runs the identical gate with
// the batched hot path on (-batch 8): batched wire frames across real
// TCP, chunked admission, batched counter sweeps, and group submit —
// additionally asserting the processes actually coalesced frames
// (observed mean batch size > 1 somewhere in the cluster).
func TestThreeProcessClusterOverTCPBatched(t *testing.T) {
	runThreeProcessCluster(t, 8)
}

func runThreeProcessCluster(t *testing.T, batch int) {
	if testing.Short() {
		t.Skip("multi-process test skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "threev-node")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/threev-node")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building threev-node: %v\n%s", err, out)
	}

	const nodes, txns = 3, 40
	protoAddrs, ctrlAddrs := reserveAddrs(t, nodes)
	peers := ""
	for i, a := range protoAddrs {
		if i > 0 {
			peers += ","
		}
		peers += fmt.Sprintf("%d=%s", i, a)
	}

	var logs [nodes]bytes.Buffer
	procs := make([]*exec.Cmd, nodes)
	for i := 0; i < nodes; i++ {
		args := []string{
			"-id", fmt.Sprint(i),
			"-nodes", fmt.Sprint(nodes),
			"-listen", protoAddrs[i],
			"-peers", peers,
			"-metrics", ctrlAddrs[i],
			"-trace-sample", "1",
			"-log-format", "json",
			// Failover is not this test's subject: a huge lease keeps the
			// killconns gap from electing a second coordinator.
			"-lease-timeout", "5m",
		}
		if batch > 0 {
			args = append(args, "-batch", fmt.Sprint(batch))
		}
		cmd := exec.Command(bin, args...)
		cmd.Stdout = &logs[i]
		cmd.Stderr = &logs[i]
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		procs[i] = cmd
		i := i
		t.Cleanup(func() {
			procs[i].Process.Kill()
			procs[i].Wait()
			if t.Failed() {
				t.Logf("process %d output:\n%s", i, logs[i].String())
			}
		})
	}

	client := &http.Client{Timeout: 2 * time.Minute}
	get := func(i int, path string, out any) error {
		resp, err := client.Get("http://" + ctrlAddrs[i] + path)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			var body bytes.Buffer
			body.ReadFrom(resp.Body)
			return fmt.Errorf("%s: %s: %s", path, resp.Status, body.String())
		}
		if out == nil {
			return nil
		}
		return json.NewDecoder(resp.Body).Decode(out)
	}

	// Wait for every control endpoint to come up.
	for i := 0; i < nodes; i++ {
		waitUntil(t, fmt.Sprintf("process %d control endpoint", i), func() bool {
			return get(i, "/state", nil) == nil
		})
	}

	// Drive the workload from all three processes concurrently; kill
	// every TCP connection once cross-process traffic is flowing, so
	// the reliable session layer has a real gap to heal.
	var wg sync.WaitGroup
	errs := make([]error, nodes)
	for i := 0; i < nodes; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = get(i, fmt.Sprintf("/workload?txns=%d", txns), nil)
		}()
	}
	waitUntil(t, "cross-process traffic", func() bool {
		var st struct {
			Messages int64 `json:"messages"`
		}
		return get(0, "/state", &st) == nil && st.Messages > 0
	})
	for i := 0; i < nodes; i++ {
		if err := get(i, "/killconns", nil); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("workload at process %d: %v", i, err)
		}
	}

	// One full advancement cycle from the coordinator process. Its
	// quiescence polls drain any cross-process subtransactions still in
	// flight, so this succeeding certifies the counters rebalanced.
	var adv struct {
		NewVR int64 `json:"new_vr"`
		NewVU int64 `json:"new_vu"`
	}
	if err := get(0, "/advance", &adv); err != nil {
		t.Fatalf("advancement: %v", err)
	}
	if adv.NewVR != 1 || adv.NewVU != 2 {
		t.Fatalf("advancement installed vr=%d vu=%d, want 1/2", adv.NewVR, adv.NewVU)
	}
	if err := get(1, "/advance", nil); err == nil {
		t.Error("advance on a non-coordinator process succeeded")
	}

	// Every account absorbed +1 per transaction from each process.
	const want = nodes * txns
	reconnects := int64(0)
	maxBatchSize := 0.0
	for i := 0; i < nodes; i++ {
		var rd struct {
			Bal     int64 `json:"bal"`
			Version int64 `json:"version"`
		}
		if err := get(i, "/read", &rd); err != nil {
			t.Fatal(err)
		}
		if rd.Bal != want {
			t.Errorf("process %d: bal %d, want %d", i, rd.Bal, want)
		}
		if rd.Version != 1 {
			t.Errorf("process %d: read version %d, want 1", i, rd.Version)
		}
		var st struct {
			VR            int64    `json:"vr"`
			VU            int64    `json:"vu"`
			Violations    []string `json:"violations"`
			Convergence   []string `json:"convergence_errors"`
			Reconnects    int64    `json:"reconnects"`
			MeanBatchSize float64  `json:"mean_batch_size"`
		}
		if err := get(i, "/state", &st); err != nil {
			t.Fatal(err)
		}
		if st.MeanBatchSize > maxBatchSize {
			maxBatchSize = st.MeanBatchSize
		}
		if st.VR != 1 || st.VU != 2 {
			t.Errorf("process %d at vr=%d vu=%d, want 1/2", i, st.VR, st.VU)
		}
		if len(st.Violations) > 0 {
			t.Errorf("process %d violations: %v", i, st.Violations)
		}
		if len(st.Convergence) > 0 {
			t.Errorf("process %d convergence: %v", i, st.Convergence)
		}
		reconnects += st.Reconnects
	}
	if reconnects == 0 {
		t.Error("no reconnects recorded despite killing every connection")
	}
	if batch > 0 && maxBatchSize <= 1 {
		t.Errorf("batched mode never coalesced: max observed mean batch size %.2f", maxBatchSize)
	}

	// Causal tracing across processes: every transaction was sampled
	// (-trace-sample 1), so each process must hold assembled traces for
	// the trees it rooted — and because every tree touches all three
	// processes, a complete trace has spans contributed by remote nodes
	// (shipped home as span reports over the same TCP links). Remote
	// reports race the handle's completion, so poll briefly.
	type traceJSON struct {
		TraceID  uint64 `json:"trace_id"`
		Complete bool   `json:"complete"`
		Spans    int    `json:"spans"`
		Orphans  int    `json:"orphans"`
		Root     *struct {
			Name   string `json:"name"`
			Stages []struct {
				Name  string `json:"name"`
				DurNS int64  `json:"dur_ns"`
			} `json:"stages"`
		} `json:"root"`
	}
	for i := 0; i < nodes; i++ {
		var full traceJSON
		waitUntil(t, fmt.Sprintf("process %d cross-process trace", i), func() bool {
			var traces []traceJSON
			if err := get(i, "/traces.json", &traces); err != nil {
				return false
			}
			// The demo tree spans all three processes: root "txn" span,
			// the root subtransaction's execution span, and one span per
			// remote child = 4 spans, none orphaned. (Skip coordinator
			// "advance" sweep traces — process 0 records those too.)
			for _, tr := range traces {
				if tr.Complete && tr.Orphans == 0 && tr.Spans >= 4 &&
					tr.Root != nil && tr.Root.Name == "txn" {
					full = tr
					return true
				}
			}
			return false
		})
		if full.Root == nil || full.Root.Name != "txn" {
			t.Fatalf("process %d: trace %+v has no txn root", i, full)
		}
		// The root span carries the stage partition; the four partition
		// stages must telescope to a positive total.
		var sum int64
		for _, st := range full.Root.Stages {
			switch st.Name {
			case "wire", "queue", "service", "ack":
				sum += st.DurNS
			}
		}
		if sum <= 0 {
			t.Errorf("process %d: trace %016x stage partition sums to %d", i, full.TraceID, sum)
		}
	}

	// Graceful shutdown: /quit, then wait for clean exits.
	for i := 0; i < nodes; i++ {
		if err := get(i, "/quit", nil); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range procs {
		done := make(chan error, 1)
		go func() { done <- p.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("process %d exit: %v\n%s", i, err, logs[i].String())
			}
		case <-time.After(20 * time.Second):
			t.Errorf("process %d did not exit after /quit", i)
		}
	}
}

// reserveAddrs picks the protocol and control addresses of n processes:
// 2n free loopback ports, all distinct. Every listener stays bound until
// the last port is picked, so one call can never hand out a port twice.
func reserveAddrs(t testing.TB, n int) (proto, ctrl []string) {
	t.Helper()
	addrs := make([]string, 2*n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		addrs[i] = l.Addr().String()
	}
	return addrs[:n], addrs[n:]
}

// TestReserveAddrsNeverRepeatsAPort pins reserveAddrs' contract: no
// call returns the same port twice across its protocol and control
// addresses.
func TestReserveAddrsNeverRepeatsAPort(t *testing.T) {
	for i := 0; i < 10000; i++ {
		proto, ctrl := reserveAddrs(t, 3)
		seen := map[string]bool{}
		for _, a := range append(proto, ctrl...) {
			if seen[a] {
				t.Fatalf("call %d returned %s twice: proto %v, ctrl %v", i, a, proto, ctrl)
			}
			seen[a] = true
		}
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
