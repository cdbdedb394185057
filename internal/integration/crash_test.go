package integration

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCrashRestartThreeProcess is the durability acceptance test at
// process scale: a three-process TCP cluster with one durable node
// (-data-dir). The durable node settles a batch of 20 transactions
// (completed handles — durably journaled by definition), then is
// killed mid-flight in a second batch (exit 137, the crashpoint
// harness's stand-in for kill -9) and restarted from its data
// directory. The cluster must finish a full advancement with zero
// convergence errors and every process must agree on a balance that
// includes every durably-acknowledged update: the settled batch
// survives in full; the mid-flight batch contributes only what was
// journaled before the kill (legitimately 0..settled — Submit is
// asynchronous, so an unjournaled submission is unacknowledged and
// may be lost), but all three replicas must agree exactly.
func TestCrashRestartThreeProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "threev-node")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/threev-node")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building threev-node: %v\n%s", err, out)
	}

	// The durable node settles `settled` transactions, then dies on the
	// crashAt-th cumulative submission — 10 into its second batch.
	const nodes, txns, settled, crashAt = 3, 40, 20, 30
	protoAddrs, ctrlAddrs := reserveAddrs(t, nodes)
	dataDir := filepath.Join(t.TempDir(), "node2")
	peers := ""
	for i, a := range protoAddrs {
		if i > 0 {
			peers += ","
		}
		peers += fmt.Sprintf("%d=%s", i, a)
	}

	var logMu sync.Mutex
	var logs [nodes]bytes.Buffer
	logOf := func(i int) string {
		logMu.Lock()
		defer logMu.Unlock()
		return logs[i].String()
	}
	start := func(i int, extraEnv ...string) *exec.Cmd {
		args := []string{
			"-id", fmt.Sprint(i),
			"-nodes", fmt.Sprint(nodes),
			"-listen", protoAddrs[i],
			"-peers", peers,
			"-metrics", ctrlAddrs[i],
			// Failover is not this test's subject: on a loaded single-core
			// host the coordinator's heartbeats can starve past the default
			// 200ms lease while four processes contend, and a standby
			// takeover would fence process 0's /advance with a higher term.
			"-lease-timeout", "5m",
		}
		if i == 2 {
			args = append(args, "-data-dir", dataDir, "-fsync", "always", "-checkpoint-interval", "200ms")
		}
		cmd := exec.Command(bin, args...)
		cmd.Stdout = syncWriter{mu: &logMu, buf: &logs[i]}
		cmd.Stderr = syncWriter{mu: &logMu, buf: &logs[i]}
		cmd.Env = append(os.Environ(), extraEnv...)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		return cmd
	}

	procs := make([]*exec.Cmd, nodes)
	for i := 0; i < nodes; i++ {
		env := []string{}
		if i == 2 {
			env = append(env, fmt.Sprintf("THREEV_CRASHPOINT=workload-submit:%d", crashAt))
		}
		procs[i] = start(i, env...)
	}
	t.Cleanup(func() {
		for i, p := range procs {
			if p != nil && p.Process != nil {
				p.Process.Kill()
				p.Wait()
			}
			if t.Failed() {
				t.Logf("process %d output:\n%s", i, logOf(i))
			}
		}
	})

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

	for i := 0; i < nodes; i++ {
		waitUntil(t, fmt.Sprintf("process %d control endpoint", i), func() bool {
			return get(i, "/state", nil) == nil
		})
	}
	var st0 struct {
		Durable bool `json:"durable"`
	}
	if err := get(2, "/state", &st0); err != nil || !st0.Durable {
		t.Fatalf("process 2 not durable at startup: %v %+v", err, st0)
	}

	// Settle a batch on the durable node first: /workload waits for its
	// handles, so these transactions are journaled (and their children
	// durably in the send mirrors) before it returns.
	if err := get(2, fmt.Sprintf("/workload?txns=%d", settled), nil); err != nil {
		t.Fatalf("settled workload at process 2: %v", err)
	}

	// Now drive workloads everywhere. Process 2's second batch dies
	// mid-flight when the crashpoint (armed at crashAt cumulative
	// submissions) fires — its connection error is the expected signal,
	// not a failure. The survivors' workloads include children on node
	// 2, so they block until the restarted process rejoins and drains
	// them.
	var wg sync.WaitGroup
	errs := make([]error, nodes)
	for i := 0; i < nodes; i++ {
		i := i
		n := txns
		if i == 2 {
			n = settled
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = get(i, fmt.Sprintf("/workload?txns=%d", n), nil)
		}()
	}

	// Wait for the crashpoint kill: exit code 137, like SIGKILL.
	crashed := procs[2]
	procs[2] = nil
	done := make(chan error, 1)
	go func() { done <- crashed.Wait() }()
	select {
	case <-done:
		if code := crashed.ProcessState.ExitCode(); code != 137 {
			t.Fatalf("crashed process exited %d, want 137\n%s", code, logOf(2))
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("process 2 did not hit its crashpoint\n%s", logOf(2))
	}

	// Restart from the same data directory, crashpoint disarmed.
	procs[2] = start(2)
	waitUntil(t, "restarted process control endpoint", func() bool {
		return get(2, "/state", nil) == nil
	})
	if !strings.Contains(logOf(2), "state=recovered") {
		t.Errorf("restarted process did not report recovery:\n%s", logOf(2))
	}

	wg.Wait()
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("workload at surviving process %d: %v", i, errs[i])
		}
	}
	if errs[2] == nil {
		t.Error("workload on the crashed process returned success; expected a severed connection")
	}

	// One full advancement certifies quiescence: every recovered
	// subtransaction (including the crashed node's 20 re-executed
	// roots and their cross-process children) terminated exactly once.
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

	// Every durably-acknowledged update survives: 40+40 from the
	// survivors plus the settled batch of 20. The mid-flight batch adds
	// whatever was journaled before the kill (0..10 of the submissions
	// the crashpoint allowed), and all replicas must agree exactly.
	const floor = 2*txns + settled
	const ceil = floor + (crashAt - settled)
	bals := make([]int64, nodes)
	for i := 0; i < nodes; i++ {
		var rd struct {
			Bal     int64 `json:"bal"`
			Version int64 `json:"version"`
		}
		if err := get(i, "/read", &rd); err != nil {
			t.Fatal(err)
		}
		bals[i] = rd.Bal
		if rd.Bal < floor || rd.Bal > ceil {
			t.Errorf("process %d: bal %d, want within [%d, %d]", i, rd.Bal, floor, ceil)
		}
		if rd.Bal != bals[0] {
			t.Errorf("replicas disagree: process %d bal %d, process 0 bal %d", i, rd.Bal, bals[0])
		}
		if rd.Version != 1 {
			t.Errorf("process %d: read version %d, want 1", i, rd.Version)
		}
		var st struct {
			VR          int64    `json:"vr"`
			VU          int64    `json:"vu"`
			Violations  []string `json:"violations"`
			Convergence []string `json:"convergence_errors"`
			Durable     bool     `json:"durable"`
			WALRecords  uint64   `json:"wal_records"`
		}
		if err := get(i, "/state", &st); err != nil {
			t.Fatal(err)
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
		if i == 2 && (!st.Durable || st.WALRecords == 0) {
			t.Errorf("restarted process durability state: %+v", st)
		}
	}

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
				t.Errorf("process %d exit: %v\n%s", i, err, logOf(i))
			}
		case <-time.After(20 * time.Second):
			t.Errorf("process %d did not exit after /quit", i)
		}
	}
}

// syncWriter serializes child-process output into a shared buffer so
// the test can read logs while the process is still writing.
type syncWriter struct {
	mu  *sync.Mutex
	buf *bytes.Buffer
}

func (w syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}
