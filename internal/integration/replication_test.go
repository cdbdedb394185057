package integration

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// The two-partition placement over three processes used by both gates.
// partition.NewMap(2, 3) hashes acct0 and acct2 into partition 0
// (owners [0 1 2]) and acct1 into partition 1 (owners [1 2 0]);
// internal/partition's tests pin the hash, so the constants here are
// stable. Every process owns both partitions, so with -replicate each
// one runs /workload and serves /read locally.
const (
	replNodes = 3
	replParts = 2
)

// replCluster is the shared three-process scaffolding for the
// replication gates: build the binary, start the processes (one
// durable, crashpoint-armed), and expose helpers to drive the control
// endpoints.
type replCluster struct {
	t         *testing.T
	ctrlAddrs []string
	procs     []*exec.Cmd
	start     func(i int, extraEnv ...string) *exec.Cmd
	logOf     func(i int) string
	get       func(i int, path string, out any) error
}

// startReplCluster builds threev-node (optionally with the race
// detector) and starts a three-process replicated two-partition
// cluster. Process durableID runs with -data-dir and the given
// crashpoint armed; coordinator failover is parked at a five-minute
// lease so a killed process never moves the coordinator.
func startReplCluster(t *testing.T, race bool, durableID int, crashpoint string) *replCluster {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "threev-node")
	buildArgs := []string{"build"}
	if race {
		buildArgs = append(buildArgs, "-race")
	}
	buildArgs = append(buildArgs, "-o", bin, "repro/cmd/threev-node")
	build := exec.Command("go", buildArgs...)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building threev-node: %v\n%s", err, out)
	}

	protoAddrs, ctrlAddrs := reserveAddrs(t, replNodes)
	dataDir := filepath.Join(t.TempDir(), fmt.Sprintf("node%d", durableID))
	peers := ""
	for i, a := range protoAddrs {
		if i > 0 {
			peers += ","
		}
		peers += fmt.Sprintf("%d=%s", i, a)
	}

	var logMu sync.Mutex
	logs := make([]bytes.Buffer, replNodes)
	rc := &replCluster{t: t, ctrlAddrs: ctrlAddrs, procs: make([]*exec.Cmd, replNodes)}
	rc.logOf = func(i int) string {
		logMu.Lock()
		defer logMu.Unlock()
		return logs[i].String()
	}
	rc.start = func(i int, extraEnv ...string) *exec.Cmd {
		args := []string{
			"-id", fmt.Sprint(i),
			"-nodes", fmt.Sprint(replNodes),
			"-listen", protoAddrs[i],
			"-peers", peers,
			"-metrics", ctrlAddrs[i],
			"-partitions", fmt.Sprint(replParts),
			"-replicate",
			// Park coordinator failover so a standby takeover never
			// fences /advance mid-gate.
			"-lease-timeout", "5m",
			"-trace-sample", "0",
		}
		if i == durableID {
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

	for i := 0; i < replNodes; i++ {
		env := []string{}
		if i == durableID && crashpoint != "" {
			env = append(env, "THREEV_CRASHPOINT="+crashpoint)
		}
		rc.procs[i] = rc.start(i, env...)
	}
	t.Cleanup(func() {
		for i, p := range rc.procs {
			if p != nil && p.Process != nil {
				p.Process.Kill()
				p.Wait()
			}
			if t.Failed() {
				t.Logf("process %d output:\n%s", i, rc.logOf(i))
			}
		}
	})

	client := &http.Client{Timeout: 2 * time.Minute}
	rc.get = func(i int, path string, out any) error {
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

	for i := 0; i < replNodes; i++ {
		i := i
		waitUntil(t, fmt.Sprintf("process %d control endpoint", i), func() bool {
			return rc.get(i, "/state", nil) == nil
		})
	}
	return rc
}

// waitExit137 waits for the crashpoint kill of process i: exit code
// 137, like SIGKILL. The process slot is cleared so Cleanup skips it.
func (rc *replCluster) waitExit137(i int) {
	rc.t.Helper()
	crashed := rc.procs[i]
	rc.procs[i] = nil
	done := make(chan error, 1)
	go func() { done <- crashed.Wait() }()
	select {
	case <-done:
		if code := crashed.ProcessState.ExitCode(); code != 137 {
			rc.t.Fatalf("crashed process %d exited %d, want 137\n%s", i, code, rc.logOf(i))
		}
	case <-time.After(30 * time.Second):
		rc.t.Fatalf("process %d did not hit its crashpoint\n%s", i, rc.logOf(i))
	}
}

// readOwned reads process i's /read response: the balances of the
// accounts it serves — with -replicate, every account.
func (rc *replCluster) readOwned(i int) map[string]int64 {
	rc.t.Helper()
	var rd struct {
		Owned map[string]int64 `json:"owned"`
	}
	if err := rc.get(i, "/read", &rd); err != nil {
		rc.t.Fatalf("/read at process %d: %v", i, err)
	}
	return rd.Owned
}

// advanceRetry drives /advance at the coordinator until it succeeds:
// right after a process restart the sweep can race the transport
// reconnect, and those transient conflicts resolve on retry.
func (rc *replCluster) advanceRetry() {
	rc.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var lastErr error
	for time.Now().Before(deadline) {
		if lastErr = rc.get(0, "/advance", nil); lastErr == nil {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	rc.t.Fatalf("advancement did not complete: %v", lastErr)
}

// auditClean asserts process i reports no invariant violations and no
// convergence errors.
func (rc *replCluster) auditClean(i int) {
	rc.t.Helper()
	var st struct {
		Violations  []string `json:"violations"`
		Convergence []string `json:"convergence_errors"`
	}
	if err := rc.get(i, "/state", &st); err != nil {
		rc.t.Fatal(err)
	}
	if len(st.Violations) > 0 {
		rc.t.Errorf("process %d violations: %v", i, st.Violations)
	}
	if len(st.Convergence) > 0 {
		rc.t.Errorf("process %d convergence: %v", i, st.Convergence)
	}
}

// quitAll shuts the surviving processes down cleanly and waits for
// them. A process that refuses /quit does not stop the others' shutdown:
// its error is reported with its exit status, if it has exited, and the
// tail of its output.
func (rc *replCluster) quitAll() {
	rc.t.Helper()
	quitErr := make([]error, len(rc.procs))
	for i, p := range rc.procs {
		if p != nil {
			quitErr[i] = rc.get(i, "/quit", nil)
		}
	}
	for i, p := range rc.procs {
		if p == nil {
			continue
		}
		done := make(chan error, 1)
		go func() { done <- p.Wait() }()
		wait := 20 * time.Second
		if quitErr[i] != nil {
			wait = time.Second // it never took the request; see if it is gone
		}
		status := "still running"
		var exitErr error
		select {
		case exitErr = <-done:
			status = p.ProcessState.String()
		case <-time.After(wait):
			p.Process.Kill()
			<-done
		}
		switch {
		case quitErr[i] != nil:
			rc.t.Errorf("process %d: /quit: %v (%s)\n%s", i, quitErr[i], status, logTail(rc.logOf(i), 40))
		case status == "still running":
			rc.t.Errorf("process %d did not exit after /quit", i)
		case exitErr != nil:
			rc.t.Errorf("process %d exit: %v\n%s", i, exitErr, logTail(rc.logOf(i), 40))
		}
		rc.procs[i] = nil
	}
}

// logTail returns the last n lines of a process's output.
func logTail(out string, n int) string {
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// TestReplicaFailoverThreeProcess is the replica-group acceptance gate
// at process scale: a three-process TCP cluster with two partitions and
// replication on. A settled batch is read at every process, then
// process 1 (durable) is killed mid-traffic (exit 137, the crashpoint
// harness's stand-in for kill -9). With no promotion step and no wait,
// every acknowledged update must stay readable at the surviving owners
// and new updates must keep committing at one of them; the restarted
// process must recover from its WAL, catch up from the retransmitted
// stream, and rejoin a cluster whose advancement and convergence audits
// pass everywhere, every process serving the same balances.
func TestReplicaFailoverThreeProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test skipped in -short mode")
	}
	// Process 1 dies on its 5th locally-submitted transaction of the kill
	// batch; process 2 survives to serve and take updates.
	const victim, survivor, crashAt = 1, 2, 5
	rc := startReplCluster(t, false, victim, fmt.Sprintf("workload-submit:%d", crashAt))

	// Settle a batch from process 0: /workload waits for its handles,
	// so every one of these updates is acknowledged — and streamed to
	// the other owners. Then advance so reads see them.
	if err := rc.get(0, "/workload?txns=20", nil); err != nil {
		t.Fatalf("settled workload: %v", err)
	}
	rc.advanceRetry()

	// The settled balance of partition 1's account, the same at every
	// owner: the advancement proved each of them holds the batch.
	settled := rc.readOwned(0)["acct1"]
	if settled == 0 {
		t.Fatal("settled batch left acct1 at 0; expected replicated traffic")
	}
	for i := 1; i < replNodes; i++ {
		if got := rc.readOwned(i)["acct1"]; got != settled {
			t.Fatalf("process %d serves acct1=%d, process 0 serves %d", i, got, settled)
		}
	}

	// Kill the victim mid-traffic: its own workload trips the armed
	// crashpoint partway through, so the connection error is the
	// expected signal, with submissions in flight at the moment of
	// death.
	var wlErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wlErr = rc.get(victim, "/workload?txns=10", nil)
	}()
	rc.waitExit137(victim)
	wg.Wait()
	if wlErr == nil {
		t.Error("workload on the crashed process returned success; expected a severed connection")
	}

	// Availability: every acknowledged (settled) update is readable at
	// the surviving owners right away. Exact equality is the point — the
	// kill batch ran above the current read version, so it cannot leak
	// into this read.
	for _, i := range []int{0, survivor} {
		if got := rc.readOwned(i)["acct1"]; got != settled {
			t.Fatalf("surviving owner %d serves acct1=%d, want the settled %d", i, got, settled)
		}
	}

	// Writes keep committing at a surviving owner: 9 more transactions,
	// +3 per account, none of which need the dead process.
	if err := rc.get(survivor, "/workload?txns=9", nil); err != nil {
		t.Fatalf("workload at surviving owner %d: %v", survivor, err)
	}

	// Restart the victim from its data directory, crashpoint disarmed:
	// it must recover its WAL and catch up from the session layer's
	// retransmitted stream.
	rc.procs[victim] = rc.start(victim)
	waitUntil(t, "restarted process control endpoint", func() bool {
		return rc.get(victim, "/state", nil) == nil
	})
	if !strings.Contains(rc.logOf(victim), "state=recovered") {
		t.Errorf("restarted process did not report recovery:\n%s", rc.logOf(victim))
	}

	// A full advancement over all three processes certifies quiescence:
	// the recovered roots re-executed exactly once and every partition's
	// version pair moved together.
	rc.advanceRetry()

	// The kill batch's round-robin put acct1 in submissions 1 and 4 of
	// the five the crashpoint allowed; a journaled-but-unacknowledged
	// prefix may legitimately contribute 0..2 extra on recovery. Partition
	// 0 (acct0, acct2) likewise admits the recovered prefix. Every
	// process, the restarted one included, serves the same balances.
	owned := rc.readOwned(0)
	if got, lo, hi := owned["acct1"], settled+3, settled+3+2; got < lo || got > hi {
		t.Errorf("acct1=%d, want within [%d, %d]", got, lo, hi)
	}
	if got := owned["acct0"]; got < 10 || got > 12 {
		t.Errorf("acct0=%d, want within [10, 12]", got)
	}
	if got := owned["acct2"]; got < 9 || got > 10 {
		t.Errorf("acct2=%d, want within [9, 10]", got)
	}
	for i := 1; i < replNodes; i++ {
		if got := rc.readOwned(i); !reflect.DeepEqual(got, owned) {
			t.Errorf("process %d serves %v, process 0 serves %v", i, got, owned)
		}
	}

	for i := 0; i < replNodes; i++ {
		rc.auditClean(i)
	}
	rc.quitAll()
}

// TestReplicaBackupKillRecovery is the backup-crash half of the replica
// story, with the race detector compiled into the node binary: process
// 2 — an owner of partition 1 that only receives its updates — journals
// replica children through its WAL like any subtransaction and is
// killed (exit 137) on its 4th finished replica child of partition 1
// while traffic flows. On restart it must recover its store and pending
// commands from the WAL and take the rest from the session layer's
// retransmissions without double-applying: the recovered receive
// watermarks drop frames whose commands the WAL already holds. The
// proof is exact — with another owner killed, it serves precisely the
// acknowledged balance, and it keeps taking updates.
func TestReplicaBackupKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test skipped in -short mode")
	}
	const backup = 2
	rc := startReplCluster(t, true, backup, "repl-p1-apply:4")

	// Traffic from process 0: every transaction runs there, so the
	// workload settles in full while the backup dies mid-stream behind
	// it.
	if err := rc.get(0, "/workload?txns=20", nil); err != nil {
		t.Fatalf("workload: %v", err)
	}
	rc.waitExit137(backup)

	// Restart from the same data directory, crashpoint disarmed.
	rc.procs[backup] = rc.start(backup)
	waitUntil(t, "restarted backup control endpoint", func() bool {
		return rc.get(backup, "/state", nil) == nil
	})
	if !strings.Contains(rc.logOf(backup), "state=recovered") {
		t.Errorf("restarted backup did not report recovery:\n%s", rc.logOf(backup))
	}

	// Advance so reads see the batch, and record the acknowledged
	// balance where it ran. No catch-up wait: replica applies are counted
	// subtransactions, so a completed advancement is itself the proof
	// that every owner applied every replica child of the versions it
	// closed.
	rc.advanceRetry()
	want := rc.readOwned(0)["acct1"]
	if want == 0 {
		t.Fatal("acct1 settled at 0; expected replicated traffic")
	}
	for i := 0; i < replNodes; i++ {
		rc.auditClean(i)
	}

	// Kill process 1 outright. The backup's store is built purely from
	// replica children — recovered from its WAL plus retransmissions —
	// and must serve exactly the acknowledged balance. One child lost in
	// the crash window would read low; one double-applied retransmit
	// would read high.
	old := rc.procs[1]
	rc.procs[1] = nil
	old.Process.Kill()
	old.Wait()
	if got := rc.readOwned(backup)["acct1"]; got != want {
		t.Fatalf("backup %d serves acct1=%d, want exactly %d (lost or double-applied replicated frames)",
			backup, got, want)
	}
	// And it keeps taking updates with an owner gone.
	if err := rc.get(backup, "/workload?txns=3", nil); err != nil {
		t.Fatalf("workload at backup %d: %v", backup, err)
	}
	rc.auditClean(backup)
	rc.quitAll()
}
