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

// The two-partition placement over three processes used by both gates.
// partition.NewMap(2, 3) hashes acct0 and acct2 into partition 0
// (owners [0 1 2], primary 0) and acct1 into partition 1 (owners
// [1 2 0], primary 1); internal/partition's tests pin the hash, so the
// constants here are stable.
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

// healthView mirrors the /health fields these gates consume.
type healthView struct {
	Replicate  bool `json:"replicate"`
	Partitions []struct {
		Part          int    `json:"part"`
		Role          string `json:"role"`
		Primary       int    `json:"primary"`
		Term          uint64 `json:"term"`
		LastBeatAgeMs int64  `json:"last_beat_age_ms"`
	} `json:"partitions"`
}

// startReplCluster builds threev-node (optionally with the race
// detector) and starts a three-process replicated two-partition
// cluster. Process durableID runs with -data-dir and the given
// crashpoint armed; coordinator failover is parked at a five-minute
// lease so only the replication lease is in play.
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
			// The replication lease is the subject under test: a tight
			// heartbeat with a promotion threshold wide enough that a
			// loaded CI host cannot starve a live primary into a spurious
			// takeover.
			"-repl-lease-interval", "50ms",
			"-repl-lease-timeout", "2s",
			// Coordinator failover is not: park it so a standby takeover
			// never fences /advance mid-gate.
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

// primaryOf asks observer's /health who currently holds partition
// part's replication lease.
func (rc *replCluster) primaryOf(observer, part int) int {
	rc.t.Helper()
	var h healthView
	if err := rc.get(observer, "/health", &h); err != nil {
		rc.t.Fatalf("/health at process %d: %v", observer, err)
	}
	for _, p := range h.Partitions {
		if p.Part == part {
			return p.Primary
		}
	}
	rc.t.Fatalf("/health at process %d has no partition %d: %+v", observer, part, h)
	return -1
}

// readOwned reads process i's /read response: the balances of the
// accounts whose partitions it is current primary for.
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
// them.
func (rc *replCluster) quitAll() {
	rc.t.Helper()
	for i, p := range rc.procs {
		if p == nil {
			continue
		}
		if err := rc.get(i, "/quit", nil); err != nil {
			rc.t.Fatal(err)
		}
	}
	for i, p := range rc.procs {
		if p == nil {
			continue
		}
		done := make(chan error, 1)
		go func() { done <- p.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				rc.t.Errorf("process %d exit: %v\n%s", i, err, rc.logOf(i))
			}
		case <-time.After(20 * time.Second):
			rc.t.Errorf("process %d did not exit after /quit", i)
		}
		rc.procs[i] = nil
	}
}

// TestReplicaFailoverThreeProcess is the replica-group acceptance gate
// at process scale: a three-process TCP cluster with two partitions and
// replication on. Partition 1's placement primary (process 1, durable)
// settles a batch, then is killed mid-traffic (exit 137, the crashpoint
// harness's stand-in for kill -9). The replication lease must promote a
// surviving owner within its bounded window, every acknowledged update
// must stay readable from the promoted backup while the primary is
// gone, new updates must keep committing through it, and the restarted
// primary must recover from its WAL, catch up from the retransmitted
// stream, and rejoin a cluster whose advancement and convergence audits
// pass everywhere.
func TestReplicaFailoverThreeProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test skipped in -short mode")
	}
	// Process 1 is partition 1's placement primary; it dies on its 5th
	// locally-submitted transaction of the kill batch.
	const victim, crashAt = 1, 5
	rc := startReplCluster(t, false, victim, fmt.Sprintf("workload-submit:%d", crashAt))

	// Settle a batch from process 0: /workload waits for its handles,
	// so every one of these updates is acknowledged — and, for
	// partition 1, streamed to the backups. Then advance so reads see
	// them.
	if err := rc.get(0, "/workload?txns=20", nil); err != nil {
		t.Fatalf("settled workload: %v", err)
	}
	rc.advanceRetry()

	// The settled balance of partition 1's account, read from whichever
	// process currently holds the lease (the placement primary, absent
	// pathological starvation).
	prim := rc.primaryOf(0, 1)
	settled, ok := rc.readOwned(prim)["acct1"]
	if !ok {
		t.Fatalf("partition 1 primary %d does not serve acct1", prim)
	}
	if settled == 0 {
		t.Fatal("settled batch left acct1 at 0; expected replicated traffic")
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

	// Promotion within the lease's bounded window: a surviving owner of
	// partition 1 takes over and routing follows.
	var promoted int
	waitUntil(t, "replica promotion for partition 1", func() bool {
		promoted = rc.primaryOf(0, 1)
		return promoted != victim
	})
	if promoted != 0 && promoted != 2 {
		t.Fatalf("promoted primary %d is not a surviving owner of partition 1", promoted)
	}

	// Availability: every acknowledged (settled) update is readable
	// from the promoted backup while the placement primary is dead.
	// Exact equality is the point — the kill batch ran above the
	// current read version, so it cannot leak into this read.
	if got := rc.readOwned(promoted)["acct1"]; got != settled {
		t.Fatalf("promoted backup %d serves acct1=%d, want the settled %d", promoted, got, settled)
	}

	// Writes keep committing through the promoted primary: 9 more
	// transactions, +3 per account, none of which need the dead
	// process.
	if err := rc.get(promoted, "/workload?txns=9", nil); err != nil {
		t.Fatalf("workload through promoted primary %d: %v", promoted, err)
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
	// prefix may legitimately contribute 0..2 extra on recovery.
	cur := rc.primaryOf(0, 1)
	got := rc.readOwned(cur)["acct1"]
	lo, hi := settled+3, settled+3+2
	if got < lo || got > hi {
		t.Errorf("acct1=%d at primary %d, want within [%d, %d]", got, cur, lo, hi)
	}
	// Partition 0 (acct0, acct2) was undisturbed by the failover; its
	// window likewise admits the recovered prefix of the kill batch.
	owned0 := rc.readOwned(rc.primaryOf(0, 0))
	if got := owned0["acct0"]; got < 10 || got > 12 {
		t.Errorf("acct0=%d, want within [10, 12]", got)
	}
	if got := owned0["acct2"]; got < 9 || got > 10 {
		t.Errorf("acct2=%d, want within [9, 10]", got)
	}

	for i := 0; i < replNodes; i++ {
		rc.auditClean(i)
	}
	rc.quitAll()
}

// TestReplicaBackupKillRecovery is the backup-crash half of the replica
// story, with the race detector compiled into the node binary: process
// 2 — a backup owner of partition 1 — journals replica children
// through its WAL like any subtransaction and is killed (exit 137) on
// its 4th finished replica child of partition 1 while traffic flows. On
// restart it must recover its store and pending commands from the WAL
// and take the rest from the session layer's retransmissions without
// double-applying: the recovered receive watermarks drop frames whose
// commands the WAL already holds. The proof is exact — after the old
// primary is killed and the backup promoted, it serves precisely the
// acknowledged balance.
func TestReplicaBackupKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test skipped in -short mode")
	}
	const backup = 2
	rc := startReplCluster(t, true, backup, "repl-p1-apply:4")

	// Traffic from process 0: the transaction paths touch only
	// processes 0 and 1 (the two partition primaries), so the workload
	// settles in full while the backup dies mid-stream behind it.
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
	// balance at the current primary. No catch-up wait: replica applies
	// are counted subtransactions, so a completed advancement is itself
	// the proof that every owner applied every replica child of the
	// versions it closed.
	rc.advanceRetry()
	want := rc.readOwned(rc.primaryOf(0, 1))["acct1"]
	if want == 0 {
		t.Fatal("acct1 settled at 0; expected replicated traffic")
	}
	for i := 0; i < replNodes; i++ {
		rc.auditClean(i)
	}

	// Kill the primary outright and let the lease promote a survivor.
	// Whichever backup wins holds a store built purely from replica
	// children — for process 2, children recovered from its WAL plus
	// retransmissions — and must serve exactly the acknowledged balance.
	// One child lost in the crash window would read low; one
	// double-applied retransmit would read high.
	old := rc.procs[1]
	rc.procs[1] = nil
	old.Process.Kill()
	old.Wait()
	var promoted int
	waitUntil(t, "replica promotion after primary kill", func() bool {
		promoted = rc.primaryOf(0, 1)
		return promoted != 1
	})
	if got := rc.readOwned(promoted)["acct1"]; got != want {
		t.Fatalf("promoted backup %d serves acct1=%d, want exactly %d (lost or double-applied replicated frames)",
			promoted, got, want)
	}
	rc.auditClean(promoted)
	rc.quitAll()
}
