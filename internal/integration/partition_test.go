package integration

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// partitionedState is the slice of threev-node's /state response this
// test audits: the legacy single pair, the placement map, and the
// per-partition array.
type partitionedState struct {
	VR               int64      `json:"vr"`
	VU               int64      `json:"vu"`
	NumPartitions    int        `json:"num_partitions"`
	PlacementVersion int        `json:"placement_version"`
	Placement        [][]int    `json:"placement"`
	Partitions       []partStat `json:"partitions"`
	Violations       []string   `json:"violations"`
	Convergence      []string   `json:"convergence_errors"`
}

type partStat struct {
	Part   int    `json:"part"`
	VR     int64  `json:"vr"`
	VU     int64  `json:"vu"`
	Term   uint64 `json:"term"`
	MaxLag int64  `json:"max_lag"`
}

// TestThreeProcessPartitionedCluster is the partitioned real-networking
// gate: a three-process loopback cluster running -partitions 2, the
// owner-routed workload driven from every process, then the two
// partitions advanced ONE AT A TIME via /advance?part=N — after the
// first advancement, /state on every process must show partition 0 at
// (vr=1, vu=2) while partition 1 still sits at (vr=0, vu=1), the
// end-to-end form of per-partition independence. Afterwards both
// partitions are advanced, every account must show every process's
// updates, and the per-partition convergence audit must be clean on
// every process.
func TestThreeProcessPartitionedCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "threev-node")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/threev-node")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building threev-node: %v\n%s", err, out)
	}

	const nodes, nparts, txns = 3, 2, 42
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
		cmd := exec.Command(bin,
			"-id", fmt.Sprint(i),
			"-nodes", fmt.Sprint(nodes),
			"-partitions", fmt.Sprint(nparts),
			"-listen", protoAddrs[i],
			"-peers", peers,
			"-metrics", ctrlAddrs[i],
			"-trace-sample", "0",
			"-log-format", "json",
			"-lease-timeout", "5m",
		)
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
	for i := 0; i < nodes; i++ {
		waitUntil(t, fmt.Sprintf("process %d control endpoint", i), func() bool {
			return get(i, "/state", nil) == nil
		})
	}

	// The placement map must be identical (same version, same owners) on
	// every process — it is derived deterministically from (P, nodes).
	var ref partitionedState
	if err := get(0, "/state", &ref); err != nil {
		t.Fatal(err)
	}
	if ref.NumPartitions != nparts || len(ref.Placement) != nparts || len(ref.Partitions) != nparts {
		t.Fatalf("process 0 placement shape: %+v", ref)
	}
	for i := 1; i < nodes; i++ {
		var st partitionedState
		if err := get(i, "/state", &st); err != nil {
			t.Fatal(err)
		}
		if st.PlacementVersion != ref.PlacementVersion || fmt.Sprint(st.Placement) != fmt.Sprint(ref.Placement) {
			t.Fatalf("placement map disagrees: process 0 %v v%d, process %d %v v%d",
				ref.Placement, ref.PlacementVersion, i, st.Placement, st.PlacementVersion)
		}
	}

	// Owner-routed workload from every process concurrently.
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
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("workload at process %d: %v", i, err)
		}
	}

	// Advance ONLY partition 0. Every process must then see partition 0
	// at (1, 2) while partition 1 still sits at its initial (0, 1).
	var adv struct {
		Part  int   `json:"part"`
		NewVR int64 `json:"new_vr"`
		NewVU int64 `json:"new_vu"`
	}
	if err := get(0, "/advance?part=0", &adv); err != nil {
		t.Fatalf("advance partition 0: %v", err)
	}
	if adv.Part != 0 || adv.NewVR != 1 || adv.NewVU != 2 {
		t.Fatalf("partition 0 advancement installed %+v, want part 0 at vr=1 vu=2", adv)
	}
	for i := 0; i < nodes; i++ {
		var st partitionedState
		if err := get(i, "/state", &st); err != nil {
			t.Fatal(err)
		}
		if len(st.Partitions) != nparts {
			t.Fatalf("process %d reports %d partitions", i, len(st.Partitions))
		}
		p0, p1 := st.Partitions[0], st.Partitions[1]
		if p0.VR != 1 || p0.VU != 2 {
			t.Errorf("process %d: partition 0 at (vr=%d, vu=%d), want (1, 2)", i, p0.VR, p0.VU)
		}
		if p1.VR != 0 || p1.VU != 1 {
			t.Errorf("process %d: partition 1 moved to (vr=%d, vu=%d) without being advanced", i, p1.VR, p1.VU)
		}
		// The legacy single pair tracks partition 0.
		if st.VR != p0.VR || st.VU != p0.VU {
			t.Errorf("process %d: legacy pair (%d, %d) diverged from partition 0 (%d, %d)",
				i, st.VR, st.VU, p0.VR, p0.VU)
		}
	}
	if err := get(1, "/advance?part=0", nil); err == nil {
		t.Error("advance on a non-coordinator process succeeded")
	}

	// Now bring partition 1 level and audit convergence everywhere.
	if err := get(0, "/advance?part=1", &adv); err != nil {
		t.Fatalf("advance partition 1: %v", err)
	}
	if adv.Part != 1 || adv.NewVR != 1 {
		t.Fatalf("partition 1 advancement installed %+v, want part 1 at vr=1", adv)
	}

	// Owner routing means account records materialize only at their
	// partition's primary: /read on each process returns the accounts it
	// owns, and the union across processes must cover every account
	// exactly once, each holding one +1 per update aimed at it — every
	// process submitted txns/nodes updates per account.
	const want = txns // nodes processes x txns/nodes updates per account
	seen := map[string]int{}
	for i := 0; i < nodes; i++ {
		var rd struct {
			Owned   map[string]int64 `json:"owned"`
			Version int64            `json:"version"`
		}
		if err := get(i, "/read", &rd); err != nil {
			t.Fatal(err)
		}
		for key, bal := range rd.Owned {
			seen[key]++
			if bal != want {
				t.Errorf("process %d: %s bal %d, want %d", i, key, bal, want)
			}
		}
		if len(rd.Owned) > 0 && rd.Version != 1 {
			t.Errorf("process %d: read version %d, want 1", i, rd.Version)
		}
		var st partitionedState
		if err := get(i, "/state", &st); err != nil {
			t.Fatal(err)
		}
		for _, p := range st.Partitions {
			if p.VR != 1 || p.VU != 2 {
				t.Errorf("process %d: partition %d at (vr=%d, vu=%d), want (1, 2)", i, p.Part, p.VR, p.VU)
			}
		}
		if len(st.Violations) > 0 {
			t.Errorf("process %d violations: %v", i, st.Violations)
		}
		if len(st.Convergence) > 0 {
			t.Errorf("process %d convergence: %v", i, st.Convergence)
		}
	}
	for j := 0; j < nodes; j++ {
		key := fmt.Sprintf("acct%d", j)
		if seen[key] != 1 {
			t.Errorf("account %s owned by %d processes, want exactly 1", key, seen[key])
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
				t.Errorf("process %d exit: %v\n%s", i, err, logs[i].String())
			}
		case <-time.After(20 * time.Second):
			t.Errorf("process %d did not exit after /quit", i)
		}
	}
}
