package threev

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.snap")

	// Build state across two versions: one published epoch and one
	// pending update epoch.
	db := openTestDB(t, Config{})
	db.Preload(0, "a", map[string]int64{"bal": 0})
	db.Preload(1, "b", map[string]int64{"bal": 0})
	h, _ := db.Submit(At(0).Add("a", "bal", 5).Child(At(1).Add("b", "bal", 7)).Update())
	h.Wait()
	db.Advance() // published: a=5@v1, b=7@v1
	h2, _ := db.Submit(At(0).Add("a", "bal", 100).Update())
	h2.Wait() // pending in v2
	if err := db.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	seqBefore := db.CommittedUpdates()
	_ = seqBefore
	db.Close()

	// Reopen and verify both the published and the pending state.
	db2, err := OpenSnapshot(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if vr, vu := db2.Versions(); vr != 1 || vu != 2 {
		t.Fatalf("restored versions vr=%d vu=%d, want 1/2", vr, vu)
	}
	q, _ := db2.Submit(At(0).Read("a").Child(At(1).Read("b")).Query())
	q.Wait()
	got := map[string]int64{}
	for _, r := range q.Reads() {
		got[r.Key] = r.Record.Field("bal")
	}
	if got["a"] != 5 || got["b"] != 7 {
		t.Errorf("restored published state = %v, want a=5 b=7", got)
	}
	// The pending version-2 update becomes visible after the next
	// advancement — the restored cluster keeps operating normally.
	db2.Advance()
	q2, _ := db2.Submit(At(0).Read("a").Query())
	q2.Wait()
	if bal := q2.Reads()[0].Record.Field("bal"); bal != 105 {
		t.Errorf("restored pending state = %d, want 105", bal)
	}
	// New transactions and further advancements work.
	h3, _ := db2.Submit(At(1).Add("b", "bal", 1).Update())
	h3.Wait()
	db2.Advance()
	q3, _ := db2.Submit(At(1).Read("b").Query())
	q3.Wait()
	if bal := q3.Reads()[0].Record.Field("bal"); bal != 8 {
		t.Errorf("post-restore update = %d, want 8", bal)
	}
	if v := db2.Violations(); v != nil {
		t.Errorf("violations after restore: %v", v)
	}
}

// TestSnapshotRefusedWhileInFlight holds a multi-node update in flight
// by cutting the link its child travels on: the snapshot is refused while
// the update is pending, and accepted once the link heals and it settles.
func TestSnapshotRefusedWhileInFlight(t *testing.T) {
	db := openTestDB(t, Config{Reliable: true})
	db.Preload(0, "a", map[string]int64{"bal": 0})
	db.Preload(1, "b", map[string]int64{"bal": 0})
	db.Faults().Partition(0, 1)
	h, err := db.Submit(At(0).Add("a", "bal", 1).
		Child(At(1).Add("b", "bal", 1)).Update())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "x.snap")
	err = db.SaveSnapshot(path)
	if err == nil {
		t.Fatal("snapshot of a non-quiescent database accepted")
	}
	if !strings.Contains(err.Error(), "refused") {
		t.Errorf("error = %v, want a refusal", err)
	}
	// The session retransmits the child across the healed link.
	db.Faults().Heal()
	h.Wait()
	if err := db.SaveSnapshot(path); err != nil {
		t.Fatalf("snapshot of the settled database refused: %v", err)
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.snap")
	db := openTestDB(t, Config{})
	db.Preload(0, "a", map[string]int64{"bal": 3})
	if err := db.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}

	// Flip a byte in the middle: checksum must catch it.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	bad := filepath.Join(dir, "bad.snap")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSnapshot(bad, Config{}); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("corrupted snapshot error = %v, want checksum failure", err)
	}

	// Truncated file.
	if err := os.WriteFile(bad, raw[:2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSnapshot(bad, Config{}); err == nil {
		t.Error("truncated snapshot accepted")
	}

	// Not a snapshot at all.
	if err := os.WriteFile(bad, []byte("hello world, definitely not gob"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSnapshot(bad, Config{}); err == nil {
		t.Error("garbage file accepted")
	}

	// Missing file.
	if _, err := OpenSnapshot(filepath.Join(dir, "nope.snap"), Config{}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestSnapshotNodeCountMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.snap")
	db := openTestDB(t, Config{Nodes: 3})
	if err := db.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSnapshot(path, Config{Nodes: 5}); err == nil {
		t.Error("node-count mismatch accepted")
	}
	// Zero means "take it from the snapshot".
	db2, err := OpenSnapshot(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	db2.Close()
}
