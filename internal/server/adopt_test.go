package server

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"crowdval/internal/fault"
)

// corruptFile flips the last byte of a file — inside a checkpoint's snapshot,
// which its checksum covers.
func corruptFile(t testing.TB, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestAdoptOverStaleCheckpoints: a deleted same-name predecessor whose
// checkpoint pair survived must not leak into an adopted session's
// durability state. Right after adoption the adopted checkpoint is the only
// generation, so when it is corrupt recovery has nothing to resume and must
// fail, never fall back to the predecessor. One rotation later the adopted
// checkpoint is the fallback, and recovery over a corrupt newest checkpoint
// lands on the live state.
func TestAdoptOverStaleCheckpoints(t *testing.T) {
	d := testCrowd(t, 16, 5, 31)
	stale := testCrowd(t, 16, 5, 37)
	extra := testCrowd(t, 16, 3, 41)
	ctx := context.Background()
	const name = "reused"

	donor, err := NewManager(walManagerConfig(t, t.TempDir(), -1))
	if err != nil {
		t.Fatal(err)
	}
	if err := donor.Create(ctx, name, d.Answers.Clone(), sessionOpts()...); err != nil {
		t.Fatal(err)
	}
	ops := walScript(d, extra)
	runScript(t, donor, name, ops[:3], true)
	snap, lsn, err := donor.SnapshotWithLSN(ctx, name)
	if err != nil {
		t.Fatal(err)
	}

	// The predecessor: two checkpoint generations of a different crowd,
	// deleted, with its checkpoint pair put back as if the removal had
	// failed.
	walDir := t.TempDir()
	m, err := NewManager(walManagerConfig(t, walDir, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Create(ctx, name, stale.Answers.Clone(), sessionOpts()...); err != nil {
		t.Fatal(err)
	}
	runScript(t, m, name, walScript(stale, extra), true)
	leftovers := map[string][]byte{}
	for _, p := range []string{m.ckptPath(name), m.ckptPrevPath(name)} {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("test needs two stale checkpoint generations: %v", err)
		}
		leftovers[p] = raw
	}
	if err := m.Delete(name); err != nil {
		t.Fatal(err)
	}
	for p, raw := range leftovers {
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	if err := m.ReplicaReset(ctx, name, snap, lsn); err != nil {
		t.Fatalf("adopting over stale checkpoints: %v", err)
	}
	if _, err := os.Stat(m.ckptPrevPath(name)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("adoption left a fallback generation behind: %v", err)
	}

	// Crash right after adoption, with the adopted checkpoint corrupt.
	crashed := t.TempDir()
	for _, f := range []string{name + ".wal", name + ".ckpt"} {
		raw, err := os.ReadFile(filepath.Join(walDir, f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashed, f), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	corruptFile(t, filepath.Join(crashed, name+".ckpt"))
	if _, report := recoverInto(t, crashed, 3); len(report) != 1 || report[0].Err == nil {
		t.Fatalf("recovery resumed something although the only adopted checkpoint is corrupt: %+v", report)
	}

	// Three records trip one rotation: the adopted checkpoint is demoted to
	// the fallback generation.
	runScript(t, m, name, ops[3:6], true)
	want := managerSnapshot(t, m, name)
	corruptFile(t, m.ckptPath(name))
	rm, report := recoverInto(t, walDir, 3)
	if len(report) != 1 || report[0].Err != nil || !report[0].UsedFallback || report[0].CheckpointLSN != lsn {
		t.Fatalf("recovery report %+v, want a fallback to the adopted checkpoint at LSN %d", report, lsn)
	}
	if got := managerSnapshot(t, rm, name); !bytes.Equal(got, want) {
		t.Fatal("fallback recovery of the adopted session differs from its live state")
	}
}

// TestAdoptFailureLeavesNothing: a disk fault at any step of adoption fails
// ReplicaReset cleanly — the name is free, no file of the session remains,
// and no health gauge or degrade event moves, since no session ever existed
// — and once the fault clears the same adoption succeeds.
func TestAdoptFailureLeavesNothing(t *testing.T) {
	d := testCrowd(t, 12, 4, 43)
	ctx := context.Background()
	donor, err := NewManager(walManagerConfig(t, t.TempDir(), -1))
	if err != nil {
		t.Fatal(err)
	}
	if err := donor.Create(ctx, "donor", d.Answers.Clone(), sessionOpts()...); err != nil {
		t.Fatal(err)
	}
	snap, lsn, err := donor.SnapshotWithLSN(ctx, "donor")
	if err != nil {
		t.Fatal(err)
	}

	points := []struct {
		step string
		rule fault.Rule
	}{
		{"ckpt-write", fault.Rule{Op: fault.OpWrite, Match: ".ckpt.tmp"}},
		{"ckpt-fsync", fault.Rule{Op: fault.OpSync, Match: ".ckpt.tmp"}},
		{"ckpt-rename", fault.Rule{Op: fault.OpRename, Match: ".ckpt.tmp"}},
		{"log-create", fault.Rule{Op: fault.OpOpen, Match: ".wal.tmp"}},
		{"log-write", fault.Rule{Op: fault.OpWrite, Match: ".wal.tmp"}},
		{"log-fsync", fault.Rule{Op: fault.OpSync, Match: ".wal.tmp"}},
		{"log-rename", fault.Rule{Op: fault.OpRename, Match: ".wal.tmp"}},
		// The first .wal open is the new log's tmp file (skipped); the second
		// reopens the installed log for appending.
		{"log-reopen", fault.Rule{Op: fault.OpOpen, Match: ".wal", Skip: 1}},
	}
	const name = "adopted"
	for _, p := range points {
		t.Run(p.step, func(t *testing.T) {
			walDir := t.TempDir()
			rule := p.rule
			rule.Err = fault.ErrIO
			in := fault.NewInjector(rule)
			m, err := NewManager(faultManagerConfig(t, walDir, -1, in))
			if err != nil {
				t.Fatal(err)
			}
			if err := m.ReplicaReset(ctx, name, snap, lsn); err == nil {
				t.Fatal("adoption succeeded through an injected fault")
			}
			if in.Injected() == 0 {
				t.Fatal("the armed fault never fired")
			}
			if m.Has(name) {
				t.Fatal("a failed adoption kept the name reserved")
			}
			des, err := os.ReadDir(walDir)
			if err != nil {
				t.Fatal(err)
			}
			for _, de := range des {
				t.Errorf("a failed adoption left %s behind", de.Name())
			}
			if st := m.Stats(); st.Sessions != 0 || st.WALDegradedSessions != 0 || st.WALFailStopSessions != 0 || st.DegradeEvents != 0 {
				t.Fatalf("a failed adoption moved the health metrics: %+v", st)
			}

			in.Clear()
			if err := m.ReplicaReset(ctx, name, snap, lsn); err != nil {
				t.Fatalf("adoption after the fault cleared: %v", err)
			}
			if got := managerSnapshot(t, m, name); !bytes.Equal(got, snap) {
				t.Fatal("adopted state differs from the donor's snapshot")
			}
			if got, _ := m.SessionLSN(name); got != lsn {
				t.Fatalf("adopted at LSN %d, want %d", got, lsn)
			}
		})
	}
}
