package server

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"crowdval"
	"crowdval/internal/snapshot"
	"crowdval/internal/wal"
)

// TestRecoverVersion4Log: a server restarted on this code recovers the log
// an older one wrote, whose create records and checkpoints hold snapshots of
// encoding version 4 (the repository's testdata/*-session-v4.cvsn fixtures).
// Session "exact" has a v4 checkpoint covering its v4 create record and a
// tail of two mutations; session "quarantine" has only a log, its v4 create
// record and the same kind of tail. Each recovers to the state a serial
// replay of its tail on the resumed fixture reaches, and the checkpoint its
// recovery ends with holds that state as a version-5 snapshot.
func TestRecoverVersion4Log(t *testing.T) {
	ctx := context.Background()
	walDir := t.TempDir()
	want := map[string][]byte{}
	for _, c := range []struct {
		name string
		ckpt bool
	}{{"exact", true}, {"quarantine", false}} {
		v4, err := os.ReadFile(filepath.Join("..", "..", "testdata", c.name+"-session-v4.cvsn"))
		if err != nil {
			t.Fatal(err)
		}
		if v4[4] != 4 || v4[5] != 0 {
			t.Fatalf("%s fixture is not a version-4 snapshot", c.name)
		}
		// The tail: an ingest that overwrites one answer and adds another,
		// then a validation of the object a resumed session selects next.
		probe, err := crowdval.ResumeSession(v4)
		if err != nil {
			t.Fatal(err)
		}
		object, err := probe.NextObject()
		if err != nil {
			t.Fatal(err)
		}
		answers := []crowdval.Answer{{Object: object, Worker: 1, Label: 1}, {Object: 0, Worker: 2, Label: 0}}

		ref, err := crowdval.ResumeSession(v4)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.AddAnswers(ctx, answers); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.SubmitValidationContext(ctx, object, 0); err != nil {
			t.Fatal(err)
		}
		if want[c.name], err = ref.Snapshot(); err != nil {
			t.Fatal(err)
		}

		f, err := os.Create(filepath.Join(walDir, c.name+".wal"))
		if err != nil {
			t.Fatal(err)
		}
		app, err := wal.NewAppender(f, 0, wal.SyncPolicy{Mode: wal.SyncOff})
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range []wal.Record{{Type: wal.RecCreate, Snapshot: v4}, answersRecord(answers), submitRecord(object, 0)} {
			if _, err := app.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := app.Sync(); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if c.ckpt {
			var frame bytes.Buffer
			if err := wal.WriteCheckpoint(&frame, 1, v4); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(walDir, c.name+".ckpt"), frame.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	m, report := recoverInto(t, walDir, 0)
	t.Cleanup(func() { m.Close() })
	if len(report) != 2 {
		t.Fatalf("recovered %d sessions, want 2", len(report))
	}
	for _, r := range report {
		if r.Err != nil {
			t.Fatalf("%s: recovery failed: %v", r.Name, r.Err)
		}
		if wantCkpt := r.Name == "exact"; (r.CheckpointLSN == 1) != wantCkpt || r.LastLSN != 3 {
			t.Fatalf("%s: recovered from checkpoint LSN %d up to LSN %d", r.Name, r.CheckpointLSN, r.LastLSN)
		}
		got := managerSnapshot(t, m, r.Name)
		if !bytes.Equal(got, want[r.Name]) {
			t.Fatalf("%s: recovered snapshot differs from the serial replay of its log", r.Name)
		}
		lsn, ckpt, err := readCheckpointFile(m.ckptPath(r.Name))
		if err != nil {
			t.Fatal(err)
		}
		if lsn != 3 || ckpt[4] != snapshot.Version || ckpt[5] != 0 {
			t.Fatalf("%s: first checkpoint after recovery covers LSN %d in encoding version %d, want LSN 3 in version %d",
				r.Name, lsn, int(ckpt[4])|int(ckpt[5])<<8, snapshot.Version)
		}
		if !bytes.Equal(ckpt, got) {
			t.Fatalf("%s: first checkpoint after recovery does not hold the recovered state", r.Name)
		}
	}
}
