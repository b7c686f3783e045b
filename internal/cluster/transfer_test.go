package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"testing"

	"crowdval/internal/wal"
)

// TestTransferRejectsMalformedBodies: the transfer endpoint accepts exactly
// one create record at an LSN above zero behind a WAL header. Every other
// body is answered with a 4xx and leaves the receiver untouched — a name it
// does not hold stays absent, a session it already holds keeps its state and
// LSN, and no ownership moves. A well-formed transfer of the same snapshot
// is accepted afterwards, so the rejections are not an artefact of the
// fixture.
func TestTransferRejectsMalformedBodies(t *testing.T) {
	nodes := startFabric(t, 2, -1)
	donor, receiver := nodes[0], nodes[1]
	ctx := context.Background()
	d := testCrowd(t, 12, 4, 7)

	const held, fresh = "held", "fresh"
	if err := donor.manager.Create(ctx, held, d.Answers.Clone(), sessionOpts()...); err != nil {
		t.Fatal(err)
	}
	snap, lsn, err := donor.manager.SnapshotWithLSN(ctx, held)
	if err != nil {
		t.Fatal(err)
	}
	// The receiver holds a copy of one session, as a follower would.
	if err := receiver.manager.ReplicaReset(ctx, held, snap, lsn); err != nil {
		t.Fatal(err)
	}
	heldSnap := managerSnapshot(t, receiver.manager, held)

	stream := func(base uint64, recs ...wal.Record) []byte {
		var buf bytes.Buffer
		app, err := wal.NewAppender(streamFile{w: &buf}, base, streamPolicy)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if _, err := app.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	create := wal.Record{Type: wal.RecCreate, Snapshot: snap}
	valid := stream(lsn-1, create)
	oldJSON, err := json.Marshal(map[string]any{"name": held, "lsn": lsn, "snapshot": snap})
	if err != nil {
		t.Fatal(err)
	}
	badCRC := append([]byte(nil), valid...)
	badCRC[len(badCRC)-1] ^= 0xff

	bodies := []struct {
		what string
		body []byte
	}{
		{"empty body", nil},
		{"old JSON body", oldJSON},
		{"truncated frame", valid[:len(valid)-3]},
		{"bad CRC", badCRC},
		// A mutation right after the held copy's LSN: applied as a stream
		// record, it would change the held session.
		{"first record not a create", stream(lsn, wal.Record{Type: wal.RecSubmit,
			Validations: []wal.Validation{{Object: 0, Label: int(d.Truth[0])}}})},
		// A header based at the largest LSN numbers its first record 0.
		{"stream at LSN 0", stream(math.MaxUint64, create)},
		{"data after the create record", append(append([]byte(nil), valid...), valid[16:]...)},
	}
	owners := map[string]string{held: receiver.node.Owner(held), fresh: receiver.node.Owner(fresh)}
	post := func(name string, body []byte) int {
		t.Helper()
		resp, err := http.Post("http://"+receiver.addr+"/internal/v1/sessions/"+name+"/transfer",
			"application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, b := range bodies {
		for _, name := range []string{held, fresh} {
			if code := post(name, b.body); code/100 != 4 {
				t.Fatalf("%s to %q: status %d, want 4xx", b.what, name, code)
			}
			if receiver.manager.Has(fresh) {
				t.Fatalf("%s to %q installed %q", b.what, name, fresh)
			}
			if got := managerSnapshot(t, receiver.manager, held); !bytes.Equal(got, heldSnap) {
				t.Fatalf("%s to %q changed the held session's state", b.what, name)
			}
			if got, err := receiver.manager.SessionLSN(held); err != nil || got != lsn {
				t.Fatalf("%s to %q: held session at LSN %d (%v), want %d", b.what, name, got, err, lsn)
			}
			if receiver.node.Stats().HandoffsIn != 0 || receiver.node.Owner(name) != owners[name] {
				t.Fatalf("%s to %q moved ownership", b.what, name)
			}
		}
	}

	if code := post(fresh, valid); code != http.StatusNoContent {
		t.Fatalf("well-formed transfer: status %d, want 204", code)
	}
	if got := managerSnapshot(t, receiver.manager, fresh); !bytes.Equal(got, snap) {
		t.Fatal("transferred session differs from the donor's snapshot")
	}
	if got, _ := receiver.manager.SessionLSN(fresh); got != lsn {
		t.Fatalf("transferred session at LSN %d, want %d", got, lsn)
	}
}
