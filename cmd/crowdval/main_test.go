package main

import (
	"bytes"
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"crowdval"
	"crowdval/internal/dataset"
)

func TestCLIEndToEnd(t *testing.T) {
	dir := t.TempDir()
	dataPath := filepath.Join(dir, "data.json")
	validatedPath := filepath.Join(dir, "validated.json")

	var out bytes.Buffer
	if err := run([]string{"generate", "-out", dataPath, "-objects", "30", "-workers", "10", "-seed", "3"}, &out); err != nil {
		t.Fatalf("generate: %v", err)
	}
	if !strings.Contains(out.String(), "30 objects") {
		t.Fatalf("generate output: %s", out.String())
	}

	out.Reset()
	if err := run([]string{"stats", "-in", dataPath}, &out); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if !strings.Contains(out.String(), "majority-vote precision") {
		t.Fatalf("stats output: %s", out.String())
	}

	out.Reset()
	if err := run([]string{"validate", "-in", dataPath, "-out", validatedPath, "-budget", "8", "-strategy", "baseline"}, &out); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if !strings.Contains(out.String(), "finished: 8 validations") {
		t.Fatalf("validate output: %s", out.String())
	}

	// -parallelism is bitwise neutral: a serial re-run prints the same
	// validation log (the first run additionally reports the -out write).
	parallelOut := out.String()
	out.Reset()
	if err := run([]string{"validate", "-in", dataPath, "-budget", "8", "-strategy", "baseline", "-parallelism", "1"}, &out); err != nil {
		t.Fatalf("validate -parallelism 1: %v", err)
	}
	if !strings.HasPrefix(parallelOut, out.String()) {
		t.Fatalf("serial validate output diverged:\n--- parallel\n%s\n--- serial\n%s", parallelOut, out.String())
	}

	out.Reset()
	if err := run([]string{"workers", "-in", validatedPath}, &out); err != nil {
		t.Fatalf("workers: %v", err)
	}
	if !strings.Contains(out.String(), "verdict") {
		t.Fatalf("workers output: %s", out.String())
	}

	out.Reset()
	if err := run([]string{"profiles"}, &out); err != nil {
		t.Fatalf("profiles: %v", err)
	}
	if !strings.Contains(out.String(), "rte") {
		t.Fatalf("profiles output: %s", out.String())
	}
}

func TestCLIGenerateProfile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bb.json")
	var out bytes.Buffer
	if err := run([]string{"generate", "-out", path, "-profile", "bb"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "108 objects") {
		t.Fatalf("profile generate output: %s", out.String())
	}
}

func TestCLIErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Fatal("missing command accepted")
	}
	if err := run([]string{"bogus"}, &out); err == nil {
		t.Fatal("unknown command accepted")
	}
	if err := run([]string{"generate"}, &out); err == nil {
		t.Fatal("generate without -out accepted")
	}
	if err := run([]string{"validate"}, &out); err == nil {
		t.Fatal("validate without -in accepted")
	}
	if err := run([]string{"validate", "-in", "does-not-exist.json"}, &out); err == nil {
		t.Fatal("missing input accepted")
	}
	if err := run([]string{"workers"}, &out); err == nil {
		t.Fatal("workers without -in accepted")
	}
	if err := run([]string{"stats"}, &out); err == nil {
		t.Fatal("stats without -in accepted")
	}
	if err := run([]string{"generate", "-out", filepath.Join(t.TempDir(), "x.json"), "-profile", "nope"}, &out); err == nil {
		t.Fatal("unknown profile accepted")
	}
	if err := run([]string{"serve", "-follow", "h:1"}, &out); err == nil {
		t.Fatal("serve accepted -follow without -peers")
	}
	if err := run([]string{"serve", "-drain"}, &out); err == nil {
		t.Fatal("serve accepted -drain without -peers")
	}
	if err := run([]string{"serve", "-peers", "h:1,h:2"}, &out); err == nil {
		t.Fatal("serve accepted -peers without -wal-dir")
	}
	if err := run([]string{"route"}, &out); err == nil {
		t.Fatal("route accepted a missing -peers")
	}
}

// TestCLIServeFabricListenError boots the full fabric wiring — manager with
// WAL, node, follower — against an already-bound address, so the command
// constructs everything, prints the fabric banner, and exits through the
// listen-error path instead of blocking on a signal.
func TestCLIServeFabricListenError(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	addr := l.Addr().String()
	var out bytes.Buffer
	err = run([]string{"serve", "-addr", addr, "-wal-dir", t.TempDir(),
		"-peers", addr + ",peer2:1", "-follow", "peer2:1", "-drain"}, &out)
	if err == nil {
		t.Fatal("serve on a bound address succeeded")
	}
	if !strings.Contains(out.String(), "fabric: node "+addr+" of 2 peers, following peer2:1") {
		t.Fatalf("serve did not report its fabric membership:\n%s", out.String())
	}
}

// TestCLIRouteListenError covers the router construction the same way.
func TestCLIRouteListenError(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var out bytes.Buffer
	err = run([]string{"route", "-addr", l.Addr().String(), "-peers", "a:1,b:1"}, &out)
	if err == nil {
		t.Fatal("route on a bound address succeeded")
	}
	if !strings.Contains(out.String(), "across 2 nodes") {
		t.Fatalf("route did not report its peer count:\n%s", out.String())
	}
}

func TestCLITimeoutReportsTypedError(t *testing.T) {
	dir := t.TempDir()
	dataPath := filepath.Join(dir, "data.json")
	var out bytes.Buffer
	if err := run([]string{"generate", "-out", dataPath, "-objects", "400", "-workers", "40", "-seed", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	// A 1ns budget cannot finish even the first validation step; the run
	// must fail with the context's deadline error, which ErrorName does not
	// rename (it is the standard library's sentinel).
	err := run([]string{"validate", "-in", dataPath, "-budget", "5", "-strategy", "baseline", "-timeout", "1ns"}, &out)
	if err == nil {
		t.Fatal("timeout ignored")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timeout error = %v, want context.DeadlineExceeded", err)
	}
}

func TestCLIResumeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	dataPath := filepath.Join(dir, "data.json")
	snapPath := filepath.Join(dir, "session.cvsn")
	var out bytes.Buffer
	if err := run([]string{"generate", "-out", dataPath, "-objects", "25", "-workers", "10", "-seed", "5"}, &out); err != nil {
		t.Fatal(err)
	}

	// Straight run to budget 10: the reference log.
	out.Reset()
	if err := run([]string{"validate", "-in", dataPath, "-budget", "10"}, &out); err != nil {
		t.Fatalf("reference validate: %v", err)
	}
	reference := out.String()

	// Same run split in two: stop at 5, snapshot, resume with budget 10.
	out.Reset()
	if err := run([]string{"validate", "-in", dataPath, "-budget", "5", "-snapshot-out", snapPath}, &out); err != nil {
		t.Fatalf("first half: %v", err)
	}
	if !strings.Contains(out.String(), "wrote session snapshot to "+snapPath) {
		t.Fatalf("snapshot not reported: %s", out.String())
	}
	out.Reset()
	if err := run([]string{"validate", "-in", dataPath, "-resume", snapPath, "-budget", "10"}, &out); err != nil {
		t.Fatalf("resumed half: %v", err)
	}
	resumed := out.String()
	if !strings.Contains(resumed, "finished: 10 validations") {
		t.Fatalf("resumed run did not reach the budget: %s", resumed)
	}
	// The resumed run's validation steps 6..10 must be exactly the reference
	// run's — the snapshot continues the hybrid session bit for bit.
	for _, line := range strings.Split(reference, "\n") {
		if strings.Contains(line, "validation   6") || strings.Contains(line, "validation   8") ||
			strings.Contains(line, "validation  10") {
			if !strings.Contains(resumed, line) {
				t.Fatalf("resumed run diverged from the straight run: missing %q in:\n%s", line, resumed)
			}
		}
	}
}

// TestCLISnapshotRewriteInPlace: -resume and -snapshot-out may name the same
// file, as in the usage line; the rewritten snapshot resumes where the run
// stopped.
func TestCLISnapshotRewriteInPlace(t *testing.T) {
	dir := t.TempDir()
	dataPath := filepath.Join(dir, "data.json")
	snapPath := filepath.Join(dir, "session.cvsn")
	var out bytes.Buffer
	if err := run([]string{"generate", "-out", dataPath, "-objects", "25", "-workers", "10", "-seed", "5"}, &out); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"validate", "-in", dataPath, "-budget", "3", "-snapshot-out", snapPath}, &out); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"validate", "-in", dataPath, "-budget", "6", "-resume", snapPath, "-snapshot-out", snapPath}, &out); err != nil {
		t.Fatalf("resume and rewrite in place: %v", err)
	}
	snap, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	s, err := crowdval.ResumeSession(snap)
	if err != nil {
		t.Fatalf("rewritten snapshot does not resume: %v", err)
	}
	if got := s.EffortSpent(); got != 6 {
		t.Fatalf("rewritten snapshot resumes at %d validations, want 6", got)
	}
	if _, err := os.Stat(snapPath + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temporary snapshot file left behind: %v", err)
	}
}

// TestCLISnapshotWriteFailureKeepsPrevious: a snapshot write that fails — here
// because its temporary path cannot be created — reports an error and leaves
// the previous snapshot byte-identical, even when the run resumed from it.
func TestCLISnapshotWriteFailureKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	dataPath := filepath.Join(dir, "data.json")
	snapPath := filepath.Join(dir, "session.cvsn")
	var out bytes.Buffer
	if err := run([]string{"generate", "-out", dataPath, "-objects", "25", "-workers", "10", "-seed", "5"}, &out); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"validate", "-in", dataPath, "-budget", "2", "-snapshot-out", snapPath}, &out); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(snapPath+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"validate", "-in", dataPath, "-budget", "4", "-resume", snapPath, "-snapshot-out", snapPath}, &out); err == nil {
		t.Fatal("snapshot write through an unwritable temporary path succeeded")
	}
	after, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatal("a failed snapshot write changed the previous snapshot")
	}
}

// TestCLIResumeMalformedSnapshotTypedError pins the contract the exit path
// relies on: a malformed snapshot passed to -resume surfaces an error whose
// ErrorName is the stable sentinel identifier, which main prints to stderr
// before exiting non-zero.
func TestCLIResumeMalformedSnapshotTypedError(t *testing.T) {
	dir := t.TempDir()
	dataPath := filepath.Join(dir, "data.json")
	var out bytes.Buffer
	if err := run([]string{"generate", "-out", dataPath, "-objects", "10", "-workers", "5"}, &out); err != nil {
		t.Fatal(err)
	}

	badPath := filepath.Join(dir, "bad.cvsn")
	if err := os.WriteFile(badPath, []byte("definitely not a session snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"validate", "-in", dataPath, "-resume", badPath}, &out)
	if err == nil {
		t.Fatal("malformed snapshot accepted")
	}
	if !errors.Is(err, crowdval.ErrBadSnapshot) {
		t.Fatalf("error = %v, want ErrBadSnapshot", err)
	}
	if name := crowdval.ErrorName(err); name != "ErrBadSnapshot" {
		t.Fatalf("ErrorName = %q, want ErrBadSnapshot", name)
	}

	// A truncated but genuine snapshot is equally typed.
	snapPath := filepath.Join(dir, "session.cvsn")
	if err := run([]string{"validate", "-in", dataPath, "-budget", "2", "-snapshot-out", snapPath}, &out); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapPath, whole[:len(whole)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"validate", "-in", dataPath, "-resume", snapPath}, &out)
	if name := crowdval.ErrorName(err); name != "ErrBadSnapshot" {
		t.Fatalf("truncated snapshot: ErrorName = %q (err %v), want ErrBadSnapshot", name, err)
	}

	// A snapshot from a different dataset is a typed dimension mismatch.
	otherData := filepath.Join(dir, "other.json")
	otherSnap := filepath.Join(dir, "other.cvsn")
	if err := run([]string{"generate", "-out", otherData, "-objects", "6", "-workers", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"validate", "-in", otherData, "-budget", "1", "-snapshot-out", otherSnap}, &out); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"validate", "-in", dataPath, "-resume", otherSnap}, &out)
	if name := crowdval.ErrorName(err); name != "ErrDimensionMismatch" {
		t.Fatalf("mismatched snapshot: ErrorName = %q (err %v), want ErrDimensionMismatch", name, err)
	}
}

func TestCLIUnknownStrategyHasTypedName(t *testing.T) {
	dir := t.TempDir()
	dataPath := filepath.Join(dir, "data.json")
	var out bytes.Buffer
	if err := run([]string{"generate", "-out", dataPath, "-objects", "10", "-workers", "5"}, &out); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"validate", "-in", dataPath, "-strategy", "bogus"}, &out)
	if err == nil {
		t.Fatal("unknown strategy accepted")
	}
	if name := crowdval.ErrorName(err); name != "ErrUnknownStrategy" {
		t.Fatalf("ErrorName = %q, want ErrUnknownStrategy", name)
	}
}

// TestCLIValidateExact: `validate -exact` runs the literal i-EM session, so
// its selections are those of a library session built with WithExact() on
// the same options, and -exact is refused together with -resume.
func TestCLIValidateExact(t *testing.T) {
	dir := t.TempDir()
	dataPath := filepath.Join(dir, "data.json")
	var out bytes.Buffer
	if err := run([]string{"generate", "-out", dataPath, "-objects", "40", "-workers", "10", "-answers-per-object", "4", "-seed", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	const budget = 8
	out.Reset()
	if err := run([]string{"validate", "-in", dataPath, "-budget", "8", "-strategy", "uncertainty", "-seed", "2", "-exact"}, &out); err != nil {
		t.Fatalf("validate -exact: %v", err)
	}
	var cli []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "validation ") {
			cli = append(cli, strings.Fields(strings.SplitN(line, "->", 2)[0])[3])
		}
	}

	file, err := dataset.Load(dataPath)
	if err != nil {
		t.Fatal(err)
	}
	selections := func(opts ...crowdval.Option) []string {
		session, err := crowdval.NewSession(file.Dataset.Answers, append([]crowdval.Option{
			crowdval.WithStrategy(crowdval.StrategyUncertainty), crowdval.WithCandidateLimit(8),
			crowdval.WithSeed(2), crowdval.WithBudget(budget)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		var objects []string
		for !session.Done() {
			object, err := session.NextObject()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := session.SubmitValidation(object, file.Dataset.Truth[object]); err != nil {
				t.Fatal(err)
			}
			objects = append(objects, strconv.Itoa(object))
		}
		return objects
	}
	lib := selections(crowdval.WithExact())
	if len(lib) != budget || strings.Join(cli, " ") != strings.Join(lib, " ") {
		t.Fatalf("validate -exact selected %v, a WithExact() library session %v", cli, lib)
	}
	// On this crowd the delta session selects differently, so the check
	// above sees whether -exact reached the session.
	if delta := selections(); strings.Join(delta, " ") == strings.Join(lib, " ") {
		t.Fatalf("delta and exact sessions both selected %v; the crowd cannot tell the modes apart", delta)
	}

	snapPath := filepath.Join(dir, "session.cvsn")
	if err := run([]string{"validate", "-in", dataPath, "-budget", "2", "-snapshot-out", snapPath}, &out); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"validate", "-in", dataPath, "-resume", snapPath, "-exact"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-exact cannot be combined with -resume") {
		t.Fatalf("validate -resume -exact: error %v, want a refusal", err)
	}
}
