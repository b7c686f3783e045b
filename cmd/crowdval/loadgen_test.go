package main

import (
	"bytes"
	"net"
	"net/http"
	"strings"
	"testing"

	"crowdval/internal/cluster"
	"crowdval/internal/server"
)

// TestCLILoadgenInProcess smoke-tests the loadgen subcommand against its own
// in-process server: every request must succeed and the report must include
// the throughput and the server-side coalescing counters.
func TestCLILoadgenInProcess(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"loadgen",
		"-sessions", "2", "-clients", "3", "-requests", "3", "-batch", "10",
		"-objects", "120", "-workers", "15", "-answers-per-object", "4",
		"-seed", "5"}, &out)
	if err != nil {
		t.Fatalf("loadgen: %v\n%s", err, out.String())
	}
	text := out.String()
	if !strings.Contains(text, "9 ingest ok, 0 next ok, 0 failed") {
		t.Fatalf("loadgen requests did not all succeed:\n%s", text)
	}
	if !strings.Contains(text, "answers/sec end to end") || !strings.Contains(text, "requests coalesced") {
		t.Fatalf("loadgen report incomplete:\n%s", text)
	}
	if !strings.Contains(text, "90 answers ingested") {
		t.Fatalf("server did not ingest every answer:\n%s", text)
	}
}

// TestCLILoadgenPoissonArrivals covers the Poisson arrival pattern.
func TestCLILoadgenPoissonArrivals(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"loadgen",
		"-sessions", "1", "-clients", "2", "-requests", "2", "-batch", "5",
		"-objects", "60", "-workers", "10",
		"-arrival", "poisson", "-rate", "200", "-seed", "7"}, &out)
	if err != nil {
		t.Fatalf("loadgen poisson: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "4 ingest ok, 0 next ok, 0 failed") {
		t.Fatalf("poisson loadgen failed requests:\n%s", out.String())
	}
}

// TestCLILoadgenMixedNextWorkload covers the mixed ingest+next workload:
// every other request per client is a GET /next?k= against a delta-scored
// uncertainty session, served under the read lock while ingests keep
// writing.
func TestCLILoadgenMixedNextWorkload(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"loadgen",
		"-sessions", "2", "-clients", "2", "-requests", "4", "-batch", "5",
		"-objects", "80", "-workers", "12", "-answers-per-object", "4",
		"-mix", "next", "-strategy", "uncertainty",
		"-next-k", "3", "-seed", "9"}, &out)
	if err != nil {
		t.Fatalf("loadgen mixed: %v\n%s", err, out.String())
	}
	text := out.String()
	if !strings.Contains(text, "4 ingest ok, 4 next ok, 0 failed") {
		t.Fatalf("mixed loadgen requests did not all succeed:\n%s", text)
	}
	if !strings.Contains(text, "next/sec end to end (k=3)") {
		t.Fatalf("mixed loadgen report lacks selection throughput:\n%s", text)
	}
	if !strings.Contains(text, "4 selections") {
		t.Fatalf("server did not count the selections:\n%s", text)
	}
}

// TestCLILoadgenMultiNode drives a comma-separated node list: a real 2-node
// fabric with the ownership gate installed, so any session routed to the
// wrong node would be rejected with 421 and counted as failed. All-success
// proves loadgen's rendezvous placement agrees with the fabric's.
func TestCLILoadgenMultiNode(t *testing.T) {
	addrs := make([]string, 2)
	listeners := make([]net.Listener, 2)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		addrs[i] = l.Addr().String()
	}
	for i := range addrs {
		manager, err := server.NewManager(server.ManagerConfig{ParkDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		api := server.New(manager)
		api.SetReady(true)
		node, err := cluster.NewNode(cluster.NodeConfig{Self: addrs[i], Peers: addrs, Manager: manager, Server: api})
		if err != nil {
			t.Fatal(err)
		}
		srv := &http.Server{Handler: node}
		go func(l net.Listener) { _ = srv.Serve(l) }(listeners[i])
		t.Cleanup(func() { _ = srv.Close() })
	}

	var out bytes.Buffer
	err := run([]string{"loadgen",
		"-addr", addrs[0] + "," + addrs[1],
		"-sessions", "4", "-clients", "4", "-requests", "2", "-batch", "5",
		"-objects", "60", "-workers", "10", "-seed", "11"}, &out)
	if err != nil {
		t.Fatalf("multi-node loadgen: %v\n%s", err, out.String())
	}
	text := out.String()
	if !strings.Contains(text, "8 ingest ok, 0 next ok, 0 failed") {
		t.Fatalf("multi-node loadgen requests did not all succeed:\n%s", text)
	}
	for _, a := range addrs {
		if !strings.Contains(text, "node "+a+":") {
			t.Fatalf("report lacks the per-node line for %s:\n%s", a, text)
		}
	}
	if !strings.Contains(text, "40 answers ingested") {
		t.Fatalf("fabric did not ingest every answer:\n%s", text)
	}
}

// TestCLILoadgenRejectsBadFlags covers the argument validation.
func TestCLILoadgenRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"loadgen", "-clients", "0"}, &out); err == nil {
		t.Fatal("loadgen accepted -clients 0")
	}
	if err := run([]string{"loadgen", "-arrival", "warp"}, &out); err == nil {
		t.Fatal("loadgen accepted an unknown arrival pattern")
	}
	if err := run([]string{"loadgen", "-mix", "chaos"}, &out); err == nil {
		t.Fatal("loadgen accepted an unknown mix")
	}
	if err := run([]string{"loadgen", "-next-k", "0"}, &out); err == nil {
		t.Fatal("loadgen accepted -next-k 0")
	}
}
