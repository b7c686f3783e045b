// Command clustersmoke is the CI gate on the multi-process session fabric.
// It builds the crowdval binary, boots a real 3-node fabric plus a router as
// separate OS processes, drives a busy session through the router, SIGKILLs
// the session's leader process, promotes the WAL-tailing follower, routes
// more traffic through the failover, and finally asserts the promoted state
// is byte-identical to an in-process serial replay of exactly the
// acknowledged operations.
//
// Usage (from the repo root):
//
//	go run ./scripts/clustersmoke
//
// Exits non-zero on any divergence, lost acknowledgment, or timeout.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"crowdval"
	"crowdval/internal/cluster"
	"crowdval/internal/server"
	"crowdval/scripts/internal/smoke"
)

const sessionName = "smoke"

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "clustersmoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("clustersmoke: ok")
}

func run() error {
	work, err := os.MkdirTemp("", "crowdval-clustersmoke-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	bin := filepath.Join(work, "crowdval")
	buildCmd := exec.Command("go", "build", "-o", bin, "./cmd/crowdval")
	buildCmd.Stderr = os.Stderr
	if err := buildCmd.Run(); err != nil {
		return fmt.Errorf("building crowdval: %w", err)
	}

	addrs, err := smoke.FreeAddrs(4)
	if err != nil {
		return err
	}
	nodeAddrs, routerAddr := addrs[:3], addrs[3]
	peers := nodeAddrs[0] + "," + nodeAddrs[1] + "," + nodeAddrs[2]

	// The fabric's ownership function is deterministic, so the script can
	// compute which node will lead the smoke session and point the next
	// preferred node's follower at it before anything starts.
	ring, err := cluster.NewRing(nodeAddrs)
	if err != nil {
		return err
	}
	leader := ring.Owner(sessionName)
	follower := ""
	for _, p := range ring.Prefs(sessionName) {
		if p != leader {
			follower = p
			break
		}
	}
	fmt.Printf("clustersmoke: leader %s, follower %s, router %s\n", leader, follower, routerAddr)

	procs := make(map[string]*exec.Cmd)
	defer func() {
		for _, cmd := range procs {
			if cmd.Process != nil {
				_ = cmd.Process.Kill()
			}
			_ = cmd.Wait()
		}
	}()
	for i, addr := range nodeAddrs {
		args := []string{"serve", "-addr", addr,
			"-wal-dir", filepath.Join(work, fmt.Sprintf("wal-%d", i)),
			"-wal-sync", "always", "-peers", peers}
		if addr == follower {
			args = append(args, "-follow", leader)
		}
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("starting node %s: %w", addr, err)
		}
		procs[addr] = cmd
	}
	routeCmd := exec.Command(bin, "route", "-addr", routerAddr, "-peers", peers)
	routeCmd.Stdout, routeCmd.Stderr = os.Stdout, os.Stderr
	if err := routeCmd.Start(); err != nil {
		return fmt.Errorf("starting router: %w", err)
	}
	procs[routerAddr] = routeCmd

	client := &http.Client{Timeout: 10 * time.Second}
	for _, addr := range addrs {
		if err := smoke.WaitReady(client, addr); err != nil {
			return err
		}
	}

	// Create the session through the router and mirror every operation on an
	// in-process session: with a fixed strategy and seed the server-side
	// state is a deterministic function of the acknowledged operations, so
	// the mirror's snapshot is the ground truth the promoted follower must
	// reproduce byte for byte.
	d, err := crowdval.GenerateCrowd(crowdval.CrowdConfig{
		NumObjects: 40, NumWorkers: 8, NumLabels: 2,
		Mix:            crowdval.WorkerMix{Normal: 0.6, RandomSpammer: 0.2, UniformSpammer: 0.2},
		NormalAccuracy: 0.85,
		Seed:           17,
	})
	if err != nil {
		return err
	}
	extra, err := crowdval.GenerateCrowd(crowdval.CrowdConfig{
		NumObjects: 40, NumWorkers: 6, NumLabels: 2,
		Mix:            crowdval.WorkerMix{Normal: 1},
		NormalAccuracy: 0.85,
		Seed:           18,
	})
	if err != nil {
		return err
	}
	mirror, err := crowdval.NewSession(d.Answers,
		crowdval.WithStrategy(crowdval.StrategyBaseline),
		crowdval.WithSeed(3), crowdval.WithParallelism(1))
	if err != nil {
		return err
	}
	matrix := make([][]int, d.Answers.NumObjects())
	for o := range matrix {
		row := make([]int, d.Answers.NumWorkers())
		for w := range row {
			row[w] = int(d.Answers.Answer(o, w))
		}
		matrix[o] = row
	}
	routerURL := "http://" + routerAddr
	if err := smoke.PostJSON(client, routerURL+"/v1/sessions", server.CreateSessionRequest{
		Name:   sessionName,
		Matrix: matrix,
		Options: server.SessionConfig{
			Strategy: string(crowdval.StrategyBaseline), Seed: 3, Parallelism: 1,
		},
	}, http.StatusCreated, nil); err != nil {
		return fmt.Errorf("creating session via router: %w", err)
	}

	ingest := func(worker, from, to int) error {
		var answers []crowdval.Answer
		req := server.IngestRequest{}
		for o := from; o < to; o++ {
			if l := extra.Answers.Answer(o, worker); l >= 0 {
				answers = append(answers, crowdval.Answer{Object: o, Worker: d.Answers.NumWorkers() + worker, Label: l})
				req.Answers = append(req.Answers, server.AnswerJSON{Object: o, Worker: d.Answers.NumWorkers() + worker, Label: int(l)})
			}
		}
		if err := smoke.PostJSON(client, routerURL+"/v1/sessions/"+sessionName+"/answers", req, http.StatusOK, nil); err != nil {
			return err
		}
		// Mirror only after the fabric acknowledged.
		return mirror.AddAnswers(context.Background(), answers)
	}
	submit := func(object int) error {
		req := server.SubmitRequest{Validations: []server.ValidationJSON{{Object: object, Label: int(d.Truth[object])}}}
		if err := smoke.PostJSON(client, routerURL+"/v1/sessions/"+sessionName+"/validations", req, http.StatusOK, nil); err != nil {
			return err
		}
		_, err := mirror.SubmitValidationContext(context.Background(), object, d.Truth[object])
		return err
	}

	// Busy phase: interleaved ingests and validations while the leader lives.
	for i := 0; i < 4; i++ {
		if err := ingest(i, 2*i, 2*i+12); err != nil {
			return fmt.Errorf("pre-kill ingest %d: %w", i, err)
		}
		if err := submit(i); err != nil {
			return fmt.Errorf("pre-kill submit %d: %w", i, err)
		}
	}

	// Wait until the follower's replica of the session equals the mirror bit
	// for bit (snapshot reads are served by any node holding a copy), then
	// check the metrics endpoint reports the replication.
	preKill, err := mirror.Snapshot()
	if err != nil {
		return err
	}
	if err := waitCaughtUp(client, follower, preKill); err != nil {
		return err
	}

	fmt.Printf("clustersmoke: killing leader %s\n", leader)
	if err := procs[leader].Process.Signal(syscall.SIGKILL); err != nil {
		return fmt.Errorf("killing leader: %w", err)
	}
	_ = procs[leader].Wait()
	delete(procs, leader)

	var promoted struct {
		Promoted []string `json:"promoted"`
	}
	if err := smoke.PostJSON(client, "http://"+follower+"/internal/v1/promote",
		map[string]any{"name": sessionName}, http.StatusOK, &promoted); err != nil {
		return fmt.Errorf("promoting follower: %w", err)
	}
	if len(promoted.Promoted) != 1 || promoted.Promoted[0] != sessionName {
		return fmt.Errorf("promote returned %v, want [%s]", promoted.Promoted, sessionName)
	}

	// Post-failover phase: the router must chase the dead leader's 421s and
	// quarantines onto the promoted follower.
	for i := 0; i < 2; i++ {
		if err := ingest(4+i, 10*i, 10*i+14); err != nil {
			return fmt.Errorf("post-kill ingest %d: %w", i, err)
		}
	}
	if err := submit(5); err != nil {
		return fmt.Errorf("post-kill submit: %w", err)
	}

	// The verdict: the promoted session must equal the mirror bit for bit.
	resp, err := client.Get(routerURL + "/v1/sessions/" + sessionName + "/snapshot")
	if err != nil {
		return fmt.Errorf("fetching promoted snapshot: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("promoted snapshot: status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	want, err := mirror.Snapshot()
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("promoted session diverged from the serial replay: %d vs %d snapshot bytes", len(got), len(want))
	}
	fmt.Printf("clustersmoke: promoted state matches serial replay (%d snapshot bytes)\n", len(got))
	return nil
}

// waitCaughtUp polls the follower's local snapshot until it is byte-equal
// to want, then asserts the follower's metrics report the replication.
func waitCaughtUp(client *http.Client, follower string, want []byte) error {
	deadline := time.Now().Add(15 * time.Second)
	caughtUp := false
	for time.Now().Before(deadline) {
		resp, err := client.Get("http://" + follower + "/v1/sessions/" + sessionName + "/snapshot")
		if err == nil {
			got, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK && bytes.Equal(got, want) {
				caughtUp = true
				break
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !caughtUp {
		return fmt.Errorf("follower %s never caught up with the leader", follower)
	}
	var m server.MetricsResponse
	resp, err := client.Get("http://" + follower + "/v1/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return err
	}
	if m.Cluster == nil || m.Cluster.FollowedSessions < 1 {
		return fmt.Errorf("follower %s metrics do not report the followed session", follower)
	}
	return nil
}
