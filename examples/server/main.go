// Server: the multi-tenant HTTP serving layer.
//
// The program embeds the crowdval serving tier (internal/server, the same
// code behind `crowdval serve`) in-process and plays a client against it:
//
//  1. a SessionManager starts with a deliberately tiny memory budget, so
//     cold sessions are parked to disk as checksummed snapshot files and
//     resumed on their next touch — watch the evictions/resumes counters;
//  2. two validation campaigns are created over HTTP from dense answer
//     matrices;
//  3. crowd answers stream into one campaign while the expert works through
//     guided validation steps on both (next → validate, plus one batch);
//  4. a snapshot of a parked session is downloaded — it is read from the
//     park file and checksum-verified, without waking the session;
//  5. the metrics endpoint reports sessions resident/parked, ingest and
//     validation counts, EM iterations, evictions and resumes.
//
// Run with:
//
//	go run ./examples/server
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"

	"crowdval"
	"crowdval/internal/server"
)

func main() {
	parkDir, err := os.MkdirTemp("", "crowdval-example-park-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(parkDir)

	// A 1-byte budget parks every session that is not actively in use —
	// absurd for production, perfect for demonstrating the eviction path.
	manager, err := server.NewManager(server.ManagerConfig{
		MemoryBudget: 1,
		ParkDir:      parkDir,
	})
	if err != nil {
		log.Fatal(err)
	}
	api := httptest.NewServer(server.New(manager))
	defer api.Close()
	fmt.Printf("serving layer listening on %s (park dir %s)\n\n", api.URL, parkDir)

	// Two independent crowdsourcing campaigns.
	campaigns := map[string]*crowdval.Dataset{}
	for i, name := range []string{"birds", "sentiment"} {
		d, err := crowdval.GenerateCrowd(crowdval.CrowdConfig{
			NumObjects: 40, NumWorkers: 12, NumLabels: 2,
			Mix:            crowdval.WorkerMix{Normal: 0.7, RandomSpammer: 0.3},
			NormalAccuracy: 0.8,
			Seed:           int64(i + 1),
		})
		if err != nil {
			log.Fatal(err)
		}
		campaigns[name] = d

		matrix := make([][]int, d.Answers.NumObjects())
		for o := range matrix {
			row := make([]int, d.Answers.NumWorkers())
			for w := range row {
				row[w] = int(d.Answers.Answer(o, w))
			}
			matrix[o] = row
		}
		postJSON(api.URL+"/v1/sessions", map[string]any{
			"name": name, "matrix": matrix, "numLabels": 2,
			"options": map[string]any{"strategy": "hybrid", "budget": 10, "candidateLimit": 4, "seed": 7},
		})
		fmt.Printf("created session %q (%d objects, %d workers)\n",
			name, d.Answers.NumObjects(), d.Answers.NumWorkers())
	}

	// Stream a few late crowd answers into one campaign.
	postJSON(api.URL+"/v1/sessions/birds/answers", map[string]any{
		"answers": []map[string]int{
			{"object": 3, "worker": 2, "label": 1},
			{"object": 8, "worker": 5, "label": 0},
		},
	})
	fmt.Println("ingested 2 late answers into \"birds\"")

	// Guided validation: alternating between the campaigns keeps evicting
	// and resuming them under the tiny budget.
	for round := 0; round < 4; round++ {
		for _, name := range []string{"birds", "sentiment"} {
			d := campaigns[name]
			var next struct {
				Object int `json:"object"`
			}
			getJSON(api.URL+"/v1/sessions/"+name+"/next", &next)
			postJSON(api.URL+"/v1/sessions/"+name+"/validations", map[string]any{
				"validations": []map[string]int{{"object": next.Object, "label": int(d.Truth[next.Object])}},
			})
			fmt.Printf("round %d: %-9s expert validated object %d\n", round+1, name, next.Object)
		}
	}

	// One batch submission: the two lowest unvalidated objects of "birds".
	var result struct {
		Validated []int `json:"validated"`
		Objects   int   `json:"objects"`
	}
	getJSON(api.URL+"/v1/sessions/birds/result", &result)
	validated := map[int]bool{}
	for _, o := range result.Validated {
		validated[o] = true
	}
	var batch []map[string]int
	for o := 0; o < result.Objects && len(batch) < 2; o++ {
		if !validated[o] {
			batch = append(batch, map[string]int{"object": o, "label": int(campaigns["birds"].Truth[o])})
		}
	}
	postJSON(api.URL+"/v1/sessions/birds/validations", map[string]any{"validations": batch})
	fmt.Printf("submitted a batch of %d validations to \"birds\"\n\n", len(batch))

	// Downloading the snapshot of the now-cold "sentiment" session reads and
	// verifies its park file; the session stays parked.
	resp, err := http.Get(api.URL + "/v1/sessions/sentiment/snapshot")
	if err != nil {
		log.Fatal(err)
	}
	snap, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("downloaded \"sentiment\" snapshot: %d bytes (resumable anywhere with ResumeSession)\n\n", len(snap))

	var stats server.Stats
	getJSON(api.URL+"/v1/metrics", &stats)
	fmt.Printf("metrics: %d sessions (%d resident, %d parked)\n", stats.Sessions, stats.Resident, stats.Parked)
	fmt.Printf("         %d answers ingested, %d validations, %d guidance selections\n",
		stats.IngestedAnswers, stats.SubmittedValidations, stats.Selections)
	fmt.Printf("         %d EM iterations, %d evictions, %d resumes\n",
		stats.EMIterations, stats.Evictions, stats.Resumes)
}

func postJSON(url string, body any) {
	raw, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		msg, _ := io.ReadAll(resp.Body)
		log.Fatalf("POST %s: %s: %s", url, resp.Status, msg)
	}
	io.Copy(io.Discard, resp.Body)
}

func getJSON(url string, into any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		msg, _ := io.ReadAll(resp.Body)
		log.Fatalf("GET %s: %s: %s", url, resp.Status, msg)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		log.Fatalf("GET %s: %v", url, err)
	}
}
