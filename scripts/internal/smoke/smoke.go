// Package smoke holds the HTTP helpers the multi-process smoke commands
// (scripts/clustersmoke, scripts/chaossmoke) share: reserving loopback
// ports for child processes, waiting for a node to become ready, and
// posting JSON.
package smoke

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// FreeAddrs reserves n distinct loopback ports and releases them for the
// child processes to bind. The listen-then-close window is racy in theory;
// in a CI job that owns the machine it is not.
func FreeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners[i] = l
		addrs[i] = l.Addr().String()
	}
	for _, l := range listeners {
		_ = l.Close()
	}
	return addrs, nil
}

// WaitReady polls the node's /readyz until it answers 200, for up to 15 s.
func WaitReady(client *http.Client, addr string) error {
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Get("http://" + addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("node %s never became ready", addr)
}

// PostJSON posts body as JSON to url and fails unless the response status
// is wantStatus; a non-nil into receives the decoded response body.
func PostJSON(client *http.Client, url string, body any, wantStatus int, into any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	payload, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != wantStatus {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(payload))
	}
	if into != nil {
		return json.Unmarshal(payload, into)
	}
	return nil
}
