package main

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestRunServesAndDrains drives the daemon as README's quick start
// does: run listens on a loopback port with a disk cache, answers one
// spec twice (a miss, then a hit with the same bytes), and returns nil
// once SIGTERM has drained it.
func TestRunServesAndDrains(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	*addrFlag = l.Addr().String()
	l.Close()
	*cacheFlag = t.TempDir()
	done := make(chan error, 1)
	go func() { done <- run() }()

	// run installs its signal handler before it listens, so once
	// /healthz answers, SIGTERM reaches run and not the test binary.
	base := "http://" + *addrFlag
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("powersimd did not come up on %s: %v", *addrFlag, err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	const spec = `{"v":1,"seed":6,"scheme":"powertcp","topo":{"kind":"fattree","servers_per_tor":2},"traffic":[{"kind":"permutation"}],"horizon_us":1000}`
	var first []byte
	for _, want := range []string{"miss", "hit"} {
		resp, err := http.Post(base+"/v1/run", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /v1/run: %s: %s", resp.Status, body)
		}
		if got := resp.Header.Get("X-Powersim-Cache"); got != want {
			t.Fatalf("X-Powersim-Cache = %q, want %q", got, want)
		}
		if first == nil {
			first = body
		} else if !bytes.Equal(body, first) {
			t.Fatalf("cache hit returned other bytes than the run:\n%s\n%s", body, first)
		}
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after SIGTERM")
	}
}
