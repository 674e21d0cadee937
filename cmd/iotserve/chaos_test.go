package main

// Signal-driven chaos tests for the full serving lifecycle: SIGHUP hot
// reload under concurrent load, a corrupt-dataset reload that must keep
// the old snapshot serving, and SIGTERM draining in-flight requests to a
// clean (nil-error) exit. The tests send real signals to the test
// process; run() registers its handlers before publishing the bound
// address, so no signal can reach the default handler.

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"iotscope/internal/core"
	"iotscope/internal/flowtuple"
)

const chaosToken = "chaos-token"

var (
	fixtureOnce sync.Once
	fixtureDir  string
	fixtureErr  error
)

// fixture generates one small dataset shared by the chaos tests (which
// only ever read it; the corruption test works on a copy).
func fixture(t *testing.T) string {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureDir, fixtureErr = os.MkdirTemp("", "iotserve-chaos-*")
		if fixtureErr != nil {
			return
		}
		cfg := core.DefaultConfig(0.002, 11)
		cfg.Hours = 4
		_, fixtureErr = core.Generate(cfg, fixtureDir)
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureDir
}

// startServer runs iotserve in a goroutine and returns its base URL plus
// the channel run's error will arrive on.
func startServer(t *testing.T, extraArgs ...string) (string, <-chan error) {
	t.Helper()
	ready := make(chan string, 1)
	testReady = ready
	t.Cleanup(func() { testReady = nil })
	args := append([]string{
		"-data", extraArgs[0], "-token", chaosToken, "-addr", "127.0.0.1:0",
	}, extraArgs[1:]...)
	done := make(chan error, 1)
	go func() { done <- run(args) }()
	select {
	case addr := <-ready:
		return "http://" + addr, done
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
		return "", nil
	}
}

func getJSON(t *testing.T, url, token string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("GET %s: bad JSON %q", url, raw)
	}
	return resp.StatusCode, body
}

// generation polls /healthz for the served snapshot generation.
func generation(t *testing.T, base string) uint64 {
	t.Helper()
	_, body := getJSON(t, base+"/healthz", "")
	snap, ok := body["snapshot"].(map[string]any)
	if !ok {
		t.Fatalf("healthz without snapshot block: %v", body)
	}
	return uint64(snap["generation"].(float64))
}

// shutdown sends SIGTERM and requires a clean nil exit from run.
func shutdown(t *testing.T, done <-chan error) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v, want nil after SIGTERM", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not exit after SIGTERM")
	}
}

// TestChaosSIGHUPReloadUnderLoad fires 50 concurrent clients at the API,
// hot-reloads via SIGHUP mid-flight, and requires zero 5xx responses and
// an advanced snapshot generation, then drains cleanly on SIGTERM.
func TestChaosSIGHUPReloadUnderLoad(t *testing.T) {
	base, done := startServer(t, fixture(t), "-max-inflight", "0", "-request-timeout", "2m")
	if gen := generation(t, base); gen != 1 {
		t.Fatalf("boot generation %d", gen)
	}

	stop := make(chan struct{})
	var bad5xx, requests atomic.Int64
	var wg sync.WaitGroup
	paths := []string{"/v1/summary", "/v1/devices?limit=5", "/healthz", "/v1/ports/udp?n=3"}
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client := &http.Client{Timeout: time.Minute}
			for {
				select {
				case <-stop:
					return
				default:
				}
				req, _ := http.NewRequest("GET", base+paths[i%len(paths)], nil)
				req.Header.Set("Authorization", "Bearer "+chaosToken)
				resp, err := client.Do(req)
				if err != nil {
					t.Errorf("client %d: %v", i, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				requests.Add(1)
				if resp.StatusCode >= 500 {
					bad5xx.Add(1)
				}
			}
		}(i)
	}

	// Let load build, then reload while it is in flight.
	time.Sleep(100 * time.Millisecond)
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for generation(t, base) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("reload never landed")
		}
		time.Sleep(50 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if n := bad5xx.Load(); n != 0 {
		t.Fatalf("%d 5xx responses during SIGHUP reload (of %d)", n, requests.Load())
	}
	if requests.Load() == 0 {
		t.Fatal("no load was generated")
	}
	shutdown(t, done)
}

// TestChaosCorruptReloadKeepsOldSnapshot corrupts an hour file, sends
// SIGHUP, and requires: generation stays at 1, data endpoints keep
// serving from the old snapshot, and /healthz reports degraded with the
// correlate error — the bad reload must never crash or blank the API.
func TestChaosCorruptReloadKeepsOldSnapshot(t *testing.T) {
	dir := copyDataset(t, fixture(t))
	base, done := startServer(t, dir)

	// Structurally corrupt one hour file (bit flips mid-body): the strict
	// correlate stage must reject the reload.
	path := flowtuple.HourPath(dir, 1)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(raw) / 2; i < len(raw)/2+8 && i < len(raw); i++ {
		raw[i] ^= 0xff
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, body := getJSON(t, base+"/healthz", "")
		if body["status"] == "degraded" {
			if code != http.StatusOK {
				t.Fatalf("degraded healthz code %d", code)
			}
			lre, ok := body["lastReloadError"].(map[string]any)
			if !ok || lre["error"] == "" {
				t.Fatalf("degraded without lastReloadError: %v", body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("health never degraded: %v", body)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if gen := generation(t, base); gen != 1 {
		t.Fatalf("corrupt reload advanced generation to %d", gen)
	}
	// The old snapshot still serves.
	if code, _ := getJSON(t, base+"/v1/summary", chaosToken); code != http.StatusOK {
		t.Fatalf("summary after corrupt reload: %d", code)
	}
	shutdown(t, done)
}

// TestReloadPollPicksUpRename boots without -snapshot under -reload-poll,
// renames a file into the dataset directory, and requires the poll to
// reload: the generation advances and /v1/pipeline shows the reload's
// open, load-store (skipped, no store) and analyze stages, and no verify.
func TestReloadPollPicksUpRename(t *testing.T) {
	dir := copyDataset(t, fixture(t))
	base, done := startServer(t, dir, "-reload-poll", "50ms")
	if gen := generation(t, base); gen != 1 {
		t.Fatalf("boot generation %d", gen)
	}

	// Publish hour 1 again the way a collector does: write aside, rename in.
	raw, err := os.ReadFile(flowtuple.HourPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	aside := filepath.Join(t.TempDir(), "hour-001.ft.gz")
	if err := os.WriteFile(aside, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(aside, flowtuple.HourPath(dir, 1)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for generation(t, base) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("the poll never reloaded")
		}
		time.Sleep(20 * time.Millisecond)
	}

	code, rep := getJSON(t, base+"/v1/pipeline", chaosToken)
	if code != http.StatusOK {
		t.Fatalf("/v1/pipeline code %d", code)
	}
	status := map[string]string{}
	stages, _ := rep["stages"].([]any)
	for _, st := range stages {
		m, _ := st.(map[string]any)
		name, _ := m["name"].(string)
		status[name], _ = m["status"].(string)
	}
	for name, want := range map[string]string{"open": "ok", "load-store": "skipped", "analyze": "ok", "correlate": "ok"} {
		if status[name] != want {
			t.Errorf("stage %q = %q, want %q (stages %v)", name, status[name], want, status)
		}
	}
	if _, ok := status["verify"]; ok {
		t.Errorf("the reload ran a verify stage: %v", status)
	}
	shutdown(t, done)
}

// TestChaosSIGTERMDrainsInFlight keeps request traffic running when
// SIGTERM lands and requires every accepted request to finish without a
// 5xx before the clean exit.
func TestChaosSIGTERMDrainsInFlight(t *testing.T) {
	base, done := startServer(t, fixture(t))

	var wg sync.WaitGroup
	var bad5xx, completed atomic.Int64
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: time.Minute}
			for j := 0; j < 50; j++ {
				req, _ := http.NewRequest("GET", base+"/v1/summary", nil)
				req.Header.Set("Authorization", "Bearer "+chaosToken)
				resp, err := client.Do(req)
				if err != nil {
					// The listener closed under us: acceptable once the
					// drain began, and no response was produced.
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				completed.Add(1)
				if resp.StatusCode >= 500 {
					bad5xx.Add(1)
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	shutdown(t, done)
	wg.Wait()
	if n := bad5xx.Load(); n != 0 {
		t.Fatalf("%d 5xx responses across SIGTERM drain (of %d)", n, completed.Load())
	}
	if completed.Load() == 0 {
		t.Fatal("no requests completed before drain")
	}
}

// copyDataset clones a generated dataset directory so a test can damage
// it freely.
func copyDataset(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestMain cleans up the shared fixture.
func TestMain(m *testing.M) {
	code := m.Run()
	if fixtureDir != "" {
		os.RemoveAll(fixtureDir)
	}
	os.Exit(code)
}
