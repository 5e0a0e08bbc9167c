package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"atm/internal/persist"
	"atm/internal/service"
)

// TestMain lets the test binary stand in for atmd: re-executed with
// ATMD_TEST_CHILD=1 it runs main() on its arguments, so the tests drive
// the real process — flags, signals, exit status — without a build step.
func TestMain(m *testing.M) {
	if os.Getenv("ATMD_TEST_CHILD") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// freeAddr returns a loopback address whose port was free a moment ago.
// It is released before atmd binds it; nothing else on the loopback is
// racing for it in a test run.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// atmdCommand is this test binary standing in for atmd with args,
// killed when ctx ends.
func atmdCommand(ctx context.Context, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ATMD_TEST_CHILD=1")
	return cmd
}

// atmd is one child process.
type atmd struct {
	addr   string
	cmd    *exec.Cmd
	log    bytes.Buffer
	exited chan error
}

// startAtmd spawns atmd on a free port with the given extra flags and
// returns the instant /healthz first answers.
func startAtmd(t *testing.T, hc *http.Client, args ...string) *atmd {
	t.Helper()
	a := &atmd{addr: freeAddr(t), exited: make(chan error, 1)}
	a.cmd = atmdCommand(context.Background(), append([]string{"-addr", a.addr, "-workers", "1"}, args...)...)
	a.cmd.Stdout, a.cmd.Stderr = &a.log, &a.log
	if err := a.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { a.exited <- a.cmd.Wait() }()

	deadline := time.Now().Add(20 * time.Second)
	for healthy := false; !healthy; {
		select {
		case err := <-a.exited:
			t.Fatalf("atmd exited before serving: %v\n%s", err, a.log.String())
		default:
		}
		if time.Now().After(deadline) {
			_ = a.cmd.Process.Kill()
			t.Fatalf("atmd not healthy after 20s\n%s", a.log.String())
		}
		if resp, err := hc.Get("http://" + a.addr + "/healthz"); err == nil {
			resp.Body.Close()
			healthy = resp.StatusCode == http.StatusOK
		}
	}
	return a
}

// terminate sends SIGTERM and requires a clean exit.
func (a *atmd) terminate(t *testing.T, hc *http.Client) {
	t.Helper()
	if err := a.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-a.exited:
		if err != nil {
			t.Fatalf("atmd did not exit cleanly on SIGTERM: %v\n%s", err, a.log.String())
		}
	case <-time.After(40 * time.Second):
		_ = a.cmd.Process.Kill()
		t.Fatalf("atmd ignored SIGTERM\n%s", a.log.String())
	}
}

// TestEarlySIGTERMRunsFinalSave stops a child atmd the instant /healthz
// first answers and requires the graceful path: exit status 0 and a
// final save that changed the chain — the cold round's rewrite records
// every catalog kind's section, each warm round appends a record. atmd
// used to start listening before it installed its signal handler, so a
// SIGTERM this early could take the default action and lose the final
// save.
func TestEarlySIGTERMRunsFinalSave(t *testing.T) {
	chain := filepath.Join(t.TempDir(), "warm.atmchain")
	hc := &http.Client{Timeout: 2 * time.Second}
	for round := 1; round <= 4; round++ {
		a := startAtmd(t, hc, "-chain", chain, "-nosync")
		before, err := os.ReadFile(chain) // a cold start has created it by now
		if err != nil {
			t.Fatal(err)
		}
		a.terminate(t, hc)
		after, err := os.ReadFile(chain)
		if err != nil {
			t.Fatal(err)
		}
		base, deltas, err := persist.UnmarshalChain(after)
		if err != nil {
			t.Fatalf("round %d: chain after shutdown: %v\n%s", round, err, a.log.String())
		}
		full, err := persist.Compact(base, deltas...)
		if err != nil {
			t.Fatal(err)
		}
		memoizable := 0
		for _, k := range service.Kinds() {
			if k.Memoize {
				memoizable++
			}
		}
		if bytes.Equal(before, after) || len(full.Types) != memoizable {
			t.Fatalf("round %d: the chain (%d sections, %d deltas) is unchanged or lacks the catalog: a final save was lost\n%s",
				round, len(full.Types), len(deltas), a.log.String())
		}
	}
}

// TestSIGTERMClosesUnusedConnection dials the service port, sends
// nothing, and stops atmd: the connection is closed at once, so the
// process exits with its final save well inside a second. Under
// net/http's Server it counted as active for five seconds, and the
// shutdown waited that long.
func TestSIGTERMClosesUnusedConnection(t *testing.T) {
	// A race-enabled child would sleep its race runtime's default second
	// at exit; only atmd's own shutdown is timed here.
	t.Setenv("GORACE", strings.TrimSpace(os.Getenv("GORACE")+" atexit_sleep_ms=0"))
	chain := filepath.Join(t.TempDir(), "warm.atmchain")
	hc := &http.Client{Timeout: 2 * time.Second}
	a := startAtmd(t, hc, "-chain", chain, "-nosync")
	before, err := os.ReadFile(chain)
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", a.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Let the accept happen, so the connection is the server's to close.
	time.Sleep(50 * time.Millisecond)
	t0 := time.Now()
	a.terminate(t, hc)
	if d := time.Since(t0); d >= time.Second {
		t.Errorf("atmd took %v to exit on SIGTERM with a connection that never sent a byte, want < 1s\n%s", d, a.log.String())
	}
	after, err := os.ReadFile(chain)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := persist.UnmarshalChain(after); err != nil || bytes.Equal(before, after) {
		t.Errorf("no final save: chain unchanged %v, decode error %v\n%s", bytes.Equal(before, after), err, a.log.String())
	}
	_ = c.SetReadDeadline(time.Now().Add(time.Second))
	if n, err := c.Read(make([]byte, 1)); n != 0 || err == nil {
		t.Errorf("the unused connection read %d bytes, %v; want it closed", n, err)
	}
}

// TestDeltaEveryNeedsChain: -delta-every without -chain has no file to
// append to, so atmd refuses it with exit status 2 before serving,
// instead of ignoring it.
func TestDeltaEveryNeedsChain(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	out, err := atmdCommand(ctx, "-addr", freeAddr(t), "-delta-every", "1s").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("atmd -delta-every without -chain: err = %v, want exit status 2\n%s", err, out)
	}
	if !strings.Contains(string(out), "-delta-every needs -chain") || strings.Contains(string(out), "serving on") {
		t.Errorf("atmd -delta-every without -chain printed:\n%s", out)
	}
}

// TestNegativeCountsExit2: a negative -workers, -backlog or -max-tenants
// is refused with exit status 2 before serving. Each used to be coerced
// silently (to 1 worker, the default watermark and 64 tenants).
func TestNegativeCountsExit2(t *testing.T) {
	for _, flagName := range []string{"-workers", "-backlog", "-max-tenants"} {
		t.Run(flagName, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			out, err := atmdCommand(ctx, "-addr", freeAddr(t), flagName, "-1").CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("atmd %s -1: err = %v, want exit status 2\n%s", flagName, err, out)
			}
			if !strings.Contains(string(out), flagName+" -1") || strings.Contains(string(out), "serving on") {
				t.Errorf("atmd %s -1 printed:\n%s", flagName, out)
			}
		})
	}
}

// TestBacklogSheds checks that -backlog reaches admission in the real
// binary. spin is not memoizable, so a spin request never takes the
// inline hit path and always meets the watermark: one of 16 tasks
// against -backlog 8 is shed whole with 429 and Retry-After, one of 4
// is served, and /v1/stats counts exactly that.
func TestBacklogSheds(t *testing.T) {
	hc := &http.Client{Timeout: 30 * time.Second}
	a := startAtmd(t, hc, "-backlog", "8")
	defer a.terminate(t, hc)
	url := "http://" + a.addr
	spin := func(n int) string {
		specs := make([]string, n)
		for i := range specs {
			specs[i] = fmt.Sprintf(`{"kind":"spin","key":%d}`, i)
		}
		return `{"tasks":[` + strings.Join(specs, ",") + `]}`
	}
	post := func(body string) *http.Response {
		t.Helper()
		resp, err := hc.Post(url+"/v1/submit", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	if resp := post(spin(16)); resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "1" {
		t.Errorf("16 spin tasks against -backlog 8: HTTP %d, Retry-After %q; want 429, \"1\"", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if resp := post(spin(4)); resp.StatusCode != http.StatusOK {
		t.Errorf("4 spin tasks against -backlog 8: HTTP %d, want 200", resp.StatusCode)
	}
	st, err := service.FetchStats(hc, url)
	if err != nil {
		t.Fatal(err)
	}
	if st.ShedRequests != 1 || st.ShedTasks != 16 || st.Queued != 0 {
		t.Errorf("stats: shed_requests %d, shed_tasks %d, queued %d; want 1, 16, 0", st.ShedRequests, st.ShedTasks, st.Queued)
	}
}

// TestPprofListener turns the profiling listener on, by the flag and by
// the environment variable that is its default, and requires the pprof
// routes there and nowhere on the service port.
func TestPprofListener(t *testing.T) {
	hc := &http.Client{Timeout: 5 * time.Second}
	get := func(url string) (int, string) {
		t.Helper()
		resp, err := hc.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	for _, how := range []string{"flag", "env"} {
		pprofAddr := freeAddr(t)
		var a *atmd
		if how == "flag" {
			a = startAtmd(t, hc, "-pprof", pprofAddr)
		} else {
			t.Setenv("ATMD_PPROF", pprofAddr)
			a = startAtmd(t, hc)
		}
		if code, body := get("http://" + pprofAddr + "/debug/pprof/cmdline"); code != http.StatusOK || !strings.Contains(body, "-addr") {
			t.Errorf("%s: /debug/pprof/cmdline on the pprof listener: HTTP %d %q", how, code, body)
		}
		if code, _ := get("http://" + a.addr + "/debug/pprof/cmdline"); code != http.StatusNotFound {
			t.Errorf("%s: the service port answers /debug/pprof/cmdline with HTTP %d", how, code)
		}
		a.terminate(t, hc)
	}
	// Off by default: no second listener, and still nothing on the service port.
	t.Setenv("ATMD_PPROF", "")
	a := startAtmd(t, hc)
	if code, _ := get("http://" + a.addr + "/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("pprof off: the service port answers /debug/pprof/ with HTTP %d", code)
	}
	a.terminate(t, hc)
	if strings.Contains(a.log.String(), "pprof") {
		t.Errorf("pprof off, yet the log mentions it:\n%s", a.log.String())
	}
}
