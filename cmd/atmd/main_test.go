package main

import (
	"bytes"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"atm/internal/persist"
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

// TestEarlySIGTERMRunsFinalSave stops a child atmd the instant /healthz
// first answers and requires the graceful path: exit status 0 and one
// more delta record on the chain. atmd used to start listening before it
// installed its signal handler, so a SIGTERM this early could take the
// default action and lose the final save.
func TestEarlySIGTERMRunsFinalSave(t *testing.T) {
	chain := filepath.Join(t.TempDir(), "warm.atmchain")
	hc := &http.Client{Timeout: 2 * time.Second}
	for round := 1; round <= 4; round++ {
		// The port is free when picked and released before atmd binds it;
		// nothing else on the loopback is racing for it in a test run.
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := l.Addr().String()
		l.Close()

		cmd := exec.Command(os.Args[0], "-addr", addr, "-workers", "1", "-chain", chain, "-nosync")
		cmd.Env = append(os.Environ(), "ATMD_TEST_CHILD=1")
		var log bytes.Buffer
		cmd.Stdout, cmd.Stderr = &log, &log
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		exited := make(chan error, 1)
		go func() { exited <- cmd.Wait() }()

		deadline := time.Now().Add(20 * time.Second)
		for healthy := false; !healthy; {
			select {
			case err := <-exited:
				t.Fatalf("round %d: atmd exited before serving: %v\n%s", round, err, log.String())
			default:
			}
			if time.Now().After(deadline) {
				_ = cmd.Process.Kill()
				t.Fatalf("round %d: atmd not healthy after 20s\n%s", round, log.String())
			}
			if resp, err := hc.Get("http://" + addr + "/healthz"); err == nil {
				resp.Body.Close()
				healthy = resp.StatusCode == http.StatusOK
			}
		}
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		hc.CloseIdleConnections() // Shutdown waits for idle keep-alives otherwise
		select {
		case err := <-exited:
			if err != nil {
				t.Fatalf("round %d: atmd did not exit cleanly on an early SIGTERM: %v\n%s", round, err, log.String())
			}
		case <-time.After(40 * time.Second):
			_ = cmd.Process.Kill()
			t.Fatalf("round %d: atmd ignored SIGTERM\n%s", round, log.String())
		}
		_, deltas, err := persist.LoadChain(chain)
		if err != nil {
			t.Fatalf("round %d: chain after shutdown: %v\n%s", round, err, log.String())
		}
		if len(deltas) != round {
			t.Fatalf("round %d: chain holds %d delta records, want %d: a final save was lost\n%s", round, len(deltas), round, log.String())
		}
	}
}
