package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDir is where everything the command writes lives, relative to
// the checkout root: the atmd binary, per-run scratch directories and
// span files. The root .gitignore names it.
const buildDir = ".bench_build"

// findRoot walks up from the working directory to the checkout root,
// recognised by BENCHMARK.json beside go.mod.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if fileExists(filepath.Join(dir, "BENCHMARK.json")) && fileExists(filepath.Join(dir, "go.mod")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("benchmark: no BENCHMARK.json beside go.mod in any parent directory")
		}
		dir = parent
	}
}

func fileExists(p string) bool {
	_, err := os.Stat(p)
	return err == nil
}

// buildAtmd compiles cmd/atmd from the checkout's source, so the
// process under test is always the code beside the benchmark.
func buildAtmd(ctx context.Context, e env) (string, error) {
	bin := filepath.Join(e.work, "atmd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/atmd")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/atmd: %w\n%s", err, out)
	}
	return bin, nil
}

// server is one atmd child process.
type server struct {
	cmd  *exec.Cmd
	url  string
	log  bytes.Buffer
	done chan struct{} // closed when Wait returned
	err  error         // Wait's result, valid after done
}

const (
	startTimeout = 20 * time.Second
	stopTimeout  = 30 * time.Second
)

// freeAddr asks the kernel for an unused loopback port. The port is
// released before atmd binds it; a lost race shows as a start failure
// and startServer tries again.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer spawns atmd and returns once /healthz answers 200.
func startServer(ctx context.Context, hc *http.Client, bin string, args ...string) (*server, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		s := &server{url: "http://" + addr, done: make(chan struct{})}
		s.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
		s.cmd.Stdout = &s.log
		s.cmd.Stderr = &s.log
		if err := s.cmd.Start(); err != nil {
			return nil, fmt.Errorf("start atmd: %w", err)
		}
		go func() {
			s.err = s.cmd.Wait()
			close(s.done)
		}()
		if lastErr = s.awaitHealthy(ctx, hc); lastErr == nil {
			return s, nil
		}
		s.kill()
		lastErr = fmt.Errorf("%w\n%s", lastErr, s.log.String())
		if ctx.Err() != nil {
			break
		}
	}
	return nil, lastErr
}

func (s *server) awaitHealthy(ctx context.Context, hc *http.Client) error {
	deadline := time.Now().Add(startTimeout)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return fmt.Errorf("atmd exited before serving: %v", s.err)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := hc.Get(s.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	return fmt.Errorf("atmd not healthy after %v", startTimeout)
}

// stop sends SIGTERM, which drains the server and runs the final
// snapshot save, and waits for the exit. It returns how long that took.
//
// atmd installs its SIGTERM handler just after it starts listening, so
// a server stopped within a millisecond of becoming healthy can still
// die of the signal's default action, without a final save. Only the
// restart phase stops servers that young, and they have nothing new to
// save, so that exit counts as a clean one here.
func (s *server) stop() (time.Duration, error) {
	t0 := time.Now()
	select {
	case <-s.done:
		return 0, fmt.Errorf("atmd had already exited: %v\n%s", s.err, s.log.String())
	default:
	}
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return 0, err
	}
	select {
	case <-s.done:
	case <-time.After(stopTimeout):
		s.kill()
		return 0, fmt.Errorf("atmd ignored SIGTERM for %v\n%s", stopTimeout, s.log.String())
	}
	var exit *exec.ExitError
	if errors.As(s.err, &exit) {
		if ws, ok := exit.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			return time.Since(t0), nil
		}
	}
	if s.err != nil {
		return 0, fmt.Errorf("atmd exit: %w\n%s", s.err, s.log.String())
	}
	return time.Since(t0), nil
}

// kill ends the process on any path and waits until it is gone.
func (s *server) kill() {
	select {
	case <-s.done:
		return
	default:
	}
	_ = s.cmd.Process.Kill() // already-exited is the only failure
	<-s.done
}

// procCPU returns the user+system CPU time a process has used, from
// /proc/<pid>/stat. Linux ticks are 1/100 s on every supported arch.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after it.
	fields := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
	if len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	return time.Duration(utime+stime) * (time.Second / 100), nil
}

// procStatusBytes reads one kB-valued field of /proc/<pid>/status.
func procStatusBytes(pid int, field string) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: %w", pid, err)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no %s line", pid, field)
}

// procPeakRSS returns a process's peak resident set in bytes.
func procPeakRSS(pid int) (int64, error) { return procStatusBytes(pid, "VmHWM") }

// watchRSS samples a process's resident set ten times a second until
// the returned function is called, which returns the samples in MiB.
// The peak of a garbage-collected process depends on when collections
// happened to run; the median over a phase does not.
func watchRSS(pid int) (stop func() []float64) {
	quit, done := make(chan struct{}), make(chan struct{})
	var samples []float64
	go func() {
		defer close(done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			if rss, err := procStatusBytes(pid, "VmRSS"); err == nil {
				samples = append(samples, float64(rss)/(1<<20))
			}
			select {
			case <-quit:
				return
			case <-tick.C:
			}
		}
	}()
	return func() []float64 {
		close(quit)
		<-done
		return samples
	}
}

// selfCPU returns this process's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
