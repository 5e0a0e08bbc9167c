// Command atmd serves the ATM engine as a network memoization service:
// an HTTP front-end (docs/service.md) over the service engine, which
// serves each request on its handler goroutine and runs what core.Serve
// cannot answer under the task runtime's lock, with the harness's
// persistence behind it: a -chain file it warm-starts from under a
// -recover policy and appends delta records to.
//
//	atmd -addr :8080 -workers 8 -mode dynamic
//	atmd -chain warm.atmchain -delta-every 30s -recover salvage
//	atmd -backlog 64        # fixed admission watermark (overload testing)
//	atmd -tht-budget 64m -max-tenants 8
//	atmd -pprof 127.0.0.1:6060   # net/http/pprof on a listener of its own
//
// Routes: POST /v1/submit, GET /v1/lookup, POST /v1/snapshot,
// GET /v1/stats, GET /metrics (Prometheus), GET /healthz. Load past the
// admission watermark is shed with 429 + Retry-After. POST /v1/snapshot
// appends a delta record to the -chain file (409 without one); the
// client never names a path. SIGINT/SIGTERM drain the server and append
// a final record when -chain is set.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // served only on the -pprof listener
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"atm/internal/harness"
	"atm/internal/persist"
	"atm/internal/service"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address")
		workers    = flag.Int("workers", 0, "task-runtime workers, which run what handlers cannot serve: training types, types with an exclusion set, non-memoizable kinds (0 = 1)")
		mode       = flag.String("mode", "dynamic", "memoization mode: baseline|static|dynamic|fixed")
		level      = flag.Int("level", 15, "p level for -mode fixed")
		noIKT      = flag.Bool("no-ikt", false, "disable the In-flight Key Table")
		backlog    = flag.Int("backlog", 0, "fixed admission watermark in tasks (0 = adaptive LLC-sized)")
		seed       = flag.Uint64("seed", 0, "ATM shuffle-plan seed")
		chainPath  = flag.String("chain", "", "incremental chain file: warm-start from it and append delta records on saves")
		deltaEvery = flag.Duration("delta-every", 0, "append a delta record to -chain every interval")
		recoverStr = flag.String("recover", "strict", "damaged-snapshot policy: strict|salvage|cold")
		noSync     = flag.Bool("nosync", false, "skip fsync on snapshot saves (a crash may lose or tear the most recent saves)")
		budgetStr  = flag.String("tht-budget", "", "THT memory budget in bytes, k/m/g suffixes accepted (empty = unbounded)")
		maxTenants = flag.Int("max-tenants", 0, "distinct tenant namespaces served (0 = 64)")
		pprofAddr  = flag.String("pprof", os.Getenv("ATMD_PPROF"), "serve net/http/pprof on this address, a listener of its own and never the service port (empty = off; the default is $ATMD_PPROF, which reaches an atmd some other program spawns)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments: %v\n", flag.Args())
		os.Exit(2)
	}
	if *deltaEvery > 0 && *chainPath == "" {
		fmt.Fprintln(os.Stderr, "-delta-every needs -chain: there is no file to append to")
		os.Exit(2)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"workers", *workers}, {"backlog", *backlog}, {"max-tenants", *maxTenants}} {
		if f.v < 0 {
			fmt.Fprintf(os.Stderr, "-%s %d: want 0 (the default) or a positive count\n", f.name, f.v)
			os.Exit(2)
		}
	}

	recoverPolicy, err := harness.ParseRecoverPolicy(*recoverStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	budget, err := harness.ParseByteSize(*budgetStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	spec := harness.ATMSpec{}
	switch *mode {
	case "baseline", "off":
		// No memoization: every task executes (for A/B load tests).
	case "static":
		spec = harness.Static(!*noIKT)
	case "dynamic":
		spec = harness.Dynamic(!*noIKT)
	case "fixed":
		spec = harness.Fixed(*level, !*noIKT)
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(2)
	}

	opt := harness.RunOptions{
		Seed:               *seed,
		SnapshotChain:      *chainPath,
		SnapshotDeltaEvery: *deltaEvery,
		Recover:            recoverPolicy,
		THTBudgetBytes:     budget,
	}
	if *noSync {
		opt.Sync = persist.SyncOff
	}

	// The signal handler goes in before anything a client can observe:
	// once the port answers, a SIGTERM must find the handler installed,
	// or the default action kills the process without its final save.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	engine, info := harness.Serve(spec, opt, service.Config{
		Workers:    *workers,
		Backlog:    *backlog,
		MaxTenants: *maxTenants,
	})

	if info.SnapshotErr != nil {
		fmt.Fprintf(os.Stderr, "atmd: snapshot load failed (-recover %s): %v; serving cold\n", recoverPolicy, info.SnapshotErr)
	}
	switch {
	case info.WarmStart && info.Salvaged:
		fmt.Printf("atmd: warm start from salvaged snapshot (%d entries restored; %d torn bytes truncated: %s)\n",
			info.RestoredEntries, info.Recovery.BytesTruncated, info.Recovery.Reason)
	case info.WarmStart:
		fmt.Printf("atmd: warm start (%d entries restored)\n", info.RestoredEntries)
	case info.ColdFallback:
		fmt.Println("atmd: damaged snapshot could not warm-start; serving cold")
	}

	srv := &http.Server{
		Handler:           service.NewServer(engine),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "atmd: %v\n", err)
		_ = engine.Close()
		os.Exit(1)
	}
	if *pprofAddr != "" {
		// The profiling routes live on http.DefaultServeMux, where
		// importing net/http/pprof put them; the service has a mux of its
		// own, so they are reachable only here. The listener lasts as long
		// as the process.
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "atmd: -pprof: %v\n", err)
			_ = engine.Close()
			os.Exit(1)
		}
		fmt.Printf("atmd: pprof on http://%s/debug/pprof/\n", pln.Addr())
		go func() { _ = http.Serve(pln, nil) }() // returns only if the listener breaks; the service carries on without it
	}
	// Printed only once the port is bound: a supervisor that waits for
	// this line can connect.
	fmt.Printf("atmd: serving on %s (mode %s, kinds %s)\n", ln.Addr(), *mode, strings.Join(engine.KindNames(), ","))

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case s := <-sig:
		fmt.Printf("atmd: %v: draining\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = srv.Shutdown(ctx)
		cancel()
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "atmd: %v\n", err)
			_ = engine.Close()
			os.Exit(1)
		}
	}

	// Close drains queued work and runs the final save.
	if err := engine.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "atmd: final snapshot save failed: %v\n", err)
		os.Exit(1)
	}
	if st := engine.Stats(); len(st.Types) > 0 {
		var tasks, memoized int64
		for _, ts := range st.Types {
			tasks += ts.Tasks
			memoized += ts.MemoizedTHT + ts.MemoizedIKT
		}
		fmt.Printf("atmd: served %d tasks, %d memoized, THT %d entries / %d bytes\n",
			tasks, memoized, st.THTEntries, st.THTBytes)
	}
}
