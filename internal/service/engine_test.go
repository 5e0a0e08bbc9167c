package service

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"atm/internal/core"
)

func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e := New(cfg)
	t.Cleanup(func() { _ = e.Close() })
	return e
}

// TestEngineStartsNoGoroutine: the engine builds no task runtime and
// serves on its callers' goroutines, so a memoizing engine without a
// periodic saver starts no goroutine from New through Close. The counts
// may only fall, as goroutines earlier tests left finish exiting.
func TestEngineStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	e := New(Config{Memo: core.New(core.Config{Mode: core.ModeDynamic})})
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("New started %d goroutines", n-before)
	}
	k, _ := KindByName("lu")
	if _, _, err := e.Do([]Task{{Kind: "lu", Input: Input(k, 1, 1)}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines outlive Close", n-before)
	}
}

// TestEngineExecutesCorrectly checks Do's outputs equal the kernel run
// directly, memoized or not.
func TestEngineExecutesCorrectly(t *testing.T) {
	for _, memo := range []bool{false, true} {
		var atm *core.ATM
		if memo {
			atm = core.New(core.Config{Mode: core.ModeStatic})
		}
		e := newTestEngine(t, Config{Memo: atm})
		k, _ := KindByName("lu")
		in := Input(k, 3, 7)
		want := make([]float64, k.Out)
		k.Fn(in, want)
		for rep := 0; rep < 3; rep++ { // repeats exercise the memoized path
			outs, _, err := e.Do([]Task{{Kind: "lu", Input: in}})
			if err != nil {
				t.Fatalf("memo=%v rep=%d: %v", memo, rep, err)
			}
			for i := range want {
				if outs[0][i] != want[i] {
					t.Fatalf("memo=%v rep=%d: output[%d] = %v, want %v", memo, rep, i, outs[0][i], want[i])
				}
			}
		}
	}
}

// TestEngineMemoizes drives the same inputs repeatedly and requires the
// engine to serve later rounds from the table.
func TestEngineMemoizes(t *testing.T) {
	atm := core.New(core.Config{Mode: core.ModeDynamic})
	e := newTestEngine(t, Config{Memo: atm})
	k, _ := KindByName("blackscholes")
	tasks := make([]Task, 8)
	for i := range tasks {
		tasks[i] = Task{Kind: "blackscholes", Input: Input(k, uint64(i%2), 1)}
	}
	var last GroupStats
	for rep := 0; rep < 40; rep++ {
		_, g, err := e.Do(tasks)
		if err != nil {
			t.Fatal(err)
		}
		last = g
	}
	if last.MemoTHT == 0 {
		t.Fatalf("no THT hits after 40 identical rounds: %+v", last)
	}
	c := e.Counters()
	if c.Requests != 40 || c.Tasks != 320 {
		t.Fatalf("counters: %+v", c)
	}
}

// TestEngineSheds fixes a tiny watermark and floods the engine with
// non-memoizable spin tasks from many goroutines: some requests must be
// shed with OverloadError, none may be lost, and every accepted task
// completes.
func TestEngineSheds(t *testing.T) {
	e := newTestEngine(t, Config{Backlog: 64})
	in := Input(mustKind(t, "spin"), 1, 1)
	// Each request carries 8 spin tasks, so 32 concurrent senders keep
	// up to 256 tasks pending against the 64-task watermark.
	group := make([]Task, 8)
	for i := range group {
		group[i] = Task{Kind: "spin", Input: in}
	}
	var ok, shed, other int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				_, _, err := e.Do(group)
				mu.Lock()
				var over *OverloadError
				switch {
				case err == nil:
					ok++
				case errors.As(err, &over):
					shed++
				default:
					other++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if other != 0 {
		t.Fatalf("unexpected errors: %d", other)
	}
	if shed == 0 {
		t.Fatal("no sheds despite 256 concurrent spin tasks against backlog 64")
	}
	if ok == 0 {
		t.Fatal("everything shed; admission should accept up to the watermark")
	}
	c := e.Counters()
	if c.Queued != 0 {
		t.Fatalf("queued = %d after all requests returned, want 0", c.Queued)
	}
	if c.ShedRequests != shed || c.Requests != ok {
		t.Fatalf("counter mismatch: %+v vs ok=%d shed=%d", c, ok, shed)
	}
}

// TestShedPaysOnlyValidation: a group refused at the watermark was
// validated and nothing more was built for it — no region headers, no
// output slab, no zeroing. The one allocation left is the OverloadError
// itself. With a memoizer attached a shed group has also paid core.Serve's
// probe: the sampled hashes of its steady tasks, out of pooled memory.
func TestShedPaysOnlyValidation(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	lu, spin := mustKind(t, "lu"), mustKind(t, "spin")
	warm := Task{Kind: "lu", Input: Input(lu, 1, 1)}
	for _, tc := range []struct {
		name string
		memo bool
		shed []Task
	}{
		{"no memoizer", false, []Task{warm}},
		{"hit then miss", true, []Task{warm, {Kind: "lu", Input: Input(lu, 2, 1)}}},
		{"hit then not memoizable", true, []Task{warm, {Kind: "spin", Input: Input(spin, 1, 1)}}},
	} {
		cfg := Config{Backlog: 64}
		if tc.memo {
			cfg.Memo = core.New(core.Config{Mode: core.ModeStatic})
		}
		e := newTestEngine(t, cfg)
		// Warm the request pool with a group of the shed one's size, and
		// the table with its first task.
		if _, _, err := e.Do([]Task{warm, warm}); err != nil {
			t.Fatal(err)
		}
		before := e.Stats()
		e.queued.Add(1 << 20) // a backlog far past any watermark
		allocs := testing.AllocsPerRun(100, func() {
			_, _, err := e.Do(tc.shed)
			if _, shed := err.(*OverloadError); !shed {
				t.Fatalf("%s: err = %v, want *OverloadError", tc.name, err)
			}
		})
		e.queued.Add(-(1 << 20))
		if allocs > 1 {
			t.Errorf("%s: a shed group cost %v allocations, want 1 (its error)", tc.name, allocs)
		}
		if after := e.Stats(); !reflect.DeepEqual(after, before) {
			t.Errorf("%s: shed groups left a trace in core.Stats\n%+v\n%+v", tc.name, before, after)
		}
	}
}

func mustKind(t testing.TB, name string) Kind {
	t.Helper()
	k, ok := KindByName(name)
	if !ok {
		t.Fatalf("kind %q missing", name)
	}
	return k
}

func TestEngineValidates(t *testing.T) {
	e := newTestEngine(t, Config{})
	var bad *BadTaskError
	if _, _, err := e.Do(nil); !errors.As(err, &bad) {
		t.Errorf("empty list: %v", err)
	}
	if _, _, err := e.Do([]Task{{Kind: "nope", Input: []float64{1}}}); !errors.As(err, &bad) {
		t.Errorf("unknown kind: %v", err)
	}
	if _, _, err := e.Do([]Task{{Kind: "lu", Input: []float64{1, 2}}}); !errors.As(err, &bad) {
		t.Errorf("wrong arity: %v", err)
	}
}

func TestEngineLookup(t *testing.T) {
	atm := core.New(core.Config{Mode: core.ModeStatic})
	e := newTestEngine(t, Config{Memo: atm})
	k := mustKind(t, "lu")
	in := Input(k, 11, 0)
	if _, hit, err := e.Lookup("lu", in); err != nil || hit {
		t.Fatalf("pre-run lookup: hit=%v err=%v", hit, err)
	}
	outs, _, err := e.Do([]Task{{Kind: "lu", Input: in}})
	if err != nil {
		t.Fatal(err)
	}
	// Drive the type into steady state so the entry is installed.
	var out []float64
	var hit bool
	for rep := 0; rep < 50 && !hit; rep++ {
		if _, _, err = e.Do([]Task{{Kind: "lu", Input: in}}); err != nil {
			t.Fatal(err)
		}
		out, hit, err = e.Lookup("lu", in)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !hit {
		t.Fatal("lookup never hit after repeated executions")
	}
	for i := range out {
		if out[i] != outs[0][i] {
			t.Fatalf("lookup output[%d] = %v, want %v", i, out[i], outs[0][i])
		}
	}
	var bad *BadTaskError
	if _, _, err := e.Lookup("nope", in); !errors.As(err, &bad) {
		t.Errorf("unknown kind lookup: %v", err)
	}
	if _, _, err := e.Lookup("lu", in[:3]); !errors.As(err, &bad) {
		t.Errorf("short input lookup: %v", err)
	}
}

// TestEngineSnapshot: Snapshot runs the Save hook and counts the save;
// an engine without a hook refuses it.
func TestEngineSnapshot(t *testing.T) {
	atm := core.New(core.Config{Mode: core.ModeStatic})
	var snap *core.Snapshot
	e := newTestEngine(t, Config{Memo: atm, Save: func() (err error) {
		snap, err = atm.Snapshot()
		return err
	}})
	k := mustKind(t, "stencil")
	for rep := 0; rep < 30; rep++ {
		if _, _, err := e.Do([]Task{{Kind: "stencil", Input: Input(k, 1, 1)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Snapshot(); err != nil {
		t.Fatal(err)
	}
	var entries int
	for _, ts := range snap.Types {
		entries += len(ts.Entries)
	}
	if entries != 1 {
		t.Fatalf("the hook read %d entries, want the one stencil entry", entries)
	}
	if c := e.Counters(); c.Saves != 1 {
		t.Fatalf("saves = %d, want 1", c.Saves)
	}

	hookless := newTestEngine(t, Config{Memo: core.New(core.Config{Mode: core.ModeStatic})})
	if err := hookless.Snapshot(); !errors.Is(err, ErrNoPersistence) {
		t.Fatalf("snapshot without a Save hook: %v", err)
	}
}

func TestEngineSnapshotWithoutMemo(t *testing.T) {
	e := newTestEngine(t, Config{Save: func() error { return nil }})
	if err := e.Snapshot(); !errors.Is(err, ErrNoPersistence) {
		t.Fatalf("baseline snapshot: %v", err)
	}
}

func TestEngineClose(t *testing.T) {
	e := New(Config{})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, _, err := e.Do([]Task{{Kind: "lu", Input: make([]float64, 64)}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Do after Close: %v", err)
	}
}

// TestCloseWaitsForHandlerRequests: Close returns only after every
// request that passed its closed check has replied — one served on its
// handler goroutine included — and only then runs the final save, which
// must hold what that request inserted. The request's kernel blocks
// until Close has been called.
func TestCloseWaitsForHandlerRequests(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	kinds := []Kind{{Name: "block", In: 1, Out: 1, Memoize: true, Fn: func(in, out []float64) {
		close(entered)
		<-release
		out[0] = in[0] + 1
	}}}
	memo := core.New(core.Config{Mode: core.ModeStatic})
	rec := httptest.NewRecorder()
	var replied bool
	var entries int
	e := New(Config{Memo: memo, KindList: kinds, Save: func() error {
		replied = rec.Body.Len() > 0 // Close's final save, the only one
		snap, err := memo.Snapshot()
		for _, ts := range snap.Types {
			entries += len(ts.Entries)
		}
		return err
	}})
	srv := NewServer(e)
	body, err := EncodeBinaryTasks([]Task{{Kind: "block", Input: []float64{1}}})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/submit", bytes.NewReader(body))
	req.Header.Set("Content-Type", binaryContentType)
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.ServeHTTP(rec, req)
	}()
	<-entered
	var closeErr error
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		closeErr = e.Close()
	}()
	time.Sleep(50 * time.Millisecond)
	select {
	case <-closed:
		t.Error("Close returned while a handler was running its request's kernel")
	default:
	}
	close(release)
	<-closed
	<-served
	if closeErr != nil {
		t.Fatal(closeErr)
	}
	if !replied {
		t.Error("the final save ran before the request replied")
	}
	if entries != 1 {
		t.Errorf("the final save holds %d entries, want the one the request inserted", entries)
	}
	if want := `{"results":[{"output":[2]}],"batch":{"tasks":1,"executed":1,"memo_tht":0,"memo_ikt":0}}` + "\n"; rec.Code != http.StatusOK || rec.Body.String() != want {
		t.Errorf("reply: HTTP %d %s, want %s", rec.Code, rec.Body, want)
	}
	if c := e.Counters(); c.Requests != 1 {
		t.Errorf("the request was not counted: %+v", c)
	}
	if _, _, err := e.Do([]Task{{Kind: "block", Input: []float64{2}}}); !errors.Is(err, ErrClosed) {
		t.Errorf("Do after Close: %v", err)
	}
}
