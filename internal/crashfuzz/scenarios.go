package crashfuzz

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"

	"atm/internal/apps"
	"atm/internal/core"
	"atm/internal/failpoint"
	"atm/internal/harness"
	"atm/internal/persist"
	"atm/internal/region"
	"atm/internal/service"
	"atm/internal/taskrt"
)

// The scenario corpus. Each scenario simulates process crashes at a
// different layer of the persistence stack: append-crash tears delta
// appends at seeded byte offsets and salvages the chain file directly,
// save-crash kills atomic whole-table saves at the write/sync/rename
// boundaries, service-recovery drives the harness's RecoverPolicy end
// to end across simulated service lifetimes, compact-crash kills the
// harness's own rewrite of a chain whose deltas outgrew its base, and
// drain-crash tears appends that task bodies make while the master
// drains its submission backlog.

// Corpus returns the standard scenario corpus.
func Corpus() []Scenario {
	return []Scenario{
		{Name: "append-crash", Run: appendCrash},
		{Name: "save-crash", Run: saveCrash},
		{Name: "service-recovery", Run: serviceRecovery},
		{Name: "compact-crash", Run: compactCrash},
		{Name: "drain-crash", Run: drainCrash},
	}
}

// mkInput builds a deterministic 16-element input region keyed by v.
func mkInput(v int) *region.Float64 {
	in := region.NewFloat64(16)
	for i := range in.Data {
		in.Data[i] = float64(v*100+i) * 1.5
	}
	return in
}

// doubler is the scenarios' memoizable body: out[i] = 2*in[i].
func doubler(t *taskrt.Task) {
	in, out := t.Float64s(0), t.Float64s(1)
	for i := range in {
		out[i] = 2 * in[i]
	}
}

// keySet flattens a snapshot to its multiset of entry keys.
func keySet(snap *core.Snapshot) map[uint64]int {
	keys := map[uint64]int{}
	for _, sec := range snap.Types {
		for _, e := range sec.Entries {
			keys[e.Key]++
		}
	}
	return keys
}

// checkNoTmp reports any *.tmp residue under dir (and removes it so one
// leak does not cascade into later iterations).
func checkNoTmp(c *Ctx, dir, op string) {
	tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	for _, f := range tmps {
		c.Errorf("%s left temp-file residue: %s", op, filepath.Base(f))
		os.Remove(f)
	}
}

// appendCrash builds a seeded delta chain and crashes every append at a
// seeded byte offset, with crashAppend's oracle per crash; crash,
// salvage, repair and retry per delta must converge on the canonical
// chain (checkChain).
func appendCrash(c *Ctx) {
	// A tiny THT budget makes the deltas interleave inserts with
	// tombstone records, so every crash offset also exercises the
	// tombstone section of the chain format. The oracle below stays
	// valid: Compact folds the tombstones, so its key set equals the live
	// (evicted) table's.
	cfg := core.Config{
		Mode:           core.ModeStatic,
		THTBudgetBytes: 8 * (16*8 + 24), // eight mkInput-sized entries
	}
	memo := core.New(cfg)
	memo.EnableDeltaTracking()
	rt := c.Runtime(taskrt.Config{Memoizer: memo})
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, Run: doubler})

	// A save waits for no task, so each one follows a fence of its own:
	// the round's inserts must be in its delta, and a deterministic Wait
	// draws from the seed's stream at the next submission, so these keep
	// the recorded schedules.
	rt.Wait()
	base, err := memo.Snapshot()
	if err != nil {
		c.Errorf("base snapshot: %v", err)
		rt.Close()
		return
	}
	var deltas []*core.Delta
	rounds := 3 + c.Intn(4)
	for round := 0; round < rounds; round++ {
		n := 2 + c.Intn(6)
		for i := 0; i < n; i++ {
			rt.Submit(tt, taskrt.In(mkInput(round*64+i)), taskrt.Out(region.NewFloat64(16)))
		}
		rt.Wait()
		d, err := memo.SnapshotDelta()
		if err != nil {
			c.Errorf("delta %d: %v", round, err)
			rt.Close()
			return
		}
		deltas = append(deltas, d)
	}
	full, err := memo.Snapshot()
	if err != nil {
		c.Errorf("full snapshot: %v", err)
		rt.Close()
		return
	}
	rt.Close()

	path := filepath.Join(c.Dir, "chain.atmsnap")
	if err := persist.SaveChain(path, base, nil); err != nil {
		c.Errorf("SaveChain: %v", err)
		return
	}
	for i, d := range deltas {
		if !crashAppend(c, path, i, d) {
			return
		}
	}
	checkNoTmp(c, c.Dir, "append-crash")
	checkChain(c, path, base, deltas, full)
}

// checkChain is the convergence oracle of a chain built through crashed
// appends: the file at path must be the canonical encoding of base and
// deltas, and its fold must equal full, the live table.
func checkChain(c *Ctx, path string, base *core.Snapshot, deltas []*core.Delta, full *core.Snapshot) {
	want, err := persist.MarshalChain(base, deltas)
	if err != nil {
		c.Errorf("MarshalChain: %v", err)
		return
	}
	got, err := os.ReadFile(path)
	if err != nil {
		c.Errorf("read final chain: %v", err)
		return
	}
	if !bytes.Equal(got, want) {
		c.Errorf("final chain diverges from canonical encoding (%d vs %d bytes)", len(got), len(want))
	}
	lb, ld, err := persist.LoadChain(path)
	if err != nil {
		c.Errorf("final LoadChain: %v", err)
		return
	}
	compacted, err := persist.Compact(lb, ld...)
	if err != nil {
		c.Errorf("final Compact: %v", err)
		return
	}
	liveKeys, gotKeys := keySet(full), keySet(compacted)
	if len(gotKeys) != len(liveKeys) {
		c.Errorf("recovered chain holds %d distinct keys, live table %d", len(gotKeys), len(liveKeys))
	}
	for k, n := range liveKeys {
		if gotKeys[k] != n {
			c.Errorf("key %#x: live count %d, recovered %d", k, n, gotKeys[k])
		}
	}
}

// drainCrash crashes appends made while the master drains its
// backlog. Its workload outgrows its own 16–32-task throttle window, so
// each batch's submission first runs earlier tasks on the master
// (taskrt's deterministic drainBacklog). About one task in four is a saver,
// whose body takes a delta of the inserts landed so far, since a save
// waits for no task, and crashes its append (crashAppend). The chain
// must converge as append-crash's does (checkChain), and at least one
// save must have run before the last batch was submitted, which only a
// drain can run.
func drainCrash(c *Ctx) {
	cfg := core.Config{Mode: core.ModeStatic}
	memo := core.New(cfg)
	memo.EnableDeltaTracking()
	window := 16 + c.Intn(17)
	rt := c.Runtime(taskrt.Config{Memoizer: memo, ThrottleWindow: window})
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, Run: doubler})
	base, err := memo.Snapshot()
	if err != nil {
		c.Errorf("base snapshot: %v", err)
		rt.Close()
		return
	}
	path := filepath.Join(c.Dir, "chain.atmsnap")
	if err := persist.SaveChain(path, base, nil); err != nil {
		c.Errorf("SaveChain: %v", err)
		rt.Close()
		return
	}
	var deltas []*core.Delta
	submitting, drainSaves, broken := true, 0, false
	saver := rt.RegisterType(taskrt.TypeConfig{Name: "save", Run: func(*taskrt.Task) {
		if broken {
			return
		}
		d, err := memo.SnapshotDelta()
		if err != nil {
			c.Errorf("delta %d: %v", len(deltas), err)
			broken = true
			return
		}
		deltas = append(deltas, d)
		if submitting {
			drainSaves++
		}
		broken = !crashAppend(c, path, len(deltas)-1, d)
	}})
	var batch []taskrt.BatchEntry
	batches := 4 + c.Intn(4)
	for b := 0; b < batches; b++ {
		batch = batch[:0]
		for n := window + c.Intn(window); n > 0; n-- {
			if c.Intn(4) == 0 {
				batch = append(batch, taskrt.Desc(saver))
				continue
			}
			// Some values repeat, for IKT defers and THT hits.
			v := b*64 + c.Intn(48)
			batch = append(batch, taskrt.Desc(tt, taskrt.In(mkInput(v)), taskrt.Out(region.NewFloat64(16))))
		}
		rt.SubmitBatch(batch)
	}
	submitting = false
	rt.Wait()
	if broken {
		rt.Close()
		return
	}
	if drainSaves == 0 {
		c.Errorf("no save ran while the master drained (window %d)", window)
	}
	d, err := memo.SnapshotDelta() // the inserts after the last save
	if err != nil {
		c.Errorf("final delta: %v", err)
		rt.Close()
		return
	}
	deltas = append(deltas, d)
	full, err := memo.Snapshot()
	rt.Close()
	if err != nil {
		c.Errorf("full snapshot: %v", err)
		return
	}
	if !crashAppend(c, path, len(deltas)-1, d) {
		return
	}
	checkNoTmp(c, c.Dir, "drain-crash")
	checkChain(c, path, base, deltas, full)
}

// crashAppend appends delta i, d, to the chain at path and crashes the
// append after a seeded number of bytes. Oracle: the image keeps every
// committed byte, SalvageChain recovers exactly the last record boundary
// (the previous state, or the full new record when every byte landed),
// the salvaged prefix re-encodes bit-identically, and RepairChain
// followed by a re-append of the lost delta leaves the chain holding d.
// It reports false when a check left the chain unusable.
func crashAppend(c *Ctx, path string, i int, d *core.Delta) bool {
	good, err := os.ReadFile(path)
	if err != nil {
		c.Errorf("read committed chain: %v", err)
		return false
	}
	// Crash this append after a seeded number of bytes (the full
	// range: 0 = crash before any byte, total = crash after the
	// record landed but before the success return).
	failpoint.EnablePartial(persist.FailpointAppend, func(total int) (int, error) {
		return c.Intn(total + 1), failpoint.ErrCrash
	})
	aerr := persist.AppendDelta(path, d)
	failpoint.Disable(persist.FailpointAppend)
	if !errors.Is(aerr, failpoint.ErrCrash) {
		c.Errorf("append %d: crashed append returned %v", i, aerr)
		return false
	}
	img, err := os.ReadFile(path)
	if err != nil {
		c.Errorf("read crash image: %v", err)
		return false
	}
	if !bytes.HasPrefix(img, good) {
		c.Errorf("append %d: crash image lost committed bytes (%d -> %d)", i, len(good), len(img))
		return false
	}
	sb, sds, rep, serr := persist.SalvageChain(img)
	if serr != nil {
		c.Errorf("append %d: crash image unsalvageable: %v", i, serr)
		return false
	}
	// A torn frame can never form a valid boundary (the CRC trails
	// the body), so salvage keeps either the previous state or the
	// whole new record — nothing in between.
	if rep.BytesKept != int64(len(good)) && rep.BytesKept != int64(len(img)) {
		c.Errorf("append %d: salvage kept %d bytes, want %d (previous) or %d (complete)",
			i, rep.BytesKept, len(good), len(img))
	}
	reenc, err := persist.MarshalChain(sb, sds)
	if err != nil {
		c.Errorf("append %d: salvaged chain does not re-encode: %v", i, err)
		return false
	}
	if !bytes.Equal(reenc, img[:rep.BytesKept]) {
		c.Errorf("append %d: salvaged prefix is not canonical", i)
	}
	if _, err := persist.RepairChain(path, persist.SyncAlways); err != nil {
		c.Errorf("append %d: repair: %v", i, err)
		return false
	}
	repaired, err := os.ReadFile(path)
	if err != nil {
		c.Errorf("read repaired chain: %v", err)
		return false
	}
	if _, _, err := persist.LoadChain(path); err != nil {
		c.Errorf("append %d: repaired chain fails strict load: %v", i, err)
		return false
	}
	if len(repaired) == len(good) {
		// The record was lost with the crash; re-append it.
		if err := persist.AppendDelta(path, d); err != nil {
			c.Errorf("append %d: re-append after repair: %v", i, err)
			return false
		}
	}
	return true
}

// saveCrash kills atomic whole-table saves at seeded points (partial
// write, fsync, rename) while alternating between two snapshots.
// Oracle per crash: the published file is bit-identical to the previous
// committed state (a reader never sees a torn whole-table snapshot),
// the crash leaves exactly the documented residue (one stale *.tmp that
// RemoveStaleTemp sweeps), and a retry after the sweep converges.
func saveCrash(c *Ctx) {
	memo := core.New(core.Config{Mode: core.ModeStatic})
	rt := c.Runtime(taskrt.Config{Memoizer: memo})
	tt := rt.RegisterType(taskrt.TypeConfig{Name: "double", Memoize: true, Run: doubler})
	for v := 0; v < 4; v++ {
		rt.Submit(tt, taskrt.In(mkInput(v)), taskrt.Out(region.NewFloat64(16)))
	}
	rt.Wait()
	snapA, err := memo.Snapshot()
	if err != nil {
		c.Errorf("snapshot A: %v", err)
		rt.Close()
		return
	}
	for v := 4; v < 10; v++ {
		rt.Submit(tt, taskrt.In(mkInput(v)), taskrt.Out(region.NewFloat64(16)))
	}
	rt.Wait()
	snapB, err := memo.Snapshot()
	if err != nil {
		c.Errorf("snapshot B: %v", err)
		rt.Close()
		return
	}
	rt.Close()

	path := filepath.Join(c.Dir, "table.atmsnap")
	snaps := []*core.Snapshot{snapA, snapB}
	if err := persist.SaveChain(path, snaps[0], nil); err != nil {
		c.Errorf("initial save: %v", err)
		return
	}
	committed, err := os.ReadFile(path)
	if err != nil {
		c.Errorf("read committed snapshot: %v", err)
		return
	}
	iters := 8 + c.Intn(8)
	for i := 0; i < iters; i++ {
		next := snaps[(i+1)%2]
		// Seeded crash point: partial write, fsync, or rename.
		switch c.Intn(3) {
		case 0:
			failpoint.EnablePartial(persist.FailpointWrite, func(total int) (int, error) {
				return c.Intn(total + 1), failpoint.ErrCrash
			})
		case 1:
			failpoint.Enable(persist.FailpointSync, func() error { return failpoint.ErrCrash })
		default:
			failpoint.Enable(persist.FailpointRename, func() error { return failpoint.ErrCrash })
		}
		serr := persist.SaveChain(path, next, nil)
		failpoint.DisableAll()
		if !errors.Is(serr, failpoint.ErrCrash) {
			c.Errorf("iter %d: crashed save returned %v", i, serr)
			return
		}
		// The published file must be exactly the previous state: atomic
		// replace means a crash mid-save is invisible to readers.
		got, err := os.ReadFile(path)
		if err != nil {
			c.Errorf("iter %d: read published file: %v", i, err)
			return
		}
		if !bytes.Equal(got, committed) {
			c.Errorf("iter %d: crash corrupted the published snapshot (%d vs %d bytes)", i, len(got), len(committed))
			return
		}
		// Every crash point fires after the temp file is created, so the
		// crash image holds exactly one stale *.tmp; the sweep removes it.
		swept, err := persist.RemoveStaleTemp(path)
		if err != nil {
			c.Errorf("iter %d: sweep: %v", i, err)
			return
		}
		if !swept {
			c.Errorf("iter %d: crash left no stale temp to sweep", i)
		}
		checkNoTmp(c, c.Dir, "sweep")
		// Retry converges.
		if err := persist.SaveChain(path, next, nil); err != nil {
			c.Errorf("iter %d: retry save: %v", i, err)
			return
		}
		committed, err = os.ReadFile(path)
		if err != nil {
			c.Errorf("iter %d: read retried save: %v", i, err)
			return
		}
		if _, _, err := persist.LoadChain(path); err != nil {
			c.Errorf("iter %d: retried save does not load: %v", i, err)
			return
		}
	}
	checkNoTmp(c, c.Dir, "save-crash")
}

// serviceRecovery drives the harness end to end across simulated
// service lifetimes: a healthy run grows the chain, a crashed run tears
// its final delta append mid-record, and the next lifetime recovers
// under a seeded RecoverPolicy. Oracle: the crash never loses committed
// bytes, salvage warm-starts from the surviving prefix while cold
// discards and recreates, and every recovered chain is strictly
// loadable with no *.tmp residue.
func serviceRecovery(c *Ctx) {
	f := harness.FactoryFor("Blackscholes")
	chain := filepath.Join(c.Dir, "service.atmchain")

	run := func(opt harness.RunOptions) harness.Outcome {
		opt.SnapshotChain = chain
		return harness.RunOne(f, apps.ScaleTest, 2, harness.Static(true), opt)
	}

	// Lifetime 0: cold start creates the chain.
	if o := run(harness.RunOptions{}); o.SnapshotErr != nil {
		c.Errorf("initial lifetime: %v", o.SnapshotErr)
		return
	}
	lifetimes := 2 + c.Intn(2)
	for life := 0; life < lifetimes; life++ {
		good, err := os.ReadFile(chain)
		if err != nil {
			c.Errorf("lifetime %d: read committed chain: %v", life, err)
			return
		}
		// Crash the first delta append of this lifetime mid-record
		// (cut in [1, total-1]: at least one byte lands, never all of
		// them); the harness's bounded retries then fail cleanly, as a
		// dead process would simply stop.
		calls := 0
		failpoint.EnablePartial(persist.FailpointAppend, func(total int) (int, error) {
			calls++
			if calls == 1 {
				return 1 + c.Intn(total-1), failpoint.ErrCrash
			}
			return 0, failpoint.ErrInjected
		})
		o := run(harness.RunOptions{})
		failpoint.Disable(persist.FailpointAppend)
		if o.SnapshotErr == nil || o.SaverFailures == 0 {
			c.Errorf("lifetime %d: crashed run reported err=%v failures=%d", life, o.SnapshotErr, o.SaverFailures)
			return
		}
		img, err := os.ReadFile(chain)
		if err != nil {
			c.Errorf("lifetime %d: read crash image: %v", life, err)
			return
		}
		if !bytes.HasPrefix(img, good) || len(img) == len(good) {
			c.Errorf("lifetime %d: crash image is not committed-plus-torn-tail (%d -> %d bytes)",
				life, len(good), len(img))
			return
		}

		// Next lifetime recovers under a seeded policy.
		policy := harness.RecoverSalvage
		if c.Intn(2) == 0 {
			policy = harness.RecoverCold
		}
		o = run(harness.RunOptions{Recover: policy})
		if o.SnapshotErr != nil {
			c.Errorf("lifetime %d: %v recovery run: %v", life, policy, o.SnapshotErr)
			return
		}
		switch policy {
		case harness.RecoverSalvage:
			if !o.WarmStart || !o.Salvaged || o.ColdFallback {
				c.Errorf("lifetime %d: salvage must warm-start from the prefix: warm=%v salvaged=%v cold=%v",
					life, o.WarmStart, o.Salvaged, o.ColdFallback)
			}
			if o.Recovery.BytesTruncated == 0 {
				c.Errorf("lifetime %d: salvage recovery report is empty: %+v", life, o.Recovery)
			}
		case harness.RecoverCold:
			if o.WarmStart || o.Salvaged || !o.ColdFallback {
				c.Errorf("lifetime %d: cold must discard and recreate: warm=%v salvaged=%v cold=%v",
					life, o.WarmStart, o.Salvaged, o.ColdFallback)
			}
		}
		if _, _, err := persist.LoadChain(chain); err != nil {
			c.Errorf("lifetime %d: recovered chain fails strict load: %v", life, err)
			return
		}
		checkNoTmp(c, c.Dir, "recovery")
	}
}

// compactCrash kills the rewrite a served engine's save makes once the
// chain's deltas would outgrow its base: lifetime 0 saves a table of n
// keys, lifetime 1 serves more fresh keys than that and crashes its
// final save — the rewrite — at the write (a seeded partial-write
// offset), sync or rename failpoint, on every retry. Oracle: the old
// chain is byte-identical with at most one *.tmp beside it; a restart
// under every RecoverPolicy sweeps the temp and restores exactly the
// pre-rewrite table (lifetime 0's keys hit, lifetime 1's do not); and a
// retried save converges on a chain holding both lifetimes' keys.
func compactCrash(c *Ctx) {
	chain := filepath.Join(c.Dir, "service.atmchain")
	kind, _ := service.KindByName("swaptions")
	serve := func(policy harness.RecoverPolicy) (*service.Engine, harness.ServeInfo) {
		opt := harness.RunOptions{SnapshotChain: chain, Recover: policy}
		return harness.Serve(harness.Static(true), opt, service.Config{})
	}
	tasks := func(from, n int) []service.Task {
		ts := make([]service.Task, n)
		for i := range ts {
			ts[i] = service.Task{Kind: kind.Name, Input: service.Input(kind, uint64(from+i), 1)}
		}
		return ts
	}
	n := 4 + c.Intn(9)
	old, fresh := tasks(0, n), tasks(1000, 2*n+4) // fresh outgrows old's base
	do := func(e *service.Engine, ts []service.Task) bool {
		if _, _, err := e.Do(ts); err != nil {
			c.Errorf("serve: %v", err)
			return false
		}
		return true
	}

	// Lifetime 0: a cold start whose final save writes n keys' base.
	e, _ := serve(harness.RecoverStrict)
	if !do(e, old) {
		e.Close()
		return
	}
	if err := e.Close(); err != nil {
		c.Errorf("lifetime 0 save: %v", err)
		return
	}
	good, err := os.ReadFile(chain)
	if err != nil {
		c.Errorf("read committed chain: %v", err)
		return
	}

	// Lifetime 1: the final save rewrites, and crashes on every attempt.
	switch c.Intn(3) {
	case 0:
		failpoint.EnablePartial(persist.FailpointWrite, func(total int) (int, error) {
			return c.Intn(total + 1), failpoint.ErrCrash
		})
	case 1:
		failpoint.Enable(persist.FailpointSync, func() error { return failpoint.ErrCrash })
	default:
		failpoint.Enable(persist.FailpointRename, func() error { return failpoint.ErrCrash })
	}
	e, _ = serve(harness.RecoverStrict)
	ok := do(e, fresh)
	cerr := e.Close()
	failpoint.DisableAll()
	if !ok {
		return
	}
	if !errors.Is(cerr, failpoint.ErrCrash) {
		c.Errorf("crashed rewrite returned %v", cerr)
		return
	}
	img, err := os.ReadFile(chain)
	if err != nil {
		c.Errorf("read crash image: %v", err)
		return
	}
	if !bytes.Equal(img, good) {
		c.Errorf("crashed rewrite changed the chain (%d -> %d bytes)", len(good), len(img))
		return
	}
	tmps, _ := filepath.Glob(filepath.Join(c.Dir, "*.tmp"))
	if len(tmps) > 1 {
		c.Errorf("crashed rewrite left %d temp files", len(tmps))
	}
	tmp, _ := os.ReadFile(chain + ".tmp")

	// Restart under every policy from the crash image: warm, exactly
	// the pre-rewrite table, temp swept.
	for _, policy := range []harness.RecoverPolicy{harness.RecoverStrict, harness.RecoverSalvage, harness.RecoverCold} {
		if err := os.WriteFile(chain, good, 0o644); err != nil {
			c.Errorf("restore crash image: %v", err)
			return
		}
		if tmp != nil {
			if err := os.WriteFile(chain+".tmp", tmp, 0o644); err != nil {
				c.Errorf("restore crash image: %v", err)
				return
			}
		}
		e, info := serve(policy)
		if info.SnapshotErr != nil || !info.WarmStart || info.ColdFallback || info.RestoredEntries != int64(n) {
			c.Errorf("%v restart: warm=%v cold=%v restored %d of %d entries (err %v)",
				policy, info.WarmStart, info.ColdFallback, info.RestoredEntries, n, info.SnapshotErr)
		}
		checkNoTmp(c, c.Dir, "restart")
		for i, ts := range [][]service.Task{old, fresh} {
			for _, task := range ts {
				_, hit, err := e.Lookup(task.Kind, task.Input)
				if err != nil || hit != (i == 0) {
					c.Errorf("%v restart: lookup of a lifetime-%d key: hit=%v err=%v", policy, i, hit, err)
					break
				}
			}
		}
		if policy != harness.RecoverCold {
			e.Close()
			continue
		}
		// The retried save converges: both lifetimes' keys, one base.
		do(e, fresh)
		if err := e.Close(); err != nil {
			c.Errorf("retried save: %v", err)
			return
		}
		base, deltas, err := persist.LoadChain(chain)
		if err != nil {
			c.Errorf("retried save does not load: %v", err)
			return
		}
		full, err := persist.Compact(base, deltas...)
		if err != nil {
			c.Errorf("compact retried chain: %v", err)
			return
		}
		if got, want := len(keySet(full)), len(old)+len(fresh); got != want {
			c.Errorf("retried save holds %d keys, want %d", got, want)
		}
		checkNoTmp(c, c.Dir, "compact-crash")
	}
}
