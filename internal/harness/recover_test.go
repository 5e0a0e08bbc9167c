package harness

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"atm/internal/apps"
	"atm/internal/failpoint"
	"atm/internal/persist"
)

// buildChainFile runs two chain-mode repetitions (cold then warm) and
// returns the chain path plus its healthy bytes.
func buildChainFile(t *testing.T, dir string) (string, []byte) {
	t.Helper()
	f := FactoryFor("Blackscholes")
	chain := filepath.Join(dir, "warm.atmchain")
	for i := 0; i < 2; i++ {
		if o := RunOne(f, apps.ScaleTest, 4, Static(true), RunOptions{SnapshotChain: chain}); o.SnapshotErr != nil {
			t.Fatalf("rep %d: %v", i, o.SnapshotErr)
		}
	}
	data, err := os.ReadFile(chain)
	if err != nil {
		t.Fatal(err)
	}
	return chain, data
}

// TestRecoverPolicyMatrix pins the three reactions to a torn chain
// file (the docs/persistence.md matrix): strict reports and runs cold
// leaving the file for inspection; salvage repairs it and warm-starts
// from the prefix; cold discards it and recreates the chain.
func TestRecoverPolicyMatrix(t *testing.T) {
	f := FactoryFor("Blackscholes")
	chain, healthy := buildChainFile(t, t.TempDir())
	torn := healthy[:len(healthy)-3] // cut inside the last record

	tear := func() {
		t.Helper()
		if err := os.WriteFile(chain, torn, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Strict: the damage is surfaced, the run is cold, the file is
	// untouched for snapshotctl to inspect.
	tear()
	o := RunOne(f, apps.ScaleTest, 4, Static(true), RunOptions{SnapshotChain: chain, Recover: RecoverStrict})
	if o.SnapshotErr == nil || o.WarmStart || o.Salvaged || o.ColdFallback {
		t.Fatalf("strict on torn chain: %+v (err=%v)", o, o.SnapshotErr)
	}
	if got, _ := os.ReadFile(chain); !bytes.Equal(got, torn) {
		t.Fatal("strict must leave the damaged file untouched")
	}

	// Salvage: the torn tail is truncated on disk, the run warm-starts
	// from the surviving prefix and appends its own delta afterwards.
	o = RunOne(f, apps.ScaleTest, 4, Static(true), RunOptions{SnapshotChain: chain, Recover: RecoverSalvage})
	if o.SnapshotErr != nil {
		t.Fatalf("salvage run: %v", o.SnapshotErr)
	}
	if !o.WarmStart || !o.Salvaged || o.ColdFallback || o.RestoredEntries == 0 {
		t.Fatalf("salvage on torn chain must warm-start from the prefix: %+v", o)
	}
	if o.Recovery.BytesTruncated == 0 || o.Recovery.RecordsKept == 0 {
		t.Fatalf("salvage recovery report: %+v", o.Recovery)
	}
	if _, _, err := persist.LoadChain(chain); err != nil {
		t.Fatalf("chain after salvage run must load strictly: %v", err)
	}

	// Salvage on a clean file is invisible: no report, plain warm start.
	o = RunOne(f, apps.ScaleTest, 4, Static(true), RunOptions{SnapshotChain: chain, Recover: RecoverSalvage})
	if o.SnapshotErr != nil || !o.WarmStart || o.Salvaged || o.ColdFallback {
		t.Fatalf("salvage on clean chain: %+v (err=%v)", o, o.SnapshotErr)
	}

	// Cold: the damaged file is discarded, the run starts cold and
	// recreates the chain, which then loads clean.
	tear()
	o = RunOne(f, apps.ScaleTest, 4, Static(true), RunOptions{SnapshotChain: chain, Recover: RecoverCold})
	if o.SnapshotErr != nil {
		t.Fatalf("cold run: %v", o.SnapshotErr)
	}
	if o.WarmStart || o.Salvaged || !o.ColdFallback {
		t.Fatalf("cold on torn chain must discard and run cold: %+v", o)
	}
	if _, _, err := persist.LoadChain(chain); err != nil {
		t.Fatalf("recreated chain must load strictly: %v", err)
	}

	// Salvage on unrecoverable corruption degrades to the cold path.
	bad := bytes.Clone(healthy)
	bad[len(bad)-6] ^= 0xff // inside the last record body: CRC trips
	if err := os.WriteFile(chain, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	o = RunOne(f, apps.ScaleTest, 4, Static(true), RunOptions{SnapshotChain: chain, Recover: RecoverSalvage})
	if o.SnapshotErr != nil {
		t.Fatalf("salvage-on-corrupt run: %v", o.SnapshotErr)
	}
	if o.WarmStart || o.Salvaged || !o.ColdFallback {
		t.Fatalf("salvage on corrupt chain must fall back cold: %+v", o)
	}
	if _, _, err := persist.LoadChain(chain); err != nil {
		t.Fatalf("recreated chain must load strictly: %v", err)
	}
}

// TestRecoverPolicyOnVersionOneFile runs each recovery policy on a
// version-1 file, the persist package's golden chain with its version
// field set to 1. No reader takes that version, so strict reports the
// typed error and leaves the file as it was, and salvage and cold
// discard it like any unloadable file and recreate a version-2 chain.
func TestRecoverPolicyOnVersionOneFile(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("..", "persist", "testdata", "v2_chain.atmsnap"))
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(v1[8:12], 1)
	f := FactoryFor("Blackscholes")
	chain := filepath.Join(t.TempDir(), "old.atmsnap")
	for _, policy := range []RecoverPolicy{RecoverStrict, RecoverSalvage, RecoverCold} {
		if err := os.WriteFile(chain, v1, 0o644); err != nil {
			t.Fatal(err)
		}
		o := RunOne(f, apps.ScaleTest, 2, Static(true), RunOptions{SnapshotChain: chain, Recover: policy})
		data, err := os.ReadFile(chain)
		if err != nil {
			t.Fatal(err)
		}
		if policy == RecoverStrict {
			if !errors.Is(o.SnapshotErr, persist.ErrVersion) || o.WarmStart || o.ColdFallback || o.DeltaSaves != 0 {
				t.Fatalf("strict: %+v (err=%v)", o, o.SnapshotErr)
			}
			if !bytes.Equal(data, v1) {
				t.Fatal("strict: the refused file was modified")
			}
			continue
		}
		if o.SnapshotErr != nil || o.WarmStart || !o.ColdFallback || o.DeltaSaves != 1 {
			t.Fatalf("%v: want a cold start that recreates the chain: %+v (err=%v)", policy, o, o.SnapshotErr)
		}
		if v, _ := persist.FileVersion(data); v != persist.Version2 {
			t.Fatalf("%v: recreated a version-%d file", policy, v)
		}
		if _, _, err := persist.UnmarshalChain(data); err != nil {
			t.Fatalf("%v: recreated chain must load strictly: %v", policy, err)
		}
	}
}

// TestSaverRetryAndFailureBudget pins the saver's bounded retry on
// both save paths: transient failures are retried with backoff and
// succeed silently (counted in SaverRetries), persistent failures
// exhaust the budget, land in SnapshotErr and count as a SaverFailure.
// The cold run's final save rewrites its empty base (FailpointWrite,
// after the one write that creates the chain); the warm runs'
// near-empty deltas append (FailpointAppend).
func TestSaverRetryAndFailureBudget(t *testing.T) {
	defer failpoint.DisableAll()
	oldBase, oldMax := saverBackoffBase, saverMaxAttempts
	saverBackoffBase, saverMaxAttempts = time.Millisecond, 3
	defer func() { saverBackoffBase, saverMaxAttempts = oldBase, oldMax }()

	f := FactoryFor("Blackscholes")
	chain := filepath.Join(t.TempDir(), "warm.atmchain")

	// failTwice lets skip writes through a failpoint, fails the next
	// two attempts, and lets the third land.
	failTwice := func(name string, skip int) {
		calls := 0
		failpoint.Enable(name, func() error {
			calls++
			if calls > skip && calls <= skip+2 {
				return failpoint.ErrInjected
			}
			return nil
		})
	}
	for _, fp := range []string{persist.FailpointWrite, persist.FailpointAppend} {
		skip := 0
		if fp == persist.FailpointWrite {
			skip = 1 // the cold start's creation of the chain
		}
		failTwice(fp, skip)
		o := RunOne(f, apps.ScaleTest, 4, Static(true), RunOptions{SnapshotChain: chain})
		failpoint.Disable(fp)
		if o.SnapshotErr != nil {
			t.Fatalf("%s: transient failures within budget must not surface: %v", fp, o.SnapshotErr)
		}
		if o.SaverRetries != 2 || o.SaverFailures != 0 || o.DeltaSaves != 1 {
			t.Fatalf("%s: retry accounting: retries=%d failures=%d saves=%d", fp, o.SaverRetries, o.SaverFailures, o.DeltaSaves)
		}
		if _, _, err := persist.LoadChain(chain); err != nil {
			t.Fatalf("%s: chain after retried save must load strictly: %v", fp, err)
		}
	}

	// Persistent failure: the budget is spent, the save abandoned.
	failpoint.Enable(persist.FailpointAppend, func() error { return failpoint.ErrInjected })
	o := RunOne(f, apps.ScaleTest, 4, Static(true), RunOptions{SnapshotChain: chain})
	failpoint.Disable(persist.FailpointAppend)
	if o.SnapshotErr == nil || o.SaverFailures != 1 || o.DeltaSaves != 0 {
		t.Fatalf("exhausted budget: err=%v failures=%d saves=%d", o.SnapshotErr, o.SaverFailures, o.DeltaSaves)
	}
	if o.SaverRetries != saverMaxAttempts-1 {
		t.Fatalf("exhausted budget retries: %d, want %d", o.SaverRetries, saverMaxAttempts-1)
	}
	// The failed append self-truncated every attempt: the chain still
	// loads strictly (it just lacks the abandoned delta).
	if _, _, err := persist.LoadChain(chain); err != nil {
		t.Fatalf("chain after abandoned save must load strictly: %v", err)
	}
}
