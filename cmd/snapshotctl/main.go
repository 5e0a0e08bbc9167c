// Command snapshotctl operates on ATM memoization snapshot files,
// version-2 chains (docs/persistence.md); a file of any other version
// is refused as unloadable:
//
//	snapshotctl inspect <file>...          summarize header, records and sections
//	snapshotctl verify <file>...           classify file health (see exit codes)
//	snapshotctl repair <file>...           truncate torn tails, sweep stale temp files
//	snapshotctl scrub [-repair] <dir>...   walk shard directories, classify every snapshot
//	snapshotctl compact -o out <file>...   fold a chain (base + deltas) into one full snapshot
//	snapshotctl merge -o out <file>...     merge shard snapshots/chains into one warm-start file
//
// verify and scrub distinguish outcomes by exit code so recovery
// scripts can branch without parsing output: 0 every file clean, 2 at
// least one salvageable torn tail (a crash artifact; `snapshotctl
// repair` fixes it), 3 at least one unrecoverable file (corruption —
// restore from a replica or start cold), 1 for I/O errors. Invocation
// errors also exit 2 but print a usage line to stderr.
//
// compact consumes one chain: the first file must carry the base
// record, later files may be delta-only continuations (a shard's
// incremental saves), applied in argument order. merge first compacts
// every input independently, then combines them last-writer-wins by
// key with the deterministic tie-break pinned in persist.MergeSnapshots
// — the shard-merge workflow of a sweep split across machines. Both
// write a version-2 file holding a single base record.
package main

import (
	"flag"
	"fmt"
	"io"
	iofs "io/fs"
	"os"
	"path/filepath"
	"strings"

	"atm/internal/core"
	"atm/internal/persist"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(err io.Writer) int {
	fmt.Fprintln(err, "usage: snapshotctl <inspect|verify|repair|scrub|compact|merge> [-o out] [-repair] <file|dir>...")
	return 2
}

func run(args []string, out, errw io.Writer) int {
	if len(args) < 1 {
		return usage(errw)
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "inspect":
		return inspect(rest, out, errw)
	case "verify":
		return verify(rest, out, errw)
	case "repair":
		return repair(rest, out, errw)
	case "scrub":
		return scrub(rest, out, errw)
	case "compact":
		return fold(rest, out, errw, false)
	case "merge":
		return fold(rest, out, errw, true)
	default:
		fmt.Fprintf(errw, "snapshotctl: unknown command %q\n", cmd)
		return usage(errw)
	}
}

func inspect(paths []string, out, errw io.Writer) int {
	if len(paths) == 0 {
		return usage(errw)
	}
	code := 0
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(errw, "snapshotctl: %v\n", err)
			code = 1
			continue
		}
		base, deltas, err := persist.UnmarshalChain(data)
		if err != nil {
			fmt.Fprintf(errw, "snapshotctl: %s: %v\n", path, err)
			code = 1
			continue
		}
		ver, _ := persist.FileVersion(data) // the decode validated the header
		fp := fingerprintOf(base, deltas)
		fmt.Fprintf(out, "%s: version %d, fingerprint %#016x, %d bytes\n",
			path, ver, fp, len(data))
		if base != nil {
			entries, bytes := snapshotStats(base)
			fmt.Fprintf(out, "  base: %d sections, %d entries, ~%d payload bytes (IKT inserts=%d defers=%d rejected=%d)\n",
				len(base.Types), entries, bytes, base.IKT.Inserts, base.IKT.Defers, base.IKT.Rejected)
			for i := range base.Types {
				sec := &base.Types[i]
				phase := "training"
				if sec.Steady {
					phase = "steady"
				}
				fmt.Fprintf(out, "    type %-24q %s level=%d successes=%d entries=%d\n",
					sec.Name, phase, sec.Level, sec.Successes, len(sec.Entries))
			}
		}
		for i, d := range deltas {
			types, metas, entries := d.Stats()
			if tombs := d.Tombstones(); tombs > 0 {
				fmt.Fprintf(out, "  delta %d: %d types (%d with metadata), %d entries, %d tombstones\n", i+1, types, metas, entries, tombs)
			} else {
				fmt.Fprintf(out, "  delta %d: %d types (%d with metadata), %d entries\n", i+1, types, metas, entries)
			}
		}
	}
	return code
}

func fingerprintOf(base *core.Snapshot, deltas []*core.Delta) uint64 {
	if base != nil {
		return base.Fingerprint
	}
	if len(deltas) > 0 {
		return deltas[0].Fingerprint
	}
	return 0
}

func snapshotStats(s *core.Snapshot) (entries int, payload int64) {
	for i := range s.Types {
		entries += len(s.Types[i].Entries)
		for j := range s.Types[i].Entries {
			e := &s.Types[i].Entries[j]
			for _, r := range e.Outs {
				payload += int64(r.NumBytes())
			}
		}
	}
	return entries, payload
}

// Verify/scrub exit codes, also used as per-file severities (a run's
// exit code is its worst file's).
const (
	fileClean         = 0
	fileIOError       = 1
	fileTorn          = 2
	fileUnrecoverable = 3
)

// classify decides one file's health for verify and scrub: clean,
// salvageable torn tail, unrecoverable corruption, or unreadable.
func classify(path string) (code int, base *core.Snapshot, deltas []*core.Delta, rep persist.RecoveryReport, err error) {
	base, deltas, rep, err = persist.LoadChainSalvage(path)
	switch {
	case err == nil && rep.Clean():
		return fileClean, base, deltas, rep, nil
	case err == nil:
		return fileTorn, base, deltas, rep, nil
	case rep.Reason == "":
		// No decode ran: the file could not be read at all.
		return fileIOError, nil, nil, rep, err
	default:
		return fileUnrecoverable, nil, nil, rep, err
	}
}

func verify(paths []string, out, errw io.Writer) int {
	if len(paths) == 0 {
		return usage(errw)
	}
	code := 0
	for _, path := range paths {
		c, base, deltas, rep, err := classify(path)
		switch c {
		case fileClean:
			entries := 0
			if base != nil {
				entries, _ = snapshotStats(base)
			}
			for _, d := range deltas {
				entries += len(d.Entries)
			}
			fmt.Fprintf(out, "%s: OK (%d deltas, %d entries)\n", path, len(deltas), entries)
		case fileTorn:
			fmt.Fprintf(out, "%s: TORN tail — %d records / %d bytes salvageable, %d bytes torn (%s); run `snapshotctl repair %s`\n",
				path, rep.RecordsKept, rep.BytesKept, rep.BytesTruncated, rep.Reason, path)
		default:
			fmt.Fprintf(errw, "snapshotctl: FAIL %v\n", err)
		}
		if c > code {
			code = c
		}
	}
	return code
}

// repair truncates torn tails back to the last valid record boundary
// and sweeps stale temp files. Clean files are untouched, unrecoverable
// files are refused (exit 3) — repair never guesses.
func repair(paths []string, out, errw io.Writer) int {
	if len(paths) == 0 {
		return usage(errw)
	}
	code := 0
	for _, path := range paths {
		rep, err := persist.RepairChain(path, persist.SyncAlways)
		c := fileClean
		switch {
		case err == nil && rep.Clean():
			fmt.Fprintf(out, "%s: clean (%d records)\n", path, rep.RecordsKept)
		case err == nil:
			fmt.Fprintf(out, "%s: repaired — kept %d records / %d bytes, dropped %d torn bytes (%s)\n",
				path, rep.RecordsKept, rep.BytesKept, rep.BytesTruncated, rep.Reason)
		case rep.Reason == "":
			fmt.Fprintf(errw, "snapshotctl: FAIL %v\n", err)
			c = fileIOError
		default:
			fmt.Fprintf(errw, "snapshotctl: FAIL %v\n", err)
			c = fileUnrecoverable
		}
		if c > code {
			code = c
		}
	}
	return code
}

// scrub walks shard directories, sniffs out snapshot files by magic,
// classifies each, and reports orphaned temp files from crashed saves.
// With -repair it truncates torn tails and removes the orphans, so a
// post-crash `snapshotctl scrub -repair <dir>` leaves the whole shard
// tree clean.
func scrub(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("snapshotctl scrub", flag.ContinueOnError)
	fs.SetOutput(errw)
	fix := fs.Bool("repair", false, "repair torn chains and remove orphaned temp files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	dirs := fs.Args()
	if len(dirs) == 0 {
		return usage(errw)
	}
	code := 0
	worst := func(c int) {
		if c > code {
			code = c
		}
	}
	var clean, torn, repaired, unrecoverable, orphans, swept int
	for _, dir := range dirs {
		err := filepath.WalkDir(dir, func(path string, d iofs.DirEntry, err error) error {
			if err != nil {
				fmt.Fprintf(errw, "snapshotctl: %v\n", err)
				worst(fileIOError)
				return nil
			}
			if d.IsDir() {
				return nil
			}
			if strings.HasSuffix(path, ".tmp") {
				// A temp file next to its target is an unpublished save
				// from a crashed process; it is never valid state.
				if *fix {
					if err := os.Remove(path); err != nil {
						fmt.Fprintf(errw, "snapshotctl: %v\n", err)
						worst(fileIOError)
						return nil
					}
					swept++
					fmt.Fprintf(out, "%s: orphaned temp file removed\n", path)
				} else {
					orphans++
					worst(fileTorn)
					fmt.Fprintf(out, "%s: orphaned temp file (crashed save); run `snapshotctl scrub -repair`\n", path)
				}
				return nil
			}
			head := make([]byte, 8)
			f, err := os.Open(path)
			if err != nil {
				fmt.Fprintf(errw, "snapshotctl: %v\n", err)
				worst(fileIOError)
				return nil
			}
			n, _ := io.ReadFull(f, head)
			f.Close()
			if !persist.HasMagic(head[:n]) {
				return nil // not a snapshot file
			}
			c, _, _, rep, cerr := classify(path)
			switch c {
			case fileClean:
				clean++
			case fileTorn:
				if *fix {
					if _, err := persist.RepairChain(path, persist.SyncAlways); err != nil {
						fmt.Fprintf(errw, "snapshotctl: %v\n", err)
						worst(fileIOError)
						return nil
					}
					repaired++
					fmt.Fprintf(out, "%s: repaired — kept %d records, dropped %d torn bytes\n", path, rep.RecordsKept, rep.BytesTruncated)
				} else {
					torn++
					worst(fileTorn)
					fmt.Fprintf(out, "%s: TORN tail — %d records salvageable, %d bytes torn\n", path, rep.RecordsKept, rep.BytesTruncated)
				}
			default:
				unrecoverable++
				worst(c)
				fmt.Fprintf(errw, "snapshotctl: FAIL %v\n", cerr)
			}
			return nil
		})
		if err != nil {
			fmt.Fprintf(errw, "snapshotctl: %v\n", err)
			worst(fileIOError)
		}
	}
	fmt.Fprintf(out, "scrub: %d clean, %d torn, %d repaired, %d unrecoverable, %d orphaned temps, %d swept\n",
		clean, torn, repaired, unrecoverable, orphans, swept)
	return code
}

// fold implements compact (merge == false: one chain across the input
// files, in order) and merge (every input is an independent shard,
// compacted then merged).
func fold(args []string, out, errw io.Writer, merge bool) int {
	name := "compact"
	if merge {
		name = "merge"
	}
	fs := flag.NewFlagSet("snapshotctl "+name, flag.ContinueOnError)
	fs.SetOutput(errw)
	outPath := fs.String("o", "", "output snapshot file (required)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	paths := fs.Args()
	if *outPath == "" || len(paths) == 0 {
		fmt.Fprintf(errw, "usage: snapshotctl %s -o out <file>...\n", name)
		return 2
	}

	var full *core.Snapshot
	if merge {
		shards := make([]*core.Snapshot, 0, len(paths))
		for _, path := range paths {
			base, deltas, err := persist.LoadChain(path)
			if err != nil {
				fmt.Fprintf(errw, "snapshotctl: %v\n", err)
				return 1
			}
			if base == nil {
				// merge treats every input as an independent shard; a
				// delta-only continuation file belongs to some shard's
				// chain and must be folded with its base first.
				fmt.Fprintf(errw, "snapshotctl: %s: delta-only file — merge inputs are independent shards; run `snapshotctl compact -o shard.full <base-chain> %s` first\n", path, path)
				return 1
			}
			shard, err := persist.Compact(base, deltas...)
			if err != nil {
				fmt.Fprintf(errw, "snapshotctl: %s: %v\n", path, err)
				return 1
			}
			shards = append(shards, shard)
		}
		var err error
		full, err = persist.MergeSnapshots(shards...)
		if err != nil {
			fmt.Fprintf(errw, "snapshotctl: %v\n", err)
			return 1
		}
	} else {
		var base *core.Snapshot
		var chain []*core.Delta
		for i, path := range paths {
			b, deltas, err := persist.LoadChain(path)
			if err != nil {
				fmt.Fprintf(errw, "snapshotctl: %v\n", err)
				return 1
			}
			switch {
			case i == 0 && b == nil:
				fmt.Fprintf(errw, "snapshotctl: %s: the first chain file must carry the base record\n", path)
				return 1
			case i > 0 && b != nil:
				fmt.Fprintf(errw, "snapshotctl: %s: continuation files must be delta-only (found a second base)\n", path)
				return 1
			case i == 0:
				base = b
			}
			chain = append(chain, deltas...)
		}
		var err error
		full, err = persist.Compact(base, chain...)
		if err != nil {
			fmt.Fprintf(errw, "snapshotctl: %v\n", err)
			return 1
		}
	}

	if err := persist.SaveChain(*outPath, full, nil); err != nil {
		fmt.Fprintf(errw, "snapshotctl: %v\n", err)
		return 1
	}
	entries, _ := snapshotStats(full)
	fmt.Fprintf(out, "%s: %d input file(s) -> %d sections, %d entries\n", *outPath, len(paths), len(full.Types), entries)
	return 0
}
