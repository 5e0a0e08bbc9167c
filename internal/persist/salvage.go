package persist

import (
	"fmt"
	"io"
	"os"

	"atm/internal/core"
)

// This file is the recovery half of the crash-consistency story: the
// write paths (durable.go) guarantee a crash leaves either the previous
// file or a valid-prefix-plus-torn-tail, and the functions here turn
// the latter back into a valid file. Salvage is read-only
// classification; RepairChain is the mutating step that truncates the
// tail, and the only one callers may follow with AppendDelta — new
// records appended after torn bytes would be unreachable garbage.

// RecoveryReport describes what a salvage pass found and kept.
type RecoveryReport struct {
	// RecordsKept counts the records in the valid prefix.
	RecordsKept int
	// BytesKept is the salvage boundary: the file is valid up to this
	// offset (header included), and RepairChain truncates to it.
	BytesKept int64
	// BytesTruncated counts the torn-tail bytes past the boundary;
	// zero means the file was already clean.
	BytesTruncated int64
	// Reason is the decode failure that ended the valid prefix, empty
	// for a clean file.
	Reason string
}

// Clean reports whether the file needed no salvage.
func (r RecoveryReport) Clean() bool { return r.BytesTruncated == 0 }

// SalvageChain decodes as much of a chain as is valid. For a clean
// chain it behaves as UnmarshalChain with a Clean report. For a
// torn tail — the bytes ran out mid-record, the prefix before it
// intact, which is exactly what a crash mid-append or a lost tail page
// leaves — it returns the decoded prefix and a report saying what was
// dropped. Anything else (bad header, CRC mismatch, invalid record
// contents, a tear before the first record boundary) is unrecoverable: the error is returned and the
// report's Reason records it.
func SalvageChain(data []byte) (*core.Snapshot, []*core.Delta, RecoveryReport, error) {
	base, deltas, boundary, torn, err := scanChain(data)
	rep := RecoveryReport{
		RecordsKept:    len(deltas),
		BytesKept:      int64(boundary),
		BytesTruncated: int64(len(data) - boundary),
	}
	if base != nil {
		rep.RecordsKept++
	}
	if err == nil {
		if rep.RecordsKept == 0 {
			err = fmt.Errorf("%w: chain with no records", ErrCorrupt)
			rep.Reason = err.Error()
			return nil, nil, rep, err
		}
		return base, deltas, rep, nil
	}
	rep.Reason = err.Error()
	if torn && rep.RecordsKept > 0 {
		return base, deltas, rep, nil
	}
	return nil, nil, rep, fmt.Errorf("persist: unsalvageable chain: %w", err)
}

// LoadChainSalvage is LoadChain with a torn tail tolerated: a chain
// file cut mid-record loads as its valid prefix, with the report saying
// what was dropped. The file itself is not modified — call RepairChain
// before appending to a torn chain.
func LoadChainSalvage(path string) (*core.Snapshot, []*core.Delta, RecoveryReport, error) {
	var base *core.Snapshot
	var deltas []*core.Delta
	var rep RecoveryReport
	err := decodeFile(path, func(data []byte) (err error) {
		base, deltas, rep, err = SalvageChain(data)
		return err
	})
	if err != nil {
		return nil, nil, rep, err
	}
	return base, deltas, rep, nil
}

// RepairChain makes a chain file valid again after a crash: it sweeps
// the stale temp file a crashed save may have left, and if the chain
// has a torn tail, truncates it back to the last valid record boundary
// (atomically, via the same temp-and-rename discipline as a save, so a
// crash mid-repair cannot make things worse). A clean file is left
// untouched. Unrecoverable files are not modified either — the caller
// decides whether to discard them. The report describes what was (or
// for an unrecoverable file, would have to be) dropped.
func RepairChain(path string, sync SyncPolicy) (RecoveryReport, error) {
	if _, err := RemoveStaleTemp(path); err != nil {
		return RecoveryReport{}, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return RecoveryReport{}, err
	}
	_, _, rep, err := SalvageChain(data)
	if err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Clean() {
		return rep, nil
	}
	kept := data[:rep.BytesKept]
	err = writeAtomic(path, len(kept), func(w io.Writer) error {
		_, err := w.Write(kept)
		return err
	}, sync)
	if err != nil {
		return rep, err
	}
	return rep, nil
}
