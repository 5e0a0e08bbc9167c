package persist

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"

	"atm/internal/failpoint"
)

// This file is the durability discipline shared by every write path of
// the package: crash-consistent atomic rewrites (temp file + fsync +
// rename + directory fsync) and the failpoints that let tests tear any
// of those steps. The policy knob exists because the discipline has a
// real price — an fsync per save — that benchmarks measuring codec
// cost must be able to decline explicitly.

// SyncPolicy selects how hard a save pushes bytes toward the platter
// before reporting success.
type SyncPolicy int

const (
	// SyncAlways is the crash-consistent discipline and the default for
	// every Save/SaveChain/AppendDelta: the temp file is fsynced before
	// the publishing rename and the parent directory after it (on
	// ext4/xfs the rename can hit disk before the data, publishing an
	// empty or partial file), and an appended delta record is fsynced
	// before AppendDelta returns.
	SyncAlways SyncPolicy = iota
	// SyncOff skips every fsync: a crash may lose or tear the most
	// recent saves (the salvage path still recovers the valid prefix).
	// For benchmarks and throwaway state only.
	SyncOff
)

// Failpoint names (see internal/failpoint): FailpointWrite tears the
// temp-file write (partial-write injection: only a prefix of the bytes
// lands), FailpointSync fails the pre-rename fsync, FailpointRename
// fails the publishing rename, and FailpointAppend tears AppendDelta's
// record write. Tests use them to pin the error-path contracts —
// Save/SaveChain never leave a *.tmp file behind and a failed append
// leaves the chain loadable — and, with failpoint.ErrCrash, to freeze
// the exact on-disk image a crash would leave (internal/crashfuzz).
const (
	FailpointWrite  = "persist.write"
	FailpointSync   = "persist.sync"
	FailpointRename = "persist.rename"
	FailpointAppend = "persist.append"
)

// crashed reports whether an injected failure simulates a process
// crash: cleanup that a dead process could not have run (removing a
// temp file, truncating a torn append) must be skipped so the caller
// observes the on-disk crash image itself.
func crashed(err error) bool { return errors.Is(err, failpoint.ErrCrash) }

// writeAtomic writes the size bytes write produces to path via a
// same-directory temp file and rename, so a crash mid-write leaves the
// previous file (or none), and
// — under SyncAlways — fsyncs the temp file before the rename and the
// parent directory after it, so a crash just after return cannot
// publish a file whose data never hit disk. Every error path removes
// the temp file: a failed write can leave a partial file on disk
// (ENOSPC, EIO), and leaking it next to the target would accumulate
// one orphan per failed save. (After a real crash the orphan does
// survive; RemoveStaleTemp is the recovery-time sweep for it.) write
// may write in as many pieces as it likes; FailpointWrite's partial
// write lands a prefix of the size bytes, wherever the pieces fall.
func writeAtomic(path string, size int, write func(w io.Writer) error, sync SyncPolicy) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	drop := func(err error) error {
		f.Close()
		if !crashed(err) {
			os.Remove(tmp)
		}
		return err
	}
	n, werr := failpoint.InjectPartial(FailpointWrite, size)
	if err := write(&landWriter{w: f, n: n}); err != nil && werr == nil {
		werr = err
	}
	if werr != nil {
		return drop(werr)
	}
	if sync == SyncAlways {
		if err := failpoint.Inject(FailpointSync); err != nil {
			return drop(err)
		}
		if err := f.Sync(); err != nil {
			return drop(err)
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := failpoint.Inject(FailpointRename); err != nil {
		if !crashed(err) {
			os.Remove(tmp)
		}
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if sync == SyncAlways {
		return syncDir(filepath.Dir(path))
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
// Filesystems that cannot fsync a directory (some network and FUSE
// mounts) report EINVAL/ENOTSUP; that is the platform declining, not
// the save failing, so it is not surfaced as an error.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil && (errors.Is(err, errors.ErrUnsupported) || errors.Is(err, syscall.EINVAL)) {
		return nil
	}
	return err
}

// RemoveStaleTemp removes the temp file a crashed save may have left
// next to path, reporting whether one existed. Safe to call on every
// recovery: the temp name is an implementation detail of this package,
// and any file under it is by construction an unpublished partial
// write.
func RemoveStaleTemp(path string) (bool, error) {
	tmp := path + ".tmp"
	if err := os.Remove(tmp); err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return false, nil
		}
		return false, err
	}
	return true, nil
}
