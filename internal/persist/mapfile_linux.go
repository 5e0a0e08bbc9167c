package persist

import (
	"os"
	"syscall"
)

// mapFile maps f read-only, its pages populated up front so the decode
// that follows reads memory instead of taking page faults. It returns
// nil, and no error, for what it does not map: anything but a
// non-empty regular file.
func mapFile(f *os.File) ([]byte, error) {
	fi, err := f.Stat()
	if err != nil || !fi.Mode().IsRegular() || fi.Size() <= 0 {
		return nil, err
	}
	return syscall.Mmap(int(f.Fd()), 0, int(fi.Size()), syscall.PROT_READ, syscall.MAP_PRIVATE|syscall.MAP_POPULATE)
}

// unmapFile releases a mapping mapFile made. Its error is dropped: the
// decode is over, and a mapping that fails to unmap changes nothing the
// caller could act on.
func unmapFile(data []byte) { _ = syscall.Munmap(data) }
