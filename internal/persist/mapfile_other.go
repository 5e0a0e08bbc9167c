//go:build !linux

package persist

import "os"

// mapFile maps nothing off Linux: loads read the file into memory.
func mapFile(*os.File) ([]byte, error) { return nil, nil }

// unmapFile is never called off Linux.
func unmapFile([]byte) {}
