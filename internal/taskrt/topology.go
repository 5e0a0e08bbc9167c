package taskrt

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// Last-level-cache discovery for the adaptive submission-throttle
// watermark, which targets a live task graph that is a fixed fraction of
// the LLC. The size comes from /sys/devices/system/cpu/cpu*/cache on
// Linux. On other platforms, or when sysfs is absent, the zero topology
// is returned and the throttle falls back to a default LLC size.

// cacheTopo describes the machine's last-level cache.
type cacheTopo struct {
	// llcBytes is the size of one LLC slice in bytes (0 when unknown).
	llcBytes int64
}

var (
	topoOnce sync.Once
	topoVal  cacheTopo
)

// topology returns the host's cache topology, discovered once per process.
func topology() cacheTopo {
	topoOnce.Do(func() {
		topoVal = readCacheTopology("/sys/devices/system/cpu")
	})
	return topoVal
}

// readCacheTopology parses a sysfs-style CPU tree. It is split from
// topology() so tests can point it at a synthetic tree.
func readCacheTopology(root string) cacheTopo {
	// Glob fails only on a malformed pattern, and these are constant.
	cpuDirs, _ := filepath.Glob(filepath.Join(root, "cpu[0-9]*"))
	var tp cacheTopo
	for _, dir := range cpuDirs {
		if size := lastLevelCacheBytes(filepath.Join(dir, "cache")); size > tp.llcBytes {
			tp.llcBytes = size
		}
	}
	return tp
}

// lastLevelCacheBytes scans one cpu's cache/index* entries and returns
// the size in bytes of the highest-level unified/data cache (0 when
// none is listed).
func lastLevelCacheBytes(cacheDir string) (size int64) {
	idxDirs, _ := filepath.Glob(filepath.Join(cacheDir, "index[0-9]*"))
	level := 0
	for _, idx := range idxDirs {
		if readTrimmed(filepath.Join(idx, "type")) == "Instruction" {
			continue
		}
		lv, err := strconv.Atoi(readTrimmed(filepath.Join(idx, "level")))
		if err != nil || lv <= level {
			continue
		}
		if sz := parseCacheSize(readTrimmed(filepath.Join(idx, "size"))); sz > 0 {
			level, size = lv, sz
		}
	}
	return size
}

func readTrimmed(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// parseCacheSize parses sysfs cache sizes like "32K", "2048K", "36M".
func parseCacheSize(s string) int64 {
	if s == "" {
		return 0
	}
	mult := int64(1)
	switch s[len(s)-1] {
	case 'K', 'k':
		mult, s = 1<<10, s[:len(s)-1]
	case 'M', 'm':
		mult, s = 1<<20, s[:len(s)-1]
	case 'G', 'g':
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < 0 {
		return 0
	}
	return n * mult
}

// effectiveLLCBytes returns the LLC size the adaptive throttle should
// target, substituting a conservative default when discovery failed and
// clamping implausible sizes (huge virtualized L3s would otherwise let
// the live task graph grow far past what stays cache-resident).
func (tp cacheTopo) effectiveLLCBytes() int64 {
	const (
		defaultLLC = 8 << 20
		minLLC     = 1 << 20
		maxLLC     = 64 << 20
	)
	b := tp.llcBytes
	if b <= 0 {
		return defaultLLC
	}
	if b < minLLC {
		return minLLC
	}
	if b > maxLLC {
		return maxLLC
	}
	return b
}
