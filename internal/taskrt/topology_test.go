package taskrt

import (
	"os"
	"path/filepath"
	"testing"
)

// writeFakeCPU lays out one cpuN directory with an L1 and an LLC entry.
func writeFakeCPU(t *testing.T, root string, cpu int, llcSize, llcShared string) {
	t.Helper()
	for idx, f := range []struct{ level, size, typ, shared string }{
		{"1", "32K", "Data", ""},
		{"3", llcSize, "Unified", llcShared},
	} {
		dir := filepath.Join(root, "cpu"+itoa(cpu), "cache", "index"+itoa(idx))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		shared := f.shared
		if shared == "" {
			shared = itoa(cpu)
		}
		for name, val := range map[string]string{
			"level": f.level, "size": f.size, "type": f.typ, "shared_cpu_list": shared,
		} {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(val+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// TestReadCacheTopologyTwoLLCs parses a synthetic two-socket tree: CPUs
// 0-3 share one 16M LLC slice, CPUs 4-7 another; the LLC size is one
// slice's.
func TestReadCacheTopologyTwoLLCs(t *testing.T) {
	root := t.TempDir()
	for cpu := 0; cpu < 8; cpu++ {
		shared := "0-3"
		if cpu >= 4 {
			shared = "4-7"
		}
		writeFakeCPU(t, root, cpu, "16384K", shared)
	}
	if tp := readCacheTopology(root); tp.llcBytes != 16384<<10 {
		t.Fatalf("llcBytes=%d", tp.llcBytes)
	}
}

// TestReadCacheTopologyMissing returns the zero topology for absent trees
// (the portable fallback path).
func TestReadCacheTopologyMissing(t *testing.T) {
	tp := readCacheTopology(filepath.Join(t.TempDir(), "nonexistent"))
	if tp.llcBytes != 0 {
		t.Fatalf("expected zero topology, got %+v", tp)
	}
	if got := tp.effectiveLLCBytes(); got != 8<<20 {
		t.Fatalf("fallback LLC=%d", got)
	}
}

// TestParseCacheSize covers the sysfs size suffixes.
func TestParseCacheSize(t *testing.T) {
	for _, c := range []struct {
		in   string
		want int64
	}{
		{"32K", 32 << 10}, {"2048K", 2048 << 10}, {"36M", 36 << 20},
		{"1G", 1 << 30}, {"123", 123}, {"", 0}, {"junk", 0},
	} {
		if got := parseCacheSize(c.in); got != c.want {
			t.Fatalf("parseCacheSize(%q)=%d want %d", c.in, got, c.want)
		}
	}
}
