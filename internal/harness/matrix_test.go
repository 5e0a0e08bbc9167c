package harness

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"atm/internal/apps"
	"atm/internal/hashx"
	"atm/internal/taskrt"
)

// The deterministic RunOne matrix is pinned by a committed golden file:
// every cell's per-type counters, the table's counters and a digest of
// the application's result. A deterministic run depends only on the
// program, seed, discipline, worker count and window, so any change that
// moves a cell changed what ATM decides or returns for some task.
//
// Regenerate the file with:
//
//	go test ./internal/harness -run RunOneMatrix -update
//
// only after a change that is meant to move the matrix, and say in the
// commit which cells moved and why.
var updateMatrix = flag.Bool("update", false, "rewrite testdata/runone_matrix.golden")

const matrixGolden = "testdata/runone_matrix.golden"

// matrixCell is one deterministic RunOne configuration.
type matrixCell struct {
	app   string
	spec  ATMSpec
	seed  uint64
	sched taskrt.DetSched
}

func (c matrixCell) name() string {
	return fmt.Sprintf("%s/%s/seed%d/%s", c.app, c.spec.Mode, c.seed, c.sched)
}

// matrixCells lists the matrix: the five apps other than Swaptions ×
// Static/Dynamic × seeds 1–3 × fifo/lifo, and Swaptions, whose cells take
// the longest by far, at seed 1 only.
func matrixCells() []matrixCell {
	var cells []matrixCell
	for _, app := range Benchmarks() {
		seeds := []uint64{1, 2, 3}
		if app == "Swaptions" {
			seeds = seeds[:1]
		}
		for _, spec := range []ATMSpec{Static(true), Dynamic(true)} {
			for _, seed := range seeds {
				for _, sched := range []taskrt.DetSched{taskrt.DetSchedFIFO, taskrt.DetSchedLIFO} {
					cells = append(cells, matrixCell{app, spec, seed, sched})
				}
			}
		}
	}
	return cells
}

// runCell runs one cell and renders what it pins, one line per type
// after a line of table counters and the result digest.
func runCell(c matrixCell) string {
	out := RunOne(FactoryFor(c.app), apps.ScaleBench, 2, c.spec,
		RunOptions{Seed: c.seed, Deterministic: true, DetSched: c.sched})
	h := hashx.New(hashx.Lookup3, 0)
	for _, r := range out.App.Result() {
		r.HashWords(h)
	}
	st := out.Stats
	var b strings.Builder
	fmt.Fprintf(&b, "%s lookups=%d hits=%d entries=%d result=%016x\n",
		c.name(), st.THTLookups, st.THTHits, st.THTEntries, h.Sum64())
	for _, ts := range st.Types {
		fmt.Fprintf(&b, "  %s tasks=%d exec=%d tht=%d ikt=%d trainHits=%d trainFail=%d level=%d steady=%t\n",
			ts.Name, ts.Tasks, ts.Executed, ts.MemoizedTHT, ts.MemoizedIKT,
			ts.TrainingHits, ts.TrainingFailures, ts.Level, ts.Steady)
	}
	return b.String()
}

// TestRunOneMatrixGolden runs every cell as a parallel subtest and
// compares the whole matrix with the golden file. It checks on amd64
// only: Go fuses multiply-adds on other architectures (arm64 among
// them), so outputs, and with them grades, may differ there.
func TestRunOneMatrixGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the golden matrix is recorded on amd64, this is %s", runtime.GOARCH)
	}
	cells := matrixCells()
	got := make([]string, len(cells))
	t.Run("cells", func(t *testing.T) {
		for i, c := range cells {
			t.Run(c.name(), func(t *testing.T) {
				t.Parallel()
				got[i] = runCell(c)
			})
		}
	})
	text := strings.Join(got, "")
	if *updateMatrix {
		if err := os.MkdirAll(filepath.Dir(matrixGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(matrixGolden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(matrixGolden)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	if text == string(want) {
		return
	}
	golden := splitCells(string(want))
	for i, c := range cells {
		if w := golden[c.name()]; w != got[i] {
			t.Errorf("cell %s moved:\n golden:\n%s got:\n%s", c.name(), w, got[i])
		}
	}
	if len(golden) != len(cells) {
		t.Errorf("golden has %d cells, the matrix %d", len(golden), len(cells))
	}
}

// splitCells maps each cell's name to its block of the golden text: a
// header line and the indented type lines under it.
func splitCells(text string) map[string]string {
	cells := map[string]string{}
	name := ""
	for _, line := range strings.SplitAfter(text, "\n") {
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, " ") {
			name, _, _ = strings.Cut(line, " ")
		}
		cells[name] += line
	}
	return cells
}
