package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// manifest is BENCHMARK.json: the contract between this benchmark and
// whatever runs it. compare reads the directions and bounds from it.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadManifest(root string) (manifest, error) {
	var m manifest
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return m, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return m, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return m, nil
}

// loadRecords reads an -out file: one record per line.
func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// side is one file's untraced runs of one workload.
type side struct {
	values            map[string][]float64
	attempted, failed int64
}

func sideOf(recs []record, workload string) side {
	s := side{values: map[string][]float64{}}
	for _, r := range recs {
		if r.Workload != workload || r.Trace != 0 {
			continue
		}
		s.attempted += r.Attempted
		s.failed += r.Failed
		for name, v := range r.Metrics {
			s.values[name] = append(s.values[name], v.Value)
		}
	}
	return s
}

// spread is the interquartile range as a share of the median; 0 with
// fewer than four runs, where quartiles say nothing.
func spread(xs []float64) float64 {
	if len(xs) < 4 {
		return 0
	}
	med := median(xs)
	if med == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / med
}

// compareMain prints one row per (workload, end-to-end metric): both
// medians, b ÷ a, and a verdict against the metric's bound. worse: b's
// median is worse than a's by more than the bound. unresolved: either
// side's own run-to-run spread exceeds the bound, so the files cannot
// settle it. Exit status: 0 all ok, 1 any worse, 2 any unresolved.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare a.jsonl b.jsonl")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	m, err := loadManifest(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	a, err := loadRecords(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	b, err := loadRecords(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	return compareRecords(os.Stdout, m, a, b)
}

func compareRecords(out io.Writer, m manifest, a, b []record) int {
	w := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(w, "workload\tmetric\ta (base)\tb\tb/a\tbound\tverdict")
	worse, unresolved := 0, 0
	for _, wl := range m.Workloads {
		sa, sb := sideOf(a, wl.Name), sideOf(b, wl.Name)
		if len(sa.values) == 0 || len(sb.values) == 0 {
			fmt.Fprintf(w, "%s\t(no untraced run in both files)\t\t\t\t\tunresolved\n", wl.Name)
			unresolved++
			continue
		}
		for _, mm := range m.EndToEnd {
			va, vb := median(sa.values[mm.Name]), median(sb.values[mm.Name])
			worseBy := (vb - va) / va
			if mm.Better == "higher" {
				worseBy = -worseBy
			}
			verdict := "ok"
			switch {
			case len(sa.values[mm.Name]) == 0 || len(sb.values[mm.Name]) == 0 || va == 0:
				verdict = "unresolved"
				unresolved++
			case spread(sa.values[mm.Name]) > mm.Bound || spread(sb.values[mm.Name]) > mm.Bound:
				verdict = "unresolved"
				unresolved++
			case worseBy > mm.Bound:
				verdict = "worse"
				worse++
			}
			fmt.Fprintf(w, "%s\t%s\t%.6g %s\t%.6g %s\t%.3f\t%.2f %s\t%s\n",
				wl.Name, mm.Name, va, mm.Unit, vb, mm.Unit, vb/va, mm.Bound, mm.Better, verdict)
		}
		fa := float64(sa.failed) / float64(max(sa.attempted, 1))
		fb := float64(sb.failed) / float64(max(sb.attempted, 1))
		verdict := "ok"
		if fb > fa {
			verdict = "worse"
			worse++
		}
		fmt.Fprintf(w, "%s\tops_failed/ops_attempted\t%d/%d\t%d/%d\t\t0 lower\t%s\n",
			wl.Name, sa.failed, sa.attempted, sb.failed, sb.attempted, verdict)
	}
	if err := w.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	switch {
	case worse > 0:
		return 1
	case unresolved > 0:
		return 2
	}
	return 0
}
