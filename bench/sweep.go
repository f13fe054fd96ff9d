package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchSpec is BENCHMARK.json: the declared workloads and metrics, and the
// bound by which each end-to-end metric may worsen.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from path, or from the repository root when
// the benchmark is run from there or from its own directory.
func loadSpec(path string) (*benchSpec, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", "../BENCHMARK.json"}
	}
	var errs []error
	for _, p := range candidates {
		b, err := os.ReadFile(p)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, errors.Join(errs...)
}

// sweepRun is one invocation's result line, tagged with what produced it.
type sweepRun struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	result
}

type sweepFile struct {
	Seconds float64    `json:"seconds"`
	Trace   int        `json:"trace"`
	Host    detail     `json:"host"`
	Runs    []sweepRun `json:"runs"`
}

// values returns one metric's values on one workload, in run order.
func (f *sweepFile) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, m.Value)
		}
	}
	return out
}

func (f *sweepFile) failed(workload string) (failed, attempted int64) {
	for _, r := range f.Runs {
		if r.Workload == workload {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	return failed, attempted
}

// spread is the distance between the quartiles as a share of the median:
// the run-to-run noise a bound has to stand clear of.
func spread(xs []float64) float64 {
	if len(xs) < 2 || median(xs) == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// runSweep runs every workload n times, one process per run as the driver
// does, rep k of every workload before rep k+1 of any, so a noisy minute on a
// shared box lands on all of them alike.
func runSweep(specPath string, n int, seed uint64, seconds float64, trace int, quick bool, outFile string) error {
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	file := sweepFile{Seconds: seconds, Trace: trace}
	for k := 0; k < n; k++ {
		for _, w := range spec.Workloads {
			args := []string{
				"-workload", w.Name, "-seed", strconv.FormatUint(seed+uint64(k), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
			}
			if quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("workload %s seed %d: %w", w.Name, seed+uint64(k), err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			if len(lines) < 2 {
				return fmt.Errorf("workload %s: expected a detail and a result line, got %q", w.Name, out)
			}
			run := sweepRun{Workload: w.Name, Seed: seed + uint64(k)}
			if err := json.Unmarshal(lines[len(lines)-1], &run.result); err != nil {
				return fmt.Errorf("workload %s: result line: %w", w.Name, err)
			}
			if err := json.Unmarshal(lines[len(lines)-2], &file.Host); err != nil {
				return fmt.Errorf("workload %s: detail line: %w", w.Name, err)
			}
			file.Runs = append(file.Runs, run)
			fmt.Fprintf(os.Stderr, "run %d/%d %-14s failed %d of %d\n", k+1, n, w.Name, run.Failed, run.Attempted)
		}
	}
	if outFile != "" {
		b, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outFile, b, 0o644); err != nil {
			return err
		}
	}
	metrics := spec.EndToEnd
	if trace == 1 {
		metrics = spec.PerLayer
	}
	fmt.Printf("%-14s %-34s %-6s %14s %14s %14s %8s %6s\n", "workload", "metric", "unit", "median", "q1", "q3", "spread", "bound")
	for _, w := range spec.Workloads {
		for _, m := range metrics {
			xs := file.values(w.Name, m.Name)
			if len(xs) == 0 {
				return fmt.Errorf("workload %s reported no %s", w.Name, m.Name)
			}
			q1, q3 := xs[0], xs[0]
			if len(xs) > 1 {
				q1, q3 = quartiles(xs)
			}
			sp, note := spread(xs), ""
			if m.Bound > 0 && m.Name != "setup_s" && sp > m.Bound {
				note = "  spread exceeds bound"
			} else if m.Bound > 0 && sp > m.Bound/3 {
				note = "  spread over a third of bound"
			}
			fmt.Printf("%-14s %-34s %-6s %14.6g %14.6g %14.6g %8.4f %6.2f%s\n", w.Name, m.Name, m.Unit, median(xs), q1, q3, sp, m.Bound, note)
		}
		failed, attempted := file.failed(w.Name)
		fmt.Printf("%-14s %-34s %-6s %14d of %d attempted\n", w.Name, "failed", "count", failed, attempted)
	}
	return nil
}

// runCompare prints one row per (workload, end-to-end metric) of two sweep
// files made with identical settings — the parent first — and fails if any
// metric got worse by more than its bound.
func runCompare(specPath string, files []string) error {
	if len(files) != 2 {
		return errors.New("usage: bench -compare parent.json change.json")
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	var f [2]sweepFile
	for i, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &f[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	if f[0].Seconds != f[1].Seconds || f[0].Trace != 0 || f[1].Trace != 0 {
		return fmt.Errorf("the two files were not made with the same untraced settings (%gs trace %d vs %gs trace %d)",
			f[0].Seconds, f[0].Trace, f[1].Seconds, f[1].Trace)
	}
	var fails []string
	fmt.Printf("%-14s %-14s %-6s %14s %14s %18s %8s %6s  %s\n", "workload", "metric", "unit", "parent", "change", "change/parent", "spread", "bound", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			a, b := f[0].values(w.Name, m.Name), f[1].values(w.Name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				return fmt.Errorf("%s/%s is missing from one of the files", w.Name, m.Name)
			}
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			sp := max(spread(a), spread(b))
			verdict := "PASS"
			switch {
			case sp > m.Bound && !allBetter(a, b, m.Better):
				// Noise wider than the bound cannot show "unchanged".
				verdict = "UNRESOLVED"
			case worse > m.Bound:
				verdict = "FAIL"
				fails = append(fails, w.Name+"/"+m.Name)
			}
			fmt.Printf("%-14s %-14s %-6s %14.6g %14.6g %9.4f of %-6.4g %8.4f %6.2f  %s\n", w.Name, m.Name, m.Unit, ma, mb, mb/ma, ma, sp, m.Bound, verdict)
		}
		fa, na := f[0].failed(w.Name)
		fb, nb := f[1].failed(w.Name)
		verdict := "PASS"
		// A failed op misses every limit: more of them is a regression at any size.
		if float64(fb)*float64(na) > float64(fa)*float64(nb) {
			verdict = "FAIL"
			fails = append(fails, w.Name+"/failed")
		}
		fmt.Printf("%-14s %-14s %-6s %14s %14s %45s\n", w.Name, "failed", "count", fmt.Sprintf("%d/%d", fa, na), fmt.Sprintf("%d/%d", fb, nb), verdict)
	}
	if len(fails) > 0 {
		return fmt.Errorf("worse than the parent by more than the bound: %s", strings.Join(fails, ", "))
	}
	return nil
}

// allBetter reports whether every run of the change reads better than every
// run of the parent — the one case where noise wider than the bound still
// resolves.
func allBetter(parent, change []float64, better string) bool {
	for _, a := range parent {
		for _, b := range change {
			if (better == "higher" && b <= a) || (better != "higher" && b >= a) {
				return false
			}
		}
	}
	return true
}
