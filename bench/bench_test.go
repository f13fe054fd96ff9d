package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
)

// TestQuickRunMatchesSpec runs every workload, untraced and traced, at -quick
// size and checks that what the program emits is exactly what BENCHMARK.json
// declares — names in both directions, and units — with no failed op.
func TestQuickRunMatchesSpec(t *testing.T) {
	spec, err := loadSpec("")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, workloadNames)
	}
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			res, det, err := runWorkload(name, 1, 0.2, traced, true, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct %v, failed %d of %d", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if det.Nproc < 1 || det.GoVersion == "" {
				t.Errorf("%s: detail line does not identify the host: %+v", name, det)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: declared metric %s not emitted", name, traced, m.Name)
				case got.Unit != m.Unit || got.Unit == "":
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", name, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: %s = %v", name, m.Name, got.Value)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", name, traced, len(res.Metrics), len(want))
			}
		}
	}
}

// TestSpecMatchesTables keeps BENCHMARK.json's per-layer list equal to the
// program's table, direction included.
func TestSpecMatchesTables(t *testing.T) {
	spec, err := loadSpec("")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the program %d", len(spec.PerLayer), len(perLayer))
	}
	for i, l := range perLayer {
		if m := spec.PerLayer[i]; m.Name != l.name || m.Unit != l.unit || m.Better != l.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, m, l)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Errorf("quartiles %v %v median %v", q1, q3, median(xs))
	}
	// Ties interpolate by rank: the median of 1,1,1,1 lies mid-way through the 1 ns cell.
	if got := quantileNs([]int64{1, 1, 1, 1}, 0.5); got != 1.5 {
		t.Errorf("quantileNs on ties = %v", got)
	}
}

func TestLayerTimesRejectsEscapingChild(t *testing.T) {
	spans := []span{{Name: "op", StartNs: 10, EndNs: 20, Parent: -1}, {Name: "kid", StartNs: 12, EndNs: 18, Parent: 0}}
	l, err := layerTimes(spans)
	if err != nil || l["op"].SelfNs != 4 {
		t.Fatalf("self time %+v err %v", l["op"], err)
	}
	spans[1].EndNs = 21
	if _, err := layerTimes(spans); err == nil {
		t.Error("a child ending after its parent was accepted")
	}
}

// TestCompareVerdicts drives -compare on two synthetic sweep files.
func TestCompareVerdicts(t *testing.T) {
	spec, err := loadSpec("")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(scale float64) string {
		var f sweepFile
		for _, w := range spec.Workloads {
			for seed := uint64(1); seed <= 4; seed++ {
				r := sweepRun{Workload: w.Name, Seed: seed, result: result{Correct: true, Attempted: 100, Metrics: map[string]metric{}}}
				for _, m := range spec.EndToEnd {
					v := 100 + float64(seed)/10
					if m.Better == "higher" {
						v /= scale
					} else {
						v *= scale
					}
					r.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
				}
				f.Runs = append(f.Runs, r)
			}
		}
		b, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(t.TempDir(), "sweep.json")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base, same, worse := mk(1), mk(1.01), mk(1.5)
	if err := runCompare("", []string{base, same}); err != nil {
		t.Errorf("1 %% worse should pass: %v", err)
	}
	if err := runCompare("", []string{base, worse}); err == nil {
		t.Error("50 % worse should fail")
	}
	if err := runCompare("", []string{worse, base}); err != nil {
		t.Errorf("an improvement should pass: %v", err)
	}
}

// TestVetClean holds the benchmark to the repository's own analyzers.
func TestVetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module from source")
	}
	out, err := exec.Command("go", "run", "astrea/cmd/astrea-vet", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("astrea-vet: %v\n%s", err, out)
	}
}
