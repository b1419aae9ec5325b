package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"regexp"
	"testing"
	"time"

	"scalekv/internal/row"
)

// smoke is a one-second run of a workload at smoke sizes, inside a
// temporary working directory.
func smoke(t *testing.T, workload string, trace bool) (*record, string) {
	t.Helper()
	t.Chdir(t.TempDir())
	var out bytes.Buffer
	rec, err := run(config{workload: workload, seed: 1, seconds: 1, trace: trace, sz: smokeSizes, dir: t.TempDir(), out: &out})
	if err != nil {
		t.Fatal(err)
	}
	return rec, out.String()
}

func TestSmokePrintsEveryMetric(t *testing.T) {
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w, trace), func(t *testing.T) {
				rec, out := smoke(t, w, trace)
				if !rec.Result.Correct || rec.Result.Failed != 0 || rec.Result.Attempted < 1 {
					t.Fatalf("result correct=%v attempted=%d failed=%d", rec.Result.Correct, rec.Result.Attempted, rec.Result.Failed)
				}
				defs := endToEnd
				if trace {
					defs = perLayer()
				}
				if len(rec.Result.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(rec.Result.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := rec.Result.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
					}
					line := regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(d.name) + `\s+-?[0-9.]+ ` + regexp.QuoteMeta(d.unit) + `\s`)
					if !line.MatchString(out) {
						t.Errorf("metric %s is not printed with its unit %s", d.name, d.unit)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
			})
		}
	}
}

func TestWrongValueIsCaught(t *testing.T) {
	b := newBench("point-tcp", smokeSizes, 1, 1).(*pointTCP)
	e, err := b.setup(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	// Overwrite every cell behind the checker's back with a write it
	// never issued.
	var batch []row.Entry
	for p, pk := range b.pks {
		for c, ck := range b.cks {
			batch = append(batch, row.Entry{PK: pk, CK: ck, Value: b.value(p*len(b.cks)+c, 1000)})
		}
	}
	if err := e.client.PutBatch(batch); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.store.Get(b.pks[0], b.cks[0]); !errors.Is(err, errWrongValue) {
		t.Fatalf("Get of an injected value: err = %v, want errWrongValue", err)
	}
	ph, err := b.measure(e, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if ph.failed == 0 || ph.extra["wrong_values"] == 0 {
		t.Fatalf("measure counted %d failed ops and %v wrong values after the injection", ph.failed, ph.extra["wrong_values"])
	}
}

func TestWrongCountIsCaught(t *testing.T) {
	b := newBench("fanout-count", smokeSizes, 1, 1).(*fanoutCount)
	e, err := b.setup(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	for _, r := range b.rounds {
		for i := range r {
			r[i].expected++
		}
	}
	ph, err := b.measure(e, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if ph.attempted == 0 || ph.failed != ph.attempted {
		t.Fatalf("%d of %d rounds failed with every expected count off by one", ph.failed, ph.attempted)
	}
}

func TestMissingIngestCellIsCaught(t *testing.T) {
	b := newBench("ingest-tcp", smokeSizes, 1, 1).(*ingestTCP)
	e, err := b.setup(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	// A stray cell in one replica's level-0 cube makes its count wrong.
	if err := e.nodes[0].Engine().Put(level0, idKey(1<<50), []byte("stray")); err != nil {
		t.Fatal(err)
	}
	ph, err := b.measure(e, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ph.failed != 1 {
		t.Fatalf("failed = %d, want 1 (the node with the stray cell)", ph.failed)
	}
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	names := workloadNames()
	if len(f.Workloads) != len(names) {
		t.Fatalf("%d workloads, program has %d", len(f.Workloads), len(names))
	}
	for i, w := range f.Workloads {
		if w.Name != names[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why %d chars), program has %q", i, w.Name, len(w.Why), names[i])
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, program has %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %d: %+v, program has %s %s %s", i, m, d.name, d.unit, d.better)
		}
	}
	layers := perLayer()
	if len(f.PerLayer) != len(layers) {
		t.Fatalf("%d per-layer metrics, program has %d", len(f.PerLayer), len(layers))
	}
	for i, m := range f.PerLayer {
		d := layers[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: %+v, program has %s %s %s", i, m, d.name, d.unit, d.better)
		}
	}
}

func TestCompareRefusesUnlikeResults(t *testing.T) {
	a := record{Box: currentBox(), Settings: settings{Workload: "point-tcp", Seed: 1, Seconds: 10, Sizes: fullSizes}}
	b := a
	b.Settings.Seed = 2
	if err := comparable(a, b); err != nil {
		t.Errorf("seeds alone differ: %v", err)
	}
	c := a
	c.Box.NProc++
	if comparable(a, c) == nil {
		t.Error("results from boxes with different core counts compared")
	}
	d := a
	d.Settings.Sizes.FanoutCacheBytes *= 2
	if comparable(a, d) == nil {
		t.Error("results with different cache sizes compared")
	}
}

func TestIngestInputIsWholeRounds(t *testing.T) {
	for _, sz := range []sizes{smokeSizes, fullSizes} {
		for _, seconds := range []int{1, 7, 25} {
			b := newBench("ingest-tcp", sz, 1, seconds).(*ingestTCP)
			round := sz.IngestChunk * sz.IngestRoundBatches
			if b.points%round != 0 || b.points < sz.IngestPointsPerSec*seconds || b.points-round >= sz.IngestPointsPerSec*seconds {
				t.Errorf("%d s: %d points, want the fewest whole rounds of %d that hold %d", seconds, b.points, round, sz.IngestPointsPerSec*seconds)
			}
		}
	}
}
