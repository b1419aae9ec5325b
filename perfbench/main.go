package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// sizes are the data sizes and store settings of every workload. A
// result records them; results with different sizes do not compare.
type sizes struct {
	SetupRounds int `json:"setup_rounds"`

	PointPartitions int `json:"point_partitions"`
	PointCells      int `json:"point_cells_per_partition"`
	PointValueBytes int `json:"point_value_bytes"`
	PointWarmOps    int `json:"point_warm_ops"`

	IngestPointsPerSec int   `json:"ingest_points_per_second_of_run"`
	IngestChunk        int   `json:"ingest_points_per_batch"`
	IngestRoundBatches int   `json:"ingest_batches_per_round"`
	IngestFlushBytes   int64 `json:"ingest_flush_threshold_bytes"`

	FanoutPoints     int   `json:"fanout_points"`
	FanoutCacheBytes int64 `json:"fanout_block_cache_bytes_per_node"`
	FanoutBoxes      int   `json:"fanout_boxes"`

	ProbeOps int `json:"probe_ops"`
}

// fullSizes are the benchmark's sizes; see the package comment for why.
var fullSizes = sizes{
	SetupRounds:        3,
	PointPartitions:    50_000,
	PointCells:         4,
	PointValueBytes:    128,
	PointWarmOps:       2_000,
	IngestPointsPerSec: 24_000,
	IngestChunk:        120,
	IngestRoundBatches: 25,
	IngestFlushBytes:   1 << 20,
	FanoutPoints:       260_000,
	FanoutCacheBytes:   1 << 20,
	FanoutBoxes:        200,
	ProbeOps:           20_000,
}

// smokeSizes run every workload in seconds, for the benchmark's tests.
var smokeSizes = sizes{
	SetupRounds:        2,
	PointPartitions:    2_000,
	PointCells:         4,
	PointValueBytes:    128,
	PointWarmOps:       100,
	IngestPointsPerSec: 2_000,
	IngestChunk:        32,
	IngestRoundBatches: 4,
	IngestFlushBytes:   64 << 10,
	FanoutPoints:       6_000,
	FanoutCacheBytes:   64 << 10,
	FanoutBoxes:        6,
	ProbeOps:           500,
}

// boxInfo identifies the machine and toolchain a result came from.
type boxInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func currentBox() boxInfo {
	b := boxInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				b.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return b
}

// settings are what a run was asked to do.
type settings struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	Sizes    sizes  `json:"sizes"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is what --out saves: the result with the box and settings it
// came from, so that compare can refuse unlike results.
type record struct {
	Box      boxInfo            `json:"box"`
	Settings settings           `json:"settings"`
	Result   result             `json:"result"`
	Extra    map[string]float64 `json:"extra"`
}

// Set-up repeats at least SetupRounds times and, when it is quick, until
// it has taken minSetupTime, so that setup_s is a median of enough
// rounds to be steady.
const (
	minSetupTime   = 2 * time.Second
	maxSetupRounds = 15
)

// buildDir holds everything a run leaves behind, under the working
// directory: the scratch cluster data (removed at exit) and span logs.
const buildDir = ".bench_build"

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	sz       sizes
	dir      string // scratch data directory, removed at exit
	out      io.Writer
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareFiles(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		return
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Int("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	smoke := fs.Bool("smoke", false, "tiny sizes, for the benchmark's own tests")
	out := fs.String("out", "", "also write the result with its box and settings to this file")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	cfg := config{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, sz: fullSizes, out: os.Stdout}
	if *smoke {
		cfg.sz = smokeSizes
	}
	rec, err := runMain(cfg, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runMain validates the flags, runs the workload in a scratch directory
// under the working directory and optionally saves the record.
func runMain(cfg config, outPath string) (*record, error) {
	if newBench(cfg.workload, cfg.sz, cfg.seed, cfg.seconds) == nil {
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds < 1 {
		return nil, errors.New("--seconds must be at least 1")
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "perfbench-data-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.dir, err = filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rec, err := run(cfg)
	if err != nil {
		return nil, err
	}
	if outPath != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// run sets the workload up, measures it untraced and, with tracing on,
// measures it again on a traced cluster and adds the per-layer metrics.
func run(cfg config) (*record, error) {
	w := bufio.NewWriter(cfg.out)
	defer w.Flush()
	box := currentBox()
	rec := &record{Box: box, Settings: settings{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Sizes: cfg.sz}, Extra: map[string]float64{}}
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(w, "box: nproc=%d GOMAXPROCS=%d %s %s/%s cpu=%q\n", box.NProc, box.GOMAXPROCS, box.GoVersion, box.OS, box.Arch, box.CPUModel)
	b := newBench(cfg.workload, cfg.sz, cfg.seed, cfg.seconds)
	fmt.Fprintf(w, "workload: %s\n", b.describe())

	rounds, minTime := cfg.sz.SetupRounds, minSetupTime
	if cfg.trace {
		rounds, minTime = 1, 0 // the traced run sets up twice anyway: untraced, then traced
	}
	var setups []float64
	var setupTime time.Duration
	var e *env
	for i := 0; i < rounds || (setupTime < minTime && i < maxSetupRounds); i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
			runtime.GC()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		e, err = b.setup(filepath.Join(cfg.dir, fmt.Sprintf("setup-%d", i)), nil)
		if err != nil {
			if e != nil {
				e.close()
			}
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupTime += time.Since(t0)
		setups = append(setups, time.Since(t0).Seconds())
	}
	d := time.Duration(cfg.seconds) * time.Second
	// The timed phase starts from a collected heap, so the set-up
	// rounds' garbage does not decide when its first collections run.
	runtime.GC()
	ph, err := measure(b, e, d)
	if err == nil {
		err = ph.settle(e)
	}
	if cerr := e.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("measure: %w", err)
	}
	plain := ph.endToEnd(median(setups), maxRSSMiB())
	rec.Result = result{Correct: ph.failed == 0, Attempted: ph.attempted, Failed: ph.failed, Metrics: plain}
	ph.report(w, "untraced")
	for k, v := range ph.extra {
		rec.Extra[k] = v
	}
	if !cfg.trace {
		printMetrics(w, endToEnd, plain)
		return rec, nil
	}

	runtime.GC()
	debug.FreeOSMemory()
	tr := newTracer()
	t0 := time.Now()
	e, err = b.setup(filepath.Join(cfg.dir, "traced"), tr)
	if err != nil {
		if e != nil {
			e.close()
		}
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	tracedSetup := time.Since(t0).Seconds()
	runtime.GC()
	layer, tph, err := measureTraced(b, e, d)
	if err == nil {
		err = tph.settle(e)
	}
	if err == nil {
		err = b.probe(e, tph, layer)
	}
	if cerr := e.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	traced := tph.endToEnd(tracedSetup, maxRSSMiB())
	tph.report(w, "traced")
	for _, dd := range endToEnd {
		layer["overhead."+dd.name] = traced[dd.name].Value - plain[dd.name].Value
	}
	metrics := map[string]metric{}
	for _, dd := range perLayer() {
		metrics[dd.name] = metric{Value: finite(layer[dd.name]), Unit: dd.unit}
	}
	fmt.Fprintf(w, "spans: %d recorded, %d dropped past the cap of %d\n", len(tr.spans), tr.dropped, maxSpans)
	path := filepath.Join(buildDir, fmt.Sprintf("perfbench-spans-%s-%d.jsonl", cfg.workload, cfg.seed))
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	if err := tr.writeSpans(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "spans written to %s\n", path)
	printMetrics(w, perLayer(), metrics)
	rec.Result = result{Correct: ph.failed == 0 && tph.failed == 0, Attempted: ph.attempted + tph.attempted,
		Failed: ph.failed + tph.failed, Metrics: metrics}
	return rec, nil
}

// printMetrics prints one line per metric: name, value, unit and, for a
// per-layer metric, the end-to-end metric and workload it should move.
func printMetrics(w io.Writer, defs []def, m map[string]metric) {
	for _, d := range defs {
		v := m[d.name]
		if d.target == "" {
			fmt.Fprintf(w, "  %-32s %14.4f %-8s (%s)\n", d.name, v.Value, v.Unit, d.how)
			continue
		}
		fmt.Fprintf(w, "  %-32s %14.4f %-8s -> %s on %s (%s)\n", d.name, v.Value, v.Unit, d.target, d.workload, d.how)
	}
}

// maxRSSMiB is the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the process's user + system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
