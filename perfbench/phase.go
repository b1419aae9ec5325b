package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"scalekv/internal/workload"
)

// bench is one workload. setup builds a fresh cluster and its data
// (everything before the timer starts); measure runs the closed loop for
// the given time or, for a fixed-work workload, until its input is done;
// probe adds the per-layer metrics that need direct calls into the
// layers after a traced measurement.
type bench interface {
	describe() string
	setup(dir string, tr *tracer) (*env, error)
	measure(e *env, d time.Duration) (*phase, error)
	probe(e *env, ph *phase, layer map[string]float64) error
}

func workloadNames() []string { return []string{"point-tcp", "ingest-tcp", "fanout-count"} }

// newBench returns the named workload, or nil.
func newBench(name string, sz sizes, seed int64, seconds int) bench {
	switch name {
	case "point-tcp":
		return &pointTCP{sz: sz, seed: seed}
	case "ingest-tcp":
		round := sz.IngestChunk * sz.IngestRoundBatches
		return &ingestTCP{sz: sz, seed: seed, points: (sz.IngestPointsPerSec*seconds + round - 1) / round * round}
	case "fanout-count":
		return &fanoutCount{sz: sz, seed: seed}
	}
	return nil
}

// phase is one measured run of a workload.
type phase struct {
	elapsed           time.Duration
	attempted, failed int64 // every op and check, including failures
	cells             int64 // cells read, written (once) or aggregated
	wins              *series
	steal             []float64 // hypervisor steal share of each window
	stationary        bool      // windows are interchangeable samples of one steady state
	tailWant          float64   // the workload's tail percentile
	userBytes         int64     // logical bytes the store holds
	writtenBytes      int64     // user bytes written since the cluster booted
	diskBytes         int64
	selfs             []float64          // traced InsertBatch self times, us
	obs               []observed         // traced CountAll queries
	extra             map[string]float64 // workload-specific figures for the report
}

// windowWidth is the length of one measurement window. Ops are binned
// by completion window, and so is the hypervisor's steal time, so that
// windows in which the host ran other guests on this one's CPUs can be
// left out (see endToEnd).
const windowWidth = time.Second

// window holds the ops that completed in one window.
type window struct {
	lat        *workload.Histogram // successful ops
	ok, failed int64
	cells      int64
}

// series is a phase's ops, by completion window.
type series struct {
	start time.Time
	wins  []window
}

func newSeries(start time.Time) *series { return &series{start: start} }

func (s *series) at(i int) *window {
	for len(s.wins) <= i {
		s.wins = append(s.wins, window{lat: workload.NewHistogram()})
	}
	return &s.wins[i]
}

func (s *series) add(done time.Time, lat time.Duration, cells int64, failed bool) {
	w := s.at(int(done.Sub(s.start) / windowWidth))
	if failed {
		w.failed++
		return
	}
	w.ok++
	w.cells += cells
	w.lat.Record(lat)
}

// merge adds o's windows into s; both share a start.
func (s *series) merge(o *series) {
	for i, w := range o.wins {
		d := s.at(i)
		d.ok += w.ok
		d.failed += w.failed
		d.cells += w.cells
		d.lat.Merge(w.lat)
	}
}

// settle waits for background flushes and compactions and measures the
// disk footprint.
func (p *phase) settle(e *env) error {
	if err := e.waitIdle(); err != nil {
		return err
	}
	n, err := e.diskBytes()
	p.diskBytes = n
	return err
}

// calm returns the windows the metrics cover. In a stationary phase those
// are the full windows (not the sliver of ops that finished after the
// deadline) whose steal share is at most the median full window's: at
// least half of them, and all when steal is unknown or even. A phase
// whose windows differ in work (ingest-tcp's fixed input goes through
// flush and compaction cycles, fanout-count walks a fixed box list) is
// taken whole, since dropping windows would change the work measured.
func (p *phase) calm() []int {
	if !p.stationary {
		keep := make([]int, len(p.wins.wins))
		for i := range keep {
			keep[i] = i
		}
		return keep
	}
	full := int(p.elapsed / windowWidth)
	if p.elapsed%windowWidth >= windowWidth/2 {
		full++
	}
	full = max(1, min(full, len(p.wins.wins)))
	steal := make([]float64, full)
	copy(steal, p.steal)
	limit := median(steal)
	var keep []int
	for i, s := range steal {
		if s <= limit {
			keep = append(keep, i)
		}
	}
	return keep
}

// endToEnd computes the end-to-end metrics over the calm windows. On a
// shared box the host's steal time comes and goes; a CPU-bound run that
// loses a quarter of its CPU to it slows by half, which would make runs
// differ by the neighbours' load rather than by the store. Set-up, RSS
// and space are whole-run figures.
func (p *phase) endToEnd(setupS, rssMiB float64) map[string]metric {
	all := window{lat: workload.NewHistogram()}
	var secs float64
	for _, i := range p.calm() {
		w := p.wins.wins[i]
		secs += min(windowWidth, p.elapsed-time.Duration(i)*windowWidth).Seconds()
		all.lat.Merge(w.lat)
		all.ok += w.ok
		all.failed += w.failed
		all.cells += w.cells
	}
	q := tailQuantile(p.tailWant, all.ok+all.failed)
	if p.stationary {
		return p.windowMedians(setupS, rssMiB, q)
	}
	return map[string]metric{
		"setup_s":     {setupS, "s"},
		"max_rss_mb":  {rssMiB, "MiB"},
		"ops_per_s":   {float64(all.ok) / secs, "ops/s"},
		"cells_per_s": {float64(all.cells) / secs, "cells/s"},
		"op_p50_us":   {us(percentile(all.lat, all.failed, 50, p.elapsed)), "us"},
		"op_tail_us":  {us(percentile(all.lat, all.failed, q, p.elapsed)), "us"},
		"space_amp":   {ratio(float64(p.diskBytes), float64(p.userBytes)), "ratio"},
	}
}

// windowMedians is endToEnd for a stationary phase: each figure is the
// median over the calm windows of the window's own figure, so a slow
// spell that covers part of the run moves it less than a pooled figure.
func (p *phase) windowMedians(setupS, rssMiB, q float64) map[string]metric {
	var ops, cells, p50s, tails []float64
	for _, i := range p.calm() {
		w := p.wins.wins[i]
		width := min(windowWidth, p.elapsed-time.Duration(i)*windowWidth)
		ops = append(ops, float64(w.ok)/width.Seconds())
		cells = append(cells, float64(w.cells)/width.Seconds())
		p50s = append(p50s, us(percentile(w.lat, w.failed, 50, width)))
		tails = append(tails, us(percentile(w.lat, w.failed, q, width)))
	}
	return map[string]metric{
		"setup_s":     {setupS, "s"},
		"max_rss_mb":  {rssMiB, "MiB"},
		"ops_per_s":   {median(ops), "ops/s"},
		"cells_per_s": {median(cells), "cells/s"},
		"op_p50_us":   {median(p50s), "us"},
		"op_tail_us":  {median(tails), "us"},
		"space_amp":   {ratio(float64(p.diskBytes), float64(p.userBytes)), "ratio"},
	}
}

func (p *phase) report(w io.Writer, label string) {
	var n int64
	for _, i := range p.calm() {
		n += p.wins.wins[i].ok + p.wins.wins[i].failed
	}
	fmt.Fprintf(w, "%s phase: %.2fs, %d ops attempted, %d failed (failed_ratio %.6f); %d of %d windows kept (steal median %.1f%%, max %.1f%%), op_tail_us is p%g over their %d ops\n",
		label, p.elapsed.Seconds(), p.attempted, p.failed, ratio(float64(p.failed), float64(p.attempted)),
		len(p.calm()), len(p.wins.wins), 100*median(p.steal), 100*maxOf(p.steal), tailQuantile(p.tailWant, n), n)
	keys := make([]string, 0, len(p.extra))
	for k := range p.extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %s.%-28s %14.4f\n", label, k, p.extra[k])
	}
}

// measure runs one measurement and records the host's steal time per
// window alongside it.
func measure(b bench, e *env, d time.Duration) (*phase, error) {
	sw := watchSteal()
	ph, err := b.measure(e, d)
	steal := sw.stop()
	if err != nil {
		return nil, err
	}
	ph.steal = steal
	return ph, nil
}

// measureTraced runs one traced measurement and derives the per-layer
// metrics that the wrappers, the engines and the runtime give.
func measureTraced(b bench, e *env, d time.Duration) (map[string]float64, *phase, error) {
	tr := e.tr
	tr.reset()
	st0 := e.stats()
	fo0 := e.client.Failovers.Load()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	s := e.startSampler()
	ph, err := measure(b, e, d)
	s.finish()
	if err != nil {
		return nil, nil, err
	}
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	st1 := e.stats()
	ops := float64(ph.attempted)
	layer := map[string]float64{}

	tr.mu.Lock()
	layer["wire.encode_ns"] = tr.enc.mean()
	layer["wire.decode_ns"] = tr.dec.mean()
	layer["wire.bytes_per_op"] = ratio(float64(tr.bytes), ops)
	layer["transport.frames_per_op"] = ratio(float64(tr.frames), ops)
	layer["transport.send_ns"] = tr.send.mean()
	layer["transport.wire_us_p50"] = us(tr.wireTime.Percentile(50))
	layer["transport.wire_us_p99"] = us(tr.wireTime.Percentile(99))
	layer["node.queue_us_p50"] = us(tr.queue.Percentile(50))
	layer["node.service_us_p50"] = us(tr.service.Percentile(50))
	layer["node.service_us_p99"] = us(tr.service.Percentile(99))
	layer["client.self_us_p50"] = us(tr.clientSelf.Percentile(50))
	layer["client.entries_per_rpc"] = ratio(float64(tr.entries), float64(tr.entryRPCs))
	tr.mu.Unlock()
	layer["client.failovers"] = float64(e.client.Failovers.Load() - fo0)

	layer["storage.flushes"] = float64(st1.Flushes)
	layer["storage.compactions"] = float64(st1.Compactions)
	layer["storage.compaction_mb_per_s"] = float64(st1.CompactionBytesOut-st0.CompactionBytesOut) / 1e6 / ph.elapsed.Seconds()
	layer["storage.frozen_memtables_max"] = float64(s.frozenMax)
	layer["storage.l0_tables_max"] = float64(s.l0TablesMax)
	layer["storage.write_amp"] = ratio(float64(st1.FlushedBytes+st1.CompactionBytesOut), float64(ph.writtenBytes)*float64(e.spec.rf))
	hits := st1.BlockCacheHits - st0.BlockCacheHits
	misses := st1.BlockCacheMisses - st0.BlockCacheMisses
	layer["sstable.cache_hits"] = float64(hits)
	layer["sstable.cache_misses"] = float64(misses)
	layer["sstable.cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	layer["sstable.cache_evictions"] = float64(st1.BlockCacheEvictions - st0.BlockCacheEvictions)
	layer["sstable.compression_ratio"] = ratio(float64(st1.BlockBytesStored), float64(st1.BlockBytesLogical))

	layer["runtime.allocs_per_op"] = ratio(float64(ms1.Mallocs-ms0.Mallocs), ops)
	layer["runtime.cpu_ms_per_kop"] = ratio(float64(cpu.Nanoseconds())/1e6, ops/1000)
	layer["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	return layer, ph, nil
}
