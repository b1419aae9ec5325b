package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"scalekv/internal/d8tree"
	"scalekv/internal/storage"
	"scalekv/internal/workload"
)

// ingestLevels is the d8tree depth of the ingest workload: each particle
// becomes MaxLevel+1 = 5 cells.
const ingestLevels = 4

// level0 is the single level-0 cube every particle lands in.
const level0 = "L0-0-0-0"

// ingestTCP is the HPC simulation dump: writers index fixed-size chunks
// of a seeded Alya particle stream through d8tree.InsertBatch into a
// 2-node loopback-TCP cluster at rf 2, with the WAL on and a small
// memtable so the run goes through many flush and compaction cycles.
// The input is fixed, so every run does the same work.
//
// The op is a round: one writer's IngestRoundBatches consecutive
// InsertBatch calls. A single call's latency is bimodal: calls that
// overlap a garbage collection cycle of the process (which hosts both
// nodes and runs a cycle for more than half of the time at these
// allocation rates) take about four times as long as the rest, and the
// median call sits on the edge between the two modes, where a few more
// or fewer calls in a cycle move it by a fifth. A round of about a
// quarter of a second spans whole cycles, so its latency is unimodal.
// The per-call percentiles are report lines.
type ingestTCP struct {
	sz     sizes
	seed   int64
	points int
	pts    []d8tree.Point
}

func (b *ingestTCP) describe() string {
	return fmt.Sprintf("ingest-tcp: 2 TCP nodes rf 2, WAL sync never, flush threshold %d B; %d writers InsertBatch %d Alya particles (%d cells) in chunks of %d, rounds of %d chunks",
		b.sz.IngestFlushBytes, workers(), b.points, b.points*(ingestLevels+1), b.sz.IngestChunk, b.sz.IngestRoundBatches)
}

func (b *ingestTCP) setup(dir string, tr *tracer) (*env, error) {
	b.pts = particles(b.points, b.seed, 0)
	return startCluster(dir, clusterSpec{nodes: 2, rf: 2, tcp: true, storage: storage.Options{
		Sync:           storage.SyncNever,
		FlushThreshold: b.sz.IngestFlushBytes,
	}}, tr)
}

// indexedBytes is the user size of points indexed at every level: per
// cell, the cube key, the 8-byte particle ID and the 25-byte encoded
// point.
func indexedBytes(pts []d8tree.Point) int64 {
	var n int64
	for _, p := range pts {
		for level := 0; level <= ingestLevels; level++ {
			n += int64(len(d8tree.CubeKey(level, p.X, p.Y, p.Z)) + 8 + 25)
		}
	}
	return n
}

func (b *ingestTCP) measure(e *env, _ time.Duration) (*phase, error) {
	chunk, perRound := b.sz.IngestChunk, b.sz.IngestRoundBatches
	chunks := (len(b.pts) + chunk - 1) / chunk
	rounds := (chunks + perRound - 1) / perRound
	var next atomic.Int64
	n := workers()
	wins := make([]*series, n)
	batches := make([]*workload.Histogram, n)
	failed := make([]int64, n)
	selfs := make([][]float64, n)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < n; w++ {
		wins[w] = newSeries(start)
		batches[w] = workload.NewHistogram()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var traced *tracedBatchStore
			var tree *d8tree.Tree
			if e.tr != nil {
				traced = &tracedBatchStore{Client: e.client, tr: e.tr}
				tree = d8tree.New(traced, d8tree.Options{MaxLevel: ingestLevels})
			} else {
				tree = d8tree.New(e.client, d8tree.Options{MaxLevel: ingestLevels})
			}
			for {
				r := int(next.Add(1) - 1)
				if r >= rounds {
					return
				}
				r0 := time.Now()
				var cells int64
				roundFailed := false
				for c := r * perRound; c < min(chunks, (r+1)*perRound); c++ {
					pts := b.pts[c*chunk : min(len(b.pts), (c+1)*chunk)]
					t0 := time.Now()
					var err error
					if traced != nil {
						var self time.Duration
						self, err = insertTraced(tree, traced, pts)
						selfs[w] = append(selfs[w], us(self))
					} else {
						err = tree.InsertBatch(pts)
					}
					if err != nil {
						failed[w]++
						roundFailed = true
						continue
					}
					batches[w].Record(time.Since(t0))
					cells += int64(len(pts)) * (ingestLevels + 1)
				}
				done := time.Now()
				wins[w].add(done, done.Sub(r0), cells, roundFailed)
			}
		}(w)
	}
	wg.Wait()
	ph := &phase{elapsed: time.Since(start), wins: newSeries(start), tailWant: 90, extra: map[string]float64{}}
	batch := workload.NewHistogram()
	for w := range wins {
		ph.wins.merge(wins[w])
		batch.Merge(batches[w])
		ph.failed += failed[w]
		ph.selfs = append(ph.selfs, selfs[w]...)
	}
	q := tailQuantile(99, int64(batch.Count())+ph.failed)
	ph.extra["batch_p50_us"] = us(percentile(batch, ph.failed, 50, ph.elapsed))
	ph.extra["batch_tail_us"] = us(percentile(batch, ph.failed, q, ph.elapsed))
	ph.extra["batch_tail_pct"] = q
	// Every InsertBatch call is an attempt; the acknowledged ones' cells
	// count once and not per replica.
	ph.attempted = int64(chunks)
	ph.cells = (int64(len(b.pts)) - ph.failed*int64(chunk)) * (ingestLevels + 1)
	ph.userBytes = indexedBytes(b.pts)
	ph.writtenBytes = ph.userBytes
	// Every replica must hold every particle in the level-0 cube.
	if err := e.waitIdle(); err != nil {
		return nil, err
	}
	for i, node := range e.nodes {
		got, err := node.Engine().CountPartition(level0)
		if err != nil {
			return nil, err
		}
		ph.extra[fmt.Sprintf("node%d_level0_cells", i)] = float64(got)
		ph.attempted++
		if got != len(b.pts) {
			ph.failed++
		}
	}
	ph.extra["batches"] = float64(chunks)
	ph.extra["rounds"] = float64(rounds)
	return ph, nil
}

func (b *ingestTCP) probe(e *env, ph *phase, layer map[string]float64) error {
	pks := make([]string, 0, b.sz.ProbeOps)
	cks := make([][]byte, 0, b.sz.ProbeOps)
	for i := 0; len(pks) < b.sz.ProbeOps; i++ {
		p := b.pts[(i*7919)%len(b.pts)]
		level := i % (ingestLevels + 1)
		pks = append(pks, d8tree.CubeKey(level, p.X, p.Y, p.Z))
		cks = append(cks, idKey(p.ID))
	}
	layer["hashring.route_ns"] = routeProbe(e, pks)
	getNs, err := getProbe(e, pks, cks)
	if err != nil {
		return err
	}
	layer["storage.get_ns"] = getNs
	cubes := cubeKeys(4, b.pts)
	agg, err := aggregateProbe(e, cubes[:min(200, len(cubes))])
	if err != nil {
		return err
	}
	layer["storage.aggregate_ns_per_cell"] = agg
	g := newGrid(b.pts)
	var qs []query
	for i, box := range boxes(12) {
		qs = append(qs, g.query(box, fanoutLevels[i%len(fanoutLevels)]))
	}
	if err := masterProbe(e, qs, layer); err != nil {
		return err
	}
	layer["d8tree.self_us_per_batch"] = median(ph.selfs)
	return nil
}
