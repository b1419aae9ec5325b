package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"scalekv/internal/alya"
	"scalekv/internal/cluster"
	"scalekv/internal/core"
	"scalekv/internal/d8tree"
	"scalekv/internal/row"
	"scalekv/internal/stages"
	"scalekv/internal/stats"
)

// routeProbe times direct ring lookups, the client's per-request
// routing step, on the workload's keys.
func routeProbe(e *env, pks []string) float64 {
	t0 := time.Now()
	n := 0
	for _, pk := range pks {
		_ = e.topo.Primary(pk)
		_ = e.topo.Replicas(pk, e.spec.rf)
		n += 2
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// getProbe times direct Engine.Get calls on the owning node's engine.
func getProbe(e *env, pks []string, cks [][]byte) (float64, error) {
	t0 := time.Now()
	for i, pk := range pks {
		if _, _, err := e.engineFor(pk).Get(pk, cks[i]); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(len(pks)), nil
}

// aggregateProbe times direct AggregatePartition calls, per cell.
func aggregateProbe(e *env, pks []string) (float64, error) {
	cells := 0
	t0 := time.Now()
	for _, pk := range pks {
		if err := e.engineFor(pk).AggregatePartition(pk, func(_, _ []byte) { cells++ }); err != nil {
			return 0, err
		}
	}
	return ratio(float64(time.Since(t0).Nanoseconds()), float64(cells)), nil
}

// query is one CountAll: its keys, its class (the d8tree level, or the
// key-count class of a probe) and its brute-force answer.
type query struct {
	keys     []string
	class    int
	expected int64
	byType   map[uint8]uint64 // nil when only the total is known
}

// check compares a CountAll result with the brute-force answer.
func (q query) check(res *cluster.MasterResult) error {
	if res.Errors != 0 {
		return fmt.Errorf("count: %d failed requests", res.Errors)
	}
	if int64(res.Elements) != q.expected {
		return fmt.Errorf("count: got %d elements, want %d", res.Elements, q.expected)
	}
	for ty, n := range q.byType {
		if res.Counts[ty] != n {
			return fmt.Errorf("count: type %d: got %d, want %d", ty, res.Counts[ty], n)
		}
	}
	return nil
}

// observed is one traced CountAll.
type observed struct {
	q   query
	res *cluster.MasterResult
	dur time.Duration
}

// masterProbe runs a few CountAll queries on a workload that has no
// master of its own and derives the master, stage and model metrics.
func masterProbe(e *env, qs []query, layer map[string]float64) error {
	var obs []observed
	for _, q := range qs {
		res, lat, err := countAll(e, q)
		if err != nil {
			return err
		}
		obs = append(obs, observed{q: q, res: res, dur: lat})
	}
	masterMetrics(e, obs, layer)
	return nil
}

// masterMetrics turns traced CountAll results into the master, stage and
// model metrics. The model loop fits core.System from the same spans:
// MsgSendMs is the observed send time per key, MsgRecvMs the client's
// mean decode time, and the DBModel's linear terms come from each
// query's slowest node, whose busy time (first queue entry to last
// database exit) divided by its requests is the effective per-request
// cost at that query's row size. The prediction for each class is then
// set against the class's observed median.
func masterMetrics(e *env, obs []observed, layer map[string]float64) {
	var keys, send float64
	stageSum := map[stages.Stage]float64{}
	var imb []float64
	var xs, ys []float64
	for _, o := range obs {
		k := float64(len(o.q.keys))
		keys += k
		send += float64(o.res.SendDuration.Nanoseconds())
		for _, s := range stages.Stages() {
			stageSum[s] += float64(o.res.Trace.StageTotal(s).Nanoseconds())
		}
		maxOps := 0
		for _, n := range o.res.OpsPerNode {
			maxOps = max(maxOps, n)
		}
		imb = append(imb, ratio(float64(maxOps), k/float64(len(e.nodes))))
		var worst float64
		for _, node := range o.res.Trace.Nodes() {
			var first, last time.Duration = math.MaxInt64, 0
			ops := 0
			for _, sp := range o.res.Trace.Spans() {
				if sp.Node != node {
					continue
				}
				if sp.Stage == stages.InQueue {
					first = min(first, sp.Start)
					ops++
				}
				if sp.Stage == stages.InDB {
					last = max(last, sp.End)
				}
			}
			if ops > 0 && last > first {
				worst = max(worst, float64(last-first)/1e6/float64(ops))
			}
		}
		xs = append(xs, float64(o.res.Elements)/k)
		ys = append(ys, worst)
	}
	layer["master.send_us_per_key"] = send / 1e3 / keys
	layer["stage.master_to_slaves_us"] = stageSum[stages.MasterToSlave] / 1e3 / keys
	layer["stage.in_queue_us"] = stageSum[stages.InQueue] / 1e3 / keys
	layer["stage.in_db_us"] = stageSum[stages.InDB] / 1e3 / keys
	layer["stage.slaves_to_master_us"] = stageSum[stages.SlaveToMaster] / 1e3 / keys
	layer["master.imbalance"] = median(imb)

	fit, err := stats.FitLinear(xs, ys)
	if err != nil { // every query had the same row size: a constant cost
		fit = stats.Linear{Intercept: median(ys)}
	}
	sys := core.System{
		DB: core.DBModel{Break: math.Inf(1), LeftA: fit.Intercept, LeftB: fit.Slope,
			RightA: fit.Intercept, RightB: fit.Slope, ParA: 1},
		MsgSendMs: send / 1e6 / keys,
	}
	if e.tr != nil {
		e.tr.mu.Lock()
		sys.MsgRecvMs = e.tr.dec.mean() / 1e6
		e.tr.mu.Unlock()
	}
	for class := 0; class < 3; class++ {
		var durs, elems, ks []float64
		for _, o := range obs {
			if o.q.class == class {
				durs = append(durs, float64(o.dur.Nanoseconds())/1e6)
				elems = append(elems, float64(o.res.Elements))
				ks = append(ks, float64(len(o.q.keys)))
			}
		}
		if len(durs) == 0 {
			continue
		}
		pred := sys.Predict(int(median(elems)), int(median(ks)), len(e.nodes))
		layer[fmt.Sprintf("model.pred_over_obs_l%d", class+2)] = ratio(pred.TotalMs, median(durs))
	}
}

// particles is a seeded Alya particle stream of n points with distinct
// IDs starting at firstID.
func particles(n int, seed int64, firstID uint64) []d8tree.Point {
	// A simulated particle yields about 27 records over 100 steps; a
	// particle always yields at least one, so halving the guess ends.
	recs := alya.Simulate(alya.Config{Particles: n/20 + 1, Steps: 100, Seed: seed})
	for per := 10; len(recs) < n; per /= 2 {
		recs = alya.Simulate(alya.Config{Particles: n/max(per, 1) + 1, Steps: 100, Seed: seed})
	}
	pts := make([]d8tree.Point, n)
	for i, r := range recs[:n] {
		pts[i] = d8tree.Point{ID: firstID + uint64(i), X: r.X, Y: r.Y, Z: r.Z, Type: r.Type}
	}
	return pts
}

// tracedBatchStore is the d8tree.BatchStore a traced writer uses: the
// cluster client with PutBatch timed as a child of the writer's current
// InsertBatch span.
type tracedBatchStore struct {
	*cluster.Client
	tr     *tracer
	parent *op
	last   time.Duration
}

func (s *tracedBatchStore) PutBatch(entries []row.Entry) error {
	keys := make([]string, len(entries))
	for i, en := range entries {
		keys[i] = "b" + en.PK + "\x00" + string(en.CK)
	}
	o := s.tr.beginOp("cluster.put_batch", s.parent, keys...)
	err := s.Client.PutBatch(entries)
	s.last = s.tr.endOp(o)
	return err
}

// insertTraced runs one traced InsertBatch and returns its self time:
// the call minus its PutBatch.
func insertTraced(tree *d8tree.Tree, store *tracedBatchStore, pts []d8tree.Point) (time.Duration, error) {
	o := store.tr.beginOp("d8tree.insert_batch", nil)
	store.parent = o
	store.last = 0
	err := tree.InsertBatch(pts)
	return store.tr.endOp(o) - store.last, err
}

// d8treeProbe inserts a few batches of fresh particles through a traced
// d8tree on a workload that does not index particles itself, and returns
// the median InsertBatch self time in microseconds.
func d8treeProbe(e *env, seed int64, sz sizes) (float64, error) {
	store := &tracedBatchStore{Client: e.client, tr: e.tr}
	tree := d8tree.New(store, d8tree.Options{MaxLevel: 4})
	pts := particles(32*sz.IngestChunk, seed+99, 1<<40)
	var selfs []float64
	for i := 0; i+sz.IngestChunk <= len(pts); i += sz.IngestChunk {
		self, err := insertTraced(tree, store, pts[i:i+sz.IngestChunk])
		if err != nil {
			return 0, err
		}
		selfs = append(selfs, us(self))
	}
	sort.Float64s(selfs)
	return median(selfs), nil
}
