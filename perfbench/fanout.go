package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"scalekv/internal/cluster"
	"scalekv/internal/d8tree"
	"scalekv/internal/storage"
	"scalekv/internal/workload"
)

// fanoutLevels are the query levels the fan-out workload cycles through:
// a 0.52-wide box touches 3, 5 or 9 cubes a side there (27, 125 or 729
// keys per query, occasionally a row more at the finer levels).
var fanoutLevels = []int{2, 3, 4}

// boxSide is the query box edge: just over half the unit cube, so a box
// spans a fixed number of cubes per level wherever it sits.
const boxSide = 0.52

// fanoutCount is the paper's query: one master runs Client.CountAll over
// the d8tree cube keys of a box, on a 4-node in-process cluster at rf 1
// whose per-node block cache is far smaller than its tables. Coarse
// levels are bound by the engine (large partitions, cache misses); fine
// levels by the master's per-message send.
type fanoutCount struct {
	sz     sizes
	seed   int64
	pts    []d8tree.Point
	rounds [][]query // one box at each of fanoutLevels
}

func (b *fanoutCount) describe() string {
	return fmt.Sprintf("fanout-count: 4 in-process nodes rf 1, %d Alya particles (%d cells), block cache %d B per node; 1 master, rounds of CountAll over one of %d boxes at levels 2, 3 and 4",
		b.sz.FanoutPoints, b.sz.FanoutPoints*(ingestLevels+1), b.sz.FanoutCacheBytes, b.sz.FanoutBoxes)
}

func (b *fanoutCount) setup(dir string, tr *tracer) (*env, error) {
	b.pts = particles(b.sz.FanoutPoints, b.seed, 0)
	g := newGrid(b.pts)
	b.rounds = b.rounds[:0]
	for _, box := range boxes(b.sz.FanoutBoxes) {
		var r []query
		for _, level := range fanoutLevels {
			r = append(r, g.query(box, level))
		}
		b.rounds = append(b.rounds, r)
	}
	e, err := startCluster(dir, clusterSpec{nodes: 4, rf: 1, storage: storage.Options{
		BlockCacheBytes: b.sz.FanoutCacheBytes,
		DisableWAL:      true, // a bulk load; durability is not what this workload measures
	}}, tr)
	if err != nil {
		return nil, err
	}
	const chunk = 1024
	var wg sync.WaitGroup
	errs := make([]error, workers())
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tree := d8tree.New(e.client, d8tree.Options{MaxLevel: ingestLevels})
			for i := w * chunk; i < len(b.pts); i += len(errs) * chunk {
				if err := tree.InsertBatch(b.pts[i:min(len(b.pts), i+chunk)]); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return e, err
	}
	if err := e.flush(); err != nil {
		return e, err
	}
	if err := e.waitIdle(); err != nil {
		return e, err
	}
	// Warm the master path once per level.
	for _, q := range b.rounds[0] {
		if _, _, err := countAll(e, q); err != nil {
			return e, fmt.Errorf("fanout-count: warm-up: %w", err)
		}
	}
	return e, nil
}

// measure runs rounds: one box counted at every level, the paper's
// coarse/medium/fine choice for one query. A round is the op: its
// latency adds the three queries, so it does not flip between the
// levels' latency modes the way a single query's median would.
func (b *fanoutCount) measure(e *env, d time.Duration) (*phase, error) {
	ph := &phase{tailWant: 90, extra: map[string]float64{}}
	perLevel := make([]*workload.Histogram, len(fanoutLevels))
	for i := range perLevel {
		perLevel[i] = workload.NewHistogram()
	}
	start := time.Now()
	ph.wins = newSeries(start)
	deadline := start.Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		t0 := time.Now()
		var cells int64
		var err error
		for _, q := range b.rounds[i%len(b.rounds)] {
			var res *cluster.MasterResult
			var lat time.Duration
			if res, lat, err = countAll(e, q); err != nil {
				break
			}
			perLevel[q.class].Record(lat)
			cells += int64(res.Elements)
			if e.tr != nil {
				ph.obs = append(ph.obs, observed{q: q, res: res, dur: lat})
			}
		}
		ph.attempted++
		done := time.Now()
		ph.wins.add(done, done.Sub(t0), cells, err != nil)
		if err != nil {
			ph.failed++
			continue
		}
		ph.cells += cells
	}
	ph.elapsed = time.Since(start)
	for i, h := range perLevel {
		ph.extra[fmt.Sprintf("level%d_p50_us", fanoutLevels[i])] = us(h.Percentile(50))
		ph.extra[fmt.Sprintf("level%d_queries", fanoutLevels[i])] = float64(h.Count())
	}
	ph.userBytes = indexedBytes(b.pts)
	ph.writtenBytes = ph.userBytes
	return ph, nil
}

// countAll runs one CountAll and checks its answer; with tracing on the
// call is one op span, the parent of its frames.
func countAll(e *env, q query) (*cluster.MasterResult, time.Duration, error) {
	var o *op
	if e.tr != nil {
		o = e.tr.beginOp("cluster.count_all", nil, "c")
	}
	t0 := time.Now()
	res, err := e.client.CountAll(q.keys, cluster.MasterOptions{})
	lat := time.Since(t0)
	if o != nil {
		e.tr.endOp(o)
	}
	if err == nil {
		err = q.check(res)
	}
	return res, lat, err
}

func (b *fanoutCount) probe(e *env, ph *phase, layer map[string]float64) error {
	masterMetrics(e, ph.obs, layer)
	rng := rand.New(rand.NewSource(b.seed + 17))
	pks := make([]string, b.sz.ProbeOps)
	cks := make([][]byte, b.sz.ProbeOps)
	for i := range pks {
		p := b.pts[rng.Intn(len(b.pts))]
		pks[i] = d8tree.CubeKey(fanoutLevels[i%len(fanoutLevels)], p.X, p.Y, p.Z)
		cks[i] = idKey(p.ID)
	}
	layer["hashring.route_ns"] = routeProbe(e, pks)
	getNs, err := getProbe(e, pks, cks)
	if err != nil {
		return err
	}
	layer["storage.get_ns"] = getNs
	keys := cubeKeys(3, b.pts)
	agg, err := aggregateProbe(e, keys)
	if err != nil {
		return err
	}
	layer["storage.aggregate_ns_per_cell"] = agg
	self, err := d8treeProbe(e, b.seed, b.sz)
	if err != nil {
		return err
	}
	layer["d8tree.self_us_per_batch"] = self
	return nil
}

// idKey is the clustering key d8tree gives a particle: its ID, big-endian.
func idKey(id uint64) []byte {
	var ck [8]byte
	binary.BigEndian.PutUint64(ck[:], id)
	return ck[:]
}

// cubeKeys lists the distinct non-empty cubes at a level, sorted.
func cubeKeys(level int, pts []d8tree.Point) []string {
	seen := map[string]bool{}
	for _, p := range pts {
		seen[d8tree.CubeKey(level, p.X, p.Y, p.Z)] = true
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// boxes is the fixed list of query boxes. It does not follow --seed: a
// box's cost depends mostly on where it sits in the lung, so a list per
// seed would make runs differ by their boxes rather than by the store.
// The particles come from --seed.
func boxes(n int) []d8tree.Box {
	rng := rand.New(rand.NewSource(1))
	out := make([]d8tree.Box, n)
	for i := range out {
		x, y, z := rng.Float64()*(1-boxSide), rng.Float64()*(1-boxSide), rng.Float64()*(1-boxSide)
		out[i] = d8tree.Box{MinX: x, MinY: y, MinZ: z, MaxX: x + boxSide, MaxY: y + boxSide, MaxZ: z + boxSide}
	}
	return out
}

// grid counts the generated points per finest-level cube and type, by
// brute force over the points; a query's answer is the sum over the
// finest cubes inside its cubes (d8tree cubes nest exactly).
type grid struct {
	types  int
	counts []uint64 // [x][y][z][type], 1<<ingestLevels cubes a side
}

func newGrid(pts []d8tree.Point) grid {
	g := grid{}
	for _, p := range pts {
		g.types = max(g.types, int(p.Type)+1)
	}
	n := 1 << ingestLevels
	g.counts = make([]uint64, n*n*n*g.types)
	idx := func(v float64) int { return min(int(v*float64(n)), n-1) }
	for _, p := range pts {
		g.counts[((idx(p.X)*n+idx(p.Y))*n+idx(p.Z))*g.types+int(p.Type)]++
	}
	return g
}

// query builds the CountAll for box at level and its expected answer:
// every point whose level cube is one of the box's cubes, by type.
func (g grid) query(box d8tree.Box, level int) query {
	keys := d8tree.CubesForBox(level, box)
	lo := [3]int{math.MaxInt, math.MaxInt, math.MaxInt}
	hi := [3]int{-1, -1, -1}
	for _, k := range keys {
		var l int
		var c [3]int
		if _, err := fmt.Sscanf(k, "L%d-%d-%d-%d", &l, &c[0], &c[1], &c[2]); err != nil {
			panic(fmt.Sprintf("unexpected cube key %q", k)) // CubesForBox's own format
		}
		for i := range c {
			lo[i], hi[i] = min(lo[i], c[i]), max(hi[i], c[i])
		}
	}
	q := query{keys: keys, class: level - fanoutLevels[0], byType: map[uint8]uint64{}}
	n, shift := 1<<ingestLevels, ingestLevels-level
	for x := lo[0] << shift; x < (hi[0]+1)<<shift; x++ {
		for y := lo[1] << shift; y < (hi[1]+1)<<shift; y++ {
			for z := lo[2] << shift; z < (hi[2]+1)<<shift; z++ {
				for ty := 0; ty < g.types; ty++ {
					if c := g.counts[((x*n+y)*n+z)*g.types+ty]; c > 0 {
						q.expected += int64(c)
						q.byType[uint8(ty)] += c
					}
				}
			}
		}
	}
	return q
}
