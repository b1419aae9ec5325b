package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"scalekv/internal/cluster"
	"scalekv/internal/row"
	"scalekv/internal/workload"
)

// pointTCP is the deployed point path: a 2-node loopback-TCP cluster at
// rf 1, preloaded, flushed and read once so Gets are served from warm
// SSTable blocks, driven by the hotspot mix (95% Get / 5% Put, Zipf
// 0.99) through one cluster.Client.
type pointTCP struct {
	sz   sizes
	seed int64

	pks   []string
	cks   [][]byte
	pads  [][]byte
	store *checkedStore
}

// padCount is how many distinct value tails the generator draws from:
// values repeat across cells, as real rows do, so block compression has
// something to find.
const padCount = 64

func (b *pointTCP) describe() string {
	return fmt.Sprintf("point-tcp: 2 TCP nodes rf 1, %d partitions x %d cells x %d B, hotspot mix (95%% Get / 5%% Put, Zipf 0.99), %d closed-loop workers",
		b.sz.PointPartitions, b.sz.PointCells, b.sz.PointValueBytes, workers())
}

// workers is the closed-loop client count: one per core, at most two.
func workers() int { return min(2, runtime.NumCPU()) }

func (b *pointTCP) cellCount() int { return len(b.pks) * len(b.cks) }

// value is the bytes of cell at write sequence seq: the cell and
// sequence numbers followed by a seeded tail, so a reader can tell
// exactly which write it got.
func (b *pointTCP) value(cell int, seq uint32) []byte {
	v := make([]byte, b.sz.PointValueBytes)
	binary.BigEndian.PutUint32(v[0:], uint32(cell))
	binary.BigEndian.PutUint32(v[4:], seq)
	copy(v[8:], b.pads[(uint32(cell)*2654435761+seq)%padCount])
	return v
}

// valid reports whether v is the value of cell at a sequence in
// [lo, hi].
func (b *pointTCP) valid(v []byte, cell int, lo, hi uint32) bool {
	if len(v) != b.sz.PointValueBytes || binary.BigEndian.Uint32(v[0:]) != uint32(cell) {
		return false
	}
	seq := binary.BigEndian.Uint32(v[4:])
	if seq < lo || seq > hi {
		return false
	}
	want := b.pads[(uint32(cell)*2654435761+seq)%padCount]
	return string(v[8:]) == string(want[:len(v)-8])
}

// cell maps a key to its cell number.
func (b *pointTCP) cell(pk string, ck []byte) (int, error) {
	p, err := strconv.Atoi(pk[4:])
	if err != nil || p < 0 || p >= len(b.pks) {
		return 0, fmt.Errorf("point-tcp: unknown partition %q", pk)
	}
	c, err := strconv.Atoi(string(ck[1:]))
	if err != nil || c < 0 || c >= len(b.cks) {
		return 0, fmt.Errorf("point-tcp: unknown cell %q", ck)
	}
	return p*len(b.cks) + c, nil
}

func (b *pointTCP) generate() {
	ks := workload.NewKeyspace(int64(b.sz.PointPartitions), b.sz.PointCells, 0, b.seed)
	b.pks, b.cks = ks.PKs, ks.CKs
	rng := rand.New(rand.NewSource(b.seed))
	b.pads = make([][]byte, padCount)
	for i := range b.pads {
		b.pads[i] = make([]byte, b.sz.PointValueBytes)
		rng.Read(b.pads[i])
	}
}

func (b *pointTCP) setup(dir string, tr *tracer) (*env, error) {
	b.generate()
	e, err := startCluster(dir, clusterSpec{nodes: 2, rf: 1, tcp: true}, tr)
	if err != nil {
		return nil, err
	}
	b.store = &checkedStore{c: e.client, b: b, tr: tr, seq: make([]atomic.Uint32, b.cellCount())}
	// Preload through the client's batched path, one loader per worker.
	var wg sync.WaitGroup
	errs := make([]error, workers())
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batch := make([]row.Entry, 0, 256)
			for p := w; p < len(b.pks); p += len(errs) {
				for c, ck := range b.cks {
					batch = append(batch, row.Entry{PK: b.pks[p], CK: ck, Value: b.value(p*len(b.cks)+c, 0)})
				}
				if len(batch) >= 256 || p+len(errs) >= len(b.pks) {
					if err := e.client.PutBatch(batch); err != nil {
						errs[w] = err
						return
					}
					batch = batch[:0]
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
	// Read every cell once straight from its engine: this checks the
	// load and leaves the blocks in the block cache.
	for p, pk := range b.pks {
		eng := e.engineFor(pk)
		for c, ck := range b.cks {
			v, ok, err := eng.Get(pk, ck)
			if err != nil {
				return e, err
			}
			if !ok || !b.valid(v, p*len(b.cks)+c, 0, 0) {
				return e, fmt.Errorf("point-tcp: preloaded cell %s/%s reads back wrong", pk, ck)
			}
		}
	}
	// Warm the client path: connections, pools, first-touch allocations.
	for i := 0; i < b.sz.PointWarmOps; i++ {
		p := i % len(b.pks)
		if _, _, err := b.store.Get(b.pks[p], b.cks[i%len(b.cks)]); err != nil {
			return e, fmt.Errorf("point-tcp: warm-up: %w", err)
		}
	}
	return e, nil
}

func (b *pointTCP) measure(e *env, d time.Duration) (*phase, error) {
	mix, err := workload.MixByName("hotspot", 0)
	if err != nil {
		return nil, err
	}
	type res struct {
		get, put             *workload.Histogram
		wins                 *series
		attempted, failed    int64
		getFailed, putFailed int64
	}
	n := workers()
	out := make([]res, n)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := res{get: workload.NewHistogram(), put: workload.NewHistogram(), wins: newSeries(start)}
			keys := workload.NewChooser(mix, int64(len(b.pks)), b.seed+int64(w)*7919)
			ops := rand.New(rand.NewSource(b.seed ^ int64(w+1)*104729))
			for time.Now().Before(deadline) {
				pk := b.pks[keys.Next()]
				ck := b.cks[ops.Intn(len(b.cks))]
				read := ops.Intn(100) < mix.Read
				t0 := time.Now()
				var err error
				if read {
					_, _, err = b.store.Get(pk, ck)
				} else {
					err = b.store.Put(pk, ck, nil)
				}
				done := time.Now()
				lat := done.Sub(t0)
				r.wins.add(done, lat, 1, err != nil)
				r.attempted++
				switch {
				case err != nil && read:
					r.failed++
					r.getFailed++
				case err != nil:
					r.failed++
					r.putFailed++
				case read:
					r.get.Record(lat)
				default:
					r.put.Record(lat)
				}
			}
			out[w] = r
		}(w)
	}
	wg.Wait()
	ph := &phase{elapsed: time.Since(start), wins: newSeries(start), stationary: true, tailWant: 90, extra: map[string]float64{}}
	get, put := workload.NewHistogram(), workload.NewHistogram()
	var getFailed, putFailed int64
	for _, r := range out {
		ph.attempted += r.attempted
		ph.failed += r.failed
		ph.wins.merge(r.wins)
		get.Merge(r.get)
		put.Merge(r.put)
		getFailed += r.getFailed
		putFailed += r.putFailed
	}
	ph.cells = ph.attempted - ph.failed
	ph.userBytes = int64(b.cellCount()) * int64(len(b.pks[0])+len(b.cks[0])+b.sz.PointValueBytes)
	ph.writtenBytes = ph.userBytes + int64(put.Count())*int64(len(b.pks[0])+len(b.cks[0])+b.sz.PointValueBytes)
	off := ph.elapsed
	for _, k := range []struct {
		name   string
		h      *workload.Histogram
		failed int64
	}{{"get", get, getFailed}, {"put", put, putFailed}} {
		q := tailQuantile(99, int64(k.h.Count())+k.failed)
		ph.extra[k.name+"_p50_us"] = us(percentile(k.h, k.failed, 50, off))
		ph.extra[k.name+"_tail_us"] = us(percentile(k.h, k.failed, q, off))
		ph.extra[k.name+"_tail_pct"] = q
		ph.extra[k.name+"_samples"] = float64(int64(k.h.Count()) + k.failed)
	}
	ph.extra["wrong_values"] = float64(b.store.wrong.Load())
	return ph, nil
}

func (b *pointTCP) probe(e *env, ph *phase, layer map[string]float64) error {
	rng := rand.New(rand.NewSource(b.seed + 17))
	keys := workload.NewChooser(workload.Mix{Zipfian: true, Theta: 0.99}, int64(len(b.pks)), b.seed+31)
	pks := make([]string, b.sz.ProbeOps)
	cks := make([][]byte, b.sz.ProbeOps)
	for i := range pks {
		pks[i] = b.pks[keys.Next()]
		cks[i] = b.cks[rng.Intn(len(b.cks))]
	}
	layer["hashring.route_ns"] = routeProbe(e, pks)
	getNs, err := getProbe(e, pks, cks)
	if err != nil {
		return err
	}
	layer["storage.get_ns"] = getNs
	agg, err := aggregateProbe(e, pks[:min(len(pks), 2000)])
	if err != nil {
		return err
	}
	layer["storage.aggregate_ns_per_cell"] = agg
	// The point keyspace has no spatial levels; the master probe fans
	// out over 27, 125 and 729 random partitions instead.
	var queries []query
	for i := 0; i < 30; i++ {
		n := []int{27, 125, 729}[i%3]
		if n > len(b.pks) {
			n = len(b.pks)
		}
		q := query{class: i % 3, expected: int64(n * len(b.cks))}
		for _, p := range rng.Perm(len(b.pks))[:n] {
			q.keys = append(q.keys, b.pks[p])
		}
		queries = append(queries, q)
	}
	if err := masterProbe(e, queries, layer); err != nil {
		return err
	}
	self, err := d8treeProbe(e, b.seed, b.sz)
	if err != nil {
		return err
	}
	layer["d8tree.self_us_per_batch"] = self
	return nil
}

// errWrongValue marks a read that returned something other than the
// preloaded or a concurrently written value.
var errWrongValue = errors.New("point-tcp: wrong value")

// checkedStore is the workload.Store the point workload drives: it
// forwards to the cluster client and checks every Get against the
// values written. Writes to one cell are serialized so the store's
// last-write-wins order is the write-sequence order; a Get must then
// return a sequence between the last acknowledged write when it started
// and one past the last acknowledged write when it returned (a write in
// flight may already be visible).
type checkedStore struct {
	c     *cluster.Client
	b     *pointTCP
	tr    *tracer
	seq   []atomic.Uint32
	locks [256]sync.Mutex
	wrong atomic.Int64
}

var _ workload.Store = (*checkedStore)(nil)

func (s *checkedStore) Get(pk string, ck []byte) ([]byte, bool, error) {
	cell, err := s.b.cell(pk, ck)
	if err != nil {
		return nil, false, err
	}
	lo := s.seq[cell].Load()
	var o *op
	if s.tr != nil {
		o = s.tr.beginOp("cluster.get", nil, "g"+pk+"\x00"+string(ck))
	}
	v, ok, err := s.c.Get(pk, ck)
	if o != nil {
		s.tr.endOp(o)
	}
	if err != nil {
		return nil, false, err
	}
	if !ok || !s.b.valid(v, cell, lo, s.seq[cell].Load()+1) {
		s.wrong.Add(1)
		return v, ok, errWrongValue
	}
	return v, ok, nil
}

// Put writes the cell's next sequenced value; the value argument is
// ignored so that every write is recognisable.
func (s *checkedStore) Put(pk string, ck, _ []byte) error {
	cell, err := s.b.cell(pk, ck)
	if err != nil {
		return err
	}
	mu := &s.locks[cell%len(s.locks)]
	mu.Lock()
	defer mu.Unlock()
	next := s.seq[cell].Load() + 1
	var o *op
	if s.tr != nil {
		o = s.tr.beginOp("cluster.put", nil, "p"+pk+"\x00"+string(ck))
	}
	err = s.c.Put(pk, ck, s.b.value(cell, next))
	if o != nil {
		s.tr.endOp(o)
	}
	if err != nil {
		return err
	}
	s.seq[cell].Store(next)
	return nil
}

func (s *checkedStore) Scan(string, []byte, []byte) ([]row.Cell, error) {
	return nil, errors.New("point-tcp: Scan is not in the hotspot mix")
}

func (s *checkedStore) Delete(string, []byte) error {
	return errors.New("point-tcp: Delete is not in the hotspot mix")
}
