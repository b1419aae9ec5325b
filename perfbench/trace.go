package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"scalekv/internal/transport"
	"scalekv/internal/wire"
	"scalekv/internal/workload"
)

// maxSpans caps the in-memory span log of one traced run; the per-layer
// metrics are aggregated online, so dropping spans past the cap loses
// only the span file's tail, never a metric.
const maxSpans = 200_000

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the tracer started; Parent is the causing span
// (0 for a root) and Req the root operation's span ID.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// frameKey names one RPC on both ends of a connection: the node address,
// the connection's dial (client) or accept (node) sequence number at
// that address, and the frame's correlation ID.
type frameKey struct {
	addr string
	conn int
	corr uint64
}

// ptrKey names a payload buffer as seen by one endpoint. Buffers pass
// unchanged from Conn.Recv to Codec.Unmarshal and from Codec.Marshal to
// Conn.Send, so the first byte's address links a frame to its codec
// calls. The address is part of the key because the in-process pipe
// hands the same buffer to every replica of a write.
type ptrKey struct {
	p    *byte
	addr string
}

// op is one benchmark operation (a Get, an InsertBatch, a CountAll...)
// and the client frames it caused.
type op struct {
	id, parent uint64
	name       string
	start      time.Time
	keys       []string
	ptrs       []*byte
	frames     [][2]time.Time
	ambiguous  bool
	ended      bool
}

// rpc is a client frame in flight.
type rpc struct {
	send time.Time
	op   *op
}

// nodeReq is one request as the node saw it.
type nodeReq struct {
	recv, decStart, decEnd, encStart, encEnd, send time.Time
}

// sum accumulates a count and a total.
type sum struct {
	n     int64
	total int64
}

func (s *sum) add(v int64) { s.n++; s.total += v }

func (s sum) mean() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.total) / float64(s.n)
}

// tracer records spans and per-layer counters from wrappers around the
// public layer interfaces: wire.Codec, transport.Conn/Listener and the
// benchmark's own calls into cluster and d8tree. Every hook takes one
// mutex; the resulting cost is reported as the tracing overhead.
type tracer struct {
	t0 time.Time

	mu         sync.Mutex
	enc, dec   sum
	send       sum
	bytes      int64
	frames     int64
	entries    int64
	entryRPCs  int64
	nextID     uint64
	dials      map[string]int
	accepts    map[string]int
	nodeByPtr  map[ptrKey]*nodeReq
	nodeByKey  map[frameKey]*nodeReq
	nodeEnc    map[ptrKey][2]time.Time
	nodeDone   map[frameKey]*nodeReq
	cliByKey   map[frameKey]*rpc
	opByMatch  map[string]*op
	opByPtr    map[*byte]*op
	queue      *workload.Histogram
	service    *workload.Histogram
	wireTime   *workload.Histogram
	clientSelf *workload.Histogram
	spans      []span
	dropped    int64
}

func newTracer() *tracer {
	return &tracer{
		t0:         time.Now(),
		dials:      map[string]int{},
		accepts:    map[string]int{},
		nodeByPtr:  map[ptrKey]*nodeReq{},
		nodeByKey:  map[frameKey]*nodeReq{},
		nodeEnc:    map[ptrKey][2]time.Time{},
		nodeDone:   map[frameKey]*nodeReq{},
		cliByKey:   map[frameKey]*rpc{},
		opByMatch:  map[string]*op{},
		opByPtr:    map[*byte]*op{},
		queue:      workload.NewHistogram(),
		service:    workload.NewHistogram(),
		wireTime:   workload.NewHistogram(),
		clientSelf: workload.NewHistogram(),
	}
}

// reset drops what set-up recorded, so the metrics cover only the
// measured phase. Frames in flight keep their bookkeeping.
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.enc, t.dec, t.send = sum{}, sum{}, sum{}
	t.bytes, t.frames, t.entries, t.entryRPCs = 0, 0, 0, 0
	t.queue, t.service = workload.NewHistogram(), workload.NewHistogram()
	t.wireTime, t.clientSelf = workload.NewHistogram(), workload.NewHistogram()
	t.spans, t.dropped = t.spans[:0], 0
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

// spanLocked appends a span and returns its ID. Callers hold t.mu.
func (t *tracer) spanLocked(parent, req uint64, name string, start, end time.Time) uint64 {
	t.nextID++
	id := t.nextID
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: t.ns(start), End: t.ns(end)})
	} else {
		t.dropped++
	}
	return id
}

// matchKey names the operation a client request message belongs to:
// the cell of a Get or Put, the first cell of a batch, or the single
// master's fan-out query.
func matchKey(m wire.Message) string {
	switch r := m.(type) {
	case *wire.GetRequest:
		return "g" + r.PK + "\x00" + string(r.CK)
	case *wire.PutRequest:
		return "p" + r.PK + "\x00" + string(r.CK)
	case *wire.BatchPutRequest:
		if len(r.Entries) > 0 {
			return "b" + r.Entries[0].PK + "\x00" + string(r.Entries[0].CK)
		}
	case *wire.CountRequest:
		return "c"
	}
	return ""
}

// beginOp opens an operation span. Client frames whose request matches
// one of keys (see matchKey) become its children. Two concurrent
// operations claiming the same key are both marked ambiguous and
// excluded from client self time.
func (t *tracer) beginOp(name string, parent *op, keys ...string) *op {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	o := &op{id: t.nextID, name: name, start: time.Now(), keys: keys}
	if parent != nil {
		o.parent = parent.id
	}
	for _, k := range keys {
		if other, ok := t.opByMatch[k]; ok {
			other.ambiguous = true
			o.ambiguous = true
			continue
		}
		t.opByMatch[k] = o
	}
	return o
}

// endOp closes an operation span and records the client's self time:
// the operation's duration minus the union of its frames' Send→Recv
// intervals.
func (t *tracer) endOp(o *op) time.Duration {
	end := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	o.ended = true
	for _, k := range o.keys {
		if t.opByMatch[k] == o {
			delete(t.opByMatch, k)
		}
	}
	for _, p := range o.ptrs {
		if t.opByPtr[p] == o {
			delete(t.opByPtr, p)
		}
	}
	req := o.parent
	if req == 0 {
		req = o.id
	}
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{ID: o.id, Parent: o.parent, Req: req, Name: o.name, Start: t.ns(o.start), End: t.ns(end)})
	} else {
		t.dropped++
	}
	dur := end.Sub(o.start)
	if !o.ambiguous && len(o.frames) > 0 {
		t.clientSelf.Record(dur - union(o.frames))
	}
	return dur
}

// union is the total length covered by a set of intervals.
func union(iv [][2]time.Time) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0].After(cur[1]) {
			total += cur[1].Sub(cur[0])
			cur = x
		} else if x[1].After(cur[1]) {
			cur[1] = x[1]
		}
	}
	return total + cur[1].Sub(cur[0])
}

// --- wire.Codec -------------------------------------------------------------

// tracedCodec times a codec. node is the node's address on the node
// side and "" on the client side.
type tracedCodec struct {
	inner wire.Codec
	tr    *tracer
	node  string
}

func (c tracedCodec) Name() string { return c.inner.Name() }

func (c tracedCodec) Marshal(m wire.Message) ([]byte, error) {
	t0 := time.Now()
	data, err := c.inner.Marshal(m)
	t1 := time.Now()
	if err != nil || len(data) == 0 {
		return data, err
	}
	t := c.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	t.enc.add(t1.Sub(t0).Nanoseconds())
	t.bytes += int64(len(data))
	if c.node != "" {
		t.nodeEnc[ptrKey{&data[0], c.node}] = [2]time.Time{t0, t1}
		return data, nil
	}
	switch r := m.(type) {
	case *wire.PutRequest:
		t.entries++
		t.entryRPCs++
	case *wire.BatchPutRequest:
		t.entries += int64(len(r.Entries))
		t.entryRPCs++
	}
	if o := t.opByMatch[matchKey(m)]; o != nil {
		t.opByPtr[&data[0]] = o
		o.ptrs = append(o.ptrs, &data[0])
	}
	return data, nil
}

func (c tracedCodec) Unmarshal(data []byte) (wire.Message, error) {
	t0 := time.Now()
	m, err := c.inner.Unmarshal(data)
	t1 := time.Now()
	t := c.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dec.add(t1.Sub(t0).Nanoseconds())
	if c.node != "" && len(data) > 0 {
		k := ptrKey{&data[0], c.node}
		if r := t.nodeByPtr[k]; r != nil {
			delete(t.nodeByPtr, k)
			r.decStart, r.decEnd = t0, t1
		}
	}
	return m, err
}

// --- transport.Conn / Listener ----------------------------------------------

// tracedConn times a connection endpoint.
type tracedConn struct {
	transport.Conn
	tr   *tracer
	addr string
	seq  int
	node bool
}

type tracedListener struct {
	transport.Listener
	tr *tracer
}

func (l tracedListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	addr := l.Addr()
	l.tr.mu.Lock()
	seq := l.tr.accepts[addr]
	l.tr.accepts[addr]++
	l.tr.mu.Unlock()
	return &tracedConn{Conn: c, tr: l.tr, addr: addr, seq: seq, node: true}, nil
}

// dialed wraps a client connection to addr.
func (t *tracer) dialed(addr string, c transport.Conn) transport.Conn {
	t.mu.Lock()
	seq := t.dials[addr]
	t.dials[addr]++
	t.mu.Unlock()
	return &tracedConn{Conn: c, tr: t, addr: addr, seq: seq}
}

// Send registers the frame before it leaves, because the reply can
// arrive before Send returns.
func (c *tracedConn) Send(f transport.Frame) error {
	t := c.tr
	key := frameKey{c.addr, c.seq, f.Corr}
	t0 := time.Now()
	t.mu.Lock()
	if c.node {
		if r := t.nodeByKey[key]; r != nil {
			delete(t.nodeByKey, key)
			if len(f.Payload) > 0 {
				pk := ptrKey{&f.Payload[0], c.addr}
				enc := t.nodeEnc[pk]
				delete(t.nodeEnc, pk)
				r.encStart, r.encEnd = enc[0], enc[1]
			}
			r.send = t0
			t.nodeDone[key] = r
		}
	} else {
		r := &rpc{send: t0}
		if len(f.Payload) > 0 {
			r.op = t.opByPtr[&f.Payload[0]]
		}
		t.cliByKey[key] = r
	}
	t.mu.Unlock()
	err := c.Conn.Send(f)
	d := time.Since(t0).Nanoseconds()
	t.mu.Lock()
	t.send.add(d)
	t.frames++
	t.mu.Unlock()
	return err
}

func (c *tracedConn) Recv() (transport.Frame, error) {
	f, err := c.Conn.Recv()
	if err != nil {
		return f, err
	}
	now := time.Now()
	t := c.tr
	key := frameKey{c.addr, c.seq, f.Corr}
	t.mu.Lock()
	defer t.mu.Unlock()
	if c.node {
		r := &nodeReq{recv: now}
		t.nodeByKey[key] = r
		if len(f.Payload) > 0 {
			t.nodeByPtr[ptrKey{&f.Payload[0], c.addr}] = r
		}
		return f, nil
	}
	r := t.cliByKey[key]
	if r == nil {
		return f, nil
	}
	delete(t.cliByKey, key)
	var parent, req uint64
	if r.op != nil {
		parent, req = r.op.id, r.op.parent
		if req == 0 {
			req = r.op.id
		}
		if !r.op.ended {
			r.op.frames = append(r.op.frames, [2]time.Time{r.send, now})
		}
	}
	rpcID := t.spanLocked(parent, req, "transport.rpc", r.send, now)
	n := t.nodeDone[key]
	if n == nil {
		return f, nil
	}
	delete(t.nodeDone, key)
	if n.decStart.IsZero() || n.encStart.IsZero() {
		return f, nil
	}
	t.wireTime.Record(now.Sub(r.send) - n.send.Sub(n.recv))
	t.queue.Record(n.decStart.Sub(n.recv))
	t.service.Record(n.encStart.Sub(n.decEnd))
	t.spanLocked(rpcID, req, "node.queue", n.recv, n.decStart)
	t.spanLocked(rpcID, req, "node.decode", n.decStart, n.decEnd)
	t.spanLocked(rpcID, req, "node.service", n.decEnd, n.encStart)
	t.spanLocked(rpcID, req, "node.encode", n.encStart, n.encEnd)
	return f, nil
}

// writeSpans writes the span log as JSON lines.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
