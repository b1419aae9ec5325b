package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"scalekv/internal/cluster"
	"scalekv/internal/hashring"
	"scalekv/internal/storage"
	"scalekv/internal/transport"
	"scalekv/internal/wire"
)

// clusterSpec shapes one benchmark cluster.
type clusterSpec struct {
	nodes   int
	rf      int
	tcp     bool // loopback TCP; otherwise the in-process pipe
	storage storage.Options
}

// env is a running cluster assembled from the public constructors, with
// the tracer's wrappers around every codec, listener and connection when
// tr is non-nil.
type env struct {
	dir    string
	spec   clusterSpec
	topo   *hashring.Topology
	nodes  []*cluster.Node
	client *cluster.Client
	tr     *tracer
}

func startCluster(dir string, spec clusterSpec, tr *tracer) (*env, error) {
	e := &env{dir: dir, spec: spec, topo: hashring.New(spec.nodes, 64), tr: tr}
	var network *transport.Network
	if !spec.tcp {
		network = transport.NewNetwork()
	}
	listeners := make([]transport.Listener, spec.nodes)
	addrs := make(map[hashring.NodeID]string, spec.nodes)
	closeListeners := func() {
		for _, l := range listeners {
			if l != nil {
				l.Close()
			}
		}
	}
	for i := range listeners {
		var l transport.Listener
		var err error
		if spec.tcp {
			l, err = transport.ListenTCP("127.0.0.1:0", 0)
		} else {
			l, err = network.Listen(fmt.Sprintf("node-%d", i))
		}
		if err != nil {
			closeListeners()
			return nil, err
		}
		if tr != nil {
			l = tracedListener{Listener: l, tr: tr}
		}
		listeners[i] = l
		addrs[hashring.NodeID(i)] = l.Addr()
	}
	dial := func(addr string) (*transport.Client, error) {
		var c transport.Conn
		var err error
		if spec.tcp {
			c, err = transport.DialTCP(addr, 0)
		} else {
			c, err = network.Dial(addr)
		}
		if err != nil {
			return nil, err
		}
		if tr != nil {
			c = tr.dialed(addr, c)
		}
		return transport.NewClient(c), nil
	}
	for i, l := range listeners {
		id := hashring.NodeID(i)
		var codec wire.Codec = wire.FastCodec{}
		if tr != nil {
			codec = tracedCodec{inner: codec, tr: tr, node: l.Addr()}
		}
		n, err := cluster.StartNode(l, cluster.NodeOptions{
			ID:                id,
			Dir:               filepath.Join(dir, fmt.Sprintf("node-%d", i)),
			Storage:           spec.storage,
			Codec:             codec,
			Topology:          e.topo,
			Addrs:             addrs,
			ReplicationFactor: spec.rf,
			AdvertiseAddr:     addrs[id],
		})
		if err != nil {
			for _, l := range listeners[i:] {
				l.Close()
			}
			e.close()
			return nil, err
		}
		e.nodes = append(e.nodes, n)
	}
	conns := make(map[hashring.NodeID]*transport.Client, spec.nodes)
	for id, addr := range addrs {
		c, err := dial(addr)
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			e.close()
			return nil, err
		}
		conns[id] = c
	}
	var codec wire.Codec = wire.FastCodec{}
	if tr != nil {
		codec = tracedCodec{inner: codec, tr: tr}
	}
	e.client = cluster.NewClient(e.topo, conns, cluster.ClientOptions{
		Codec:             codec,
		ReplicationFactor: spec.rf,
		Dialer:            dial,
		Addrs:             addrs,
	})
	return e, nil
}

// close stops the client and every node and removes the data directory.
func (e *env) close() error {
	if e.client != nil {
		e.client.Close()
	}
	var errs []error
	for _, n := range e.nodes {
		errs = append(errs, n.Close())
	}
	errs = append(errs, os.RemoveAll(e.dir))
	return errors.Join(errs...)
}

func (e *env) flush() error {
	for _, n := range e.nodes {
		if err := n.Engine().Flush(); err != nil {
			return err
		}
	}
	return nil
}

func (e *env) waitIdle() error {
	for _, n := range e.nodes {
		if err := n.Engine().WaitIdle(); err != nil {
			return err
		}
	}
	return nil
}

// engineFor returns the engine of the node that owns pk's first replica.
func (e *env) engineFor(pk string) *storage.Engine {
	return e.nodes[e.topo.Primary(pk)].Engine()
}

// stats sums the engines' counters and state; Levels holds only L0, the
// flush landing zone.
func (e *env) stats() storage.EngineStats {
	sum := storage.EngineStats{Levels: make([]storage.LevelStats, 1)}
	for _, n := range e.nodes {
		st := n.Engine().Stats()
		sum.Flushes += st.Flushes
		sum.FlushedBytes += st.FlushedBytes
		sum.Compactions += st.Compactions
		sum.CompactionBytesOut += st.CompactionBytesOut
		sum.FrozenMemtables += st.FrozenMemtables
		sum.BlockCacheHits += st.BlockCacheHits
		sum.BlockCacheMisses += st.BlockCacheMisses
		sum.BlockCacheEvictions += st.BlockCacheEvictions
		sum.BlockBytesLogical += st.BlockBytesLogical
		sum.BlockBytesStored += st.BlockBytesStored
		if len(st.Levels) > 0 {
			sum.Levels[0].Tables += st.Levels[0].Tables
		}
	}
	return sum
}

// diskBytes is the size of every file under the cluster's directory:
// SSTables, WAL segments and manifests of every replica.
func (e *env) diskBytes() (int64, error) {
	var total int64
	err := filepath.WalkDir(e.dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// sampler polls engine state while a phase runs and keeps the maxima of
// gauges that the cumulative counters cannot show.
type sampler struct {
	stop        chan struct{}
	done        chan struct{}
	frozenMax   int
	l0TablesMax int
}

func (e *env) startSampler() *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			st := e.stats()
			s.frozenMax = max(s.frozenMax, st.FrozenMemtables)
			s.l0TablesMax = max(s.l0TablesMax, st.Levels[0].Tables)
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and waits for it, after which its maxima are
// safe to read.
func (s *sampler) finish() {
	close(s.stop)
	<-s.done
}
