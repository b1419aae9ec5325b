package cluster

// Membership acceptance tests: wire-level joins under live traffic,
// whole-cluster restart from persisted topology files, peer health
// flips with failover reads, and graceful-departure announcements —
// all over real TCP sockets, so the full network path (framing,
// redialing, self-dialed flips) is exercised, not the in-process
// fabric shortcut.

import (
	"bytes"
	"fmt"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scalekv/internal/hashring"
	"scalekv/internal/transport"
)

func tcpDial(addr string) (*transport.Client, error) {
	conn, err := transport.DialTCP(addr, 0)
	if err != nil {
		return nil, err
	}
	return transport.NewClient(conn), nil
}

// bootTCPRing hand-assembles an n-node epoch-1 ring on loopback TCP —
// the moral equivalent of n `kvstore serve` processes whose operator
// wrote the same member list into each config.
func bootTCPRing(t *testing.T, baseDir string, n, rf, vnodes int) ([]*Node, map[hashring.NodeID]string) {
	t.Helper()
	listeners := make([]transport.Listener, n)
	addrs := make(map[hashring.NodeID]string, n)
	for i := 0; i < n; i++ {
		l, err := transport.ListenTCP("127.0.0.1:0", 0)
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		addrs[hashring.NodeID(i)] = l.Addr()
	}
	ring := hashring.New(n, vnodes)
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		id := hashring.NodeID(i)
		node, err := StartNode(listeners[i], NodeOptions{
			ID:                id,
			Dir:               filepath.Join(baseDir, fmt.Sprintf("node-%d", i)),
			Topology:          ring,
			Addrs:             addrs,
			ReplicationFactor: rf,
			Dialer:            tcpDial,
			AdvertiseAddr:     addrs[id],
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	return nodes, addrs
}

// restartTCPNode reopens a stopped member on its previous address,
// with no topology supplied: everything must come from the persisted
// topology file.
func restartTCPNode(t *testing.T, dir, addr string, id hashring.NodeID, opts NodeOptions) *Node {
	t.Helper()
	l, err := transport.ListenTCP(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts.ID = id
	opts.Dir = dir
	opts.Dialer = tcpDial
	opts.AdvertiseAddr = addr
	node, err := StartNode(l, opts)
	if err != nil {
		t.Fatal(err)
	}
	return node
}

// TestWireJoinUnderLiveTraffic: a 3-node TCP ring accepts a 4th member
// through JoinRing while a client hammers it — zero failed operations,
// every key readable afterwards, and the data moved is bounded by
// ~K/N (the consistent-hashing minimal-movement claim, with 2x slack).
func TestWireJoinUnderLiveTraffic(t *testing.T) {
	baseDir := t.TempDir()
	nodes, addrs := bootTCPRing(t, baseDir, 3, 1, 16)
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()

	cli, err := Connect([]string{addrs[0]}, ClientOptions{Dialer: tcpDial})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const K = 3000
	key := func(i int) string { return fmt.Sprintf("pk-%05d", i) }
	for i := 0; i < K; i++ {
		if err := cli.Put(key(i), []byte("ck"), []byte(fmt.Sprintf("v0-%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	// Live traffic: overwrite and read the key space until told to stop.
	// Every failure counts — the join must be invisible to clients.
	var failed, ops atomic.Int64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := key(i % K)
			if err := cli.Put(k, []byte("ck"), []byte(fmt.Sprintf("v1-%d", i))); err != nil {
				failed.Add(1)
			}
			if _, found, err := cli.Get(k, []byte("ck")); err != nil || !found {
				failed.Add(1)
			}
			ops.Add(2)
		}
	}()

	l, err := transport.ListenTCP("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	joined, jr, err := JoinRing(l, NodeOptions{
		ID:            -1, // auto: next free ID from the seed's membership
		Dir:           filepath.Join(baseDir, "node-3"),
		Dialer:        tcpDial,
		AdvertiseAddr: l.Addr(),
	}, addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	nodes = append(nodes, joined)

	close(stop)
	<-done
	if f := failed.Load(); f != 0 {
		t.Fatalf("%d of %d live operations failed during the join", f, ops.Load())
	}
	if joined.ID() != 3 {
		t.Fatalf("auto-ID picked %d, want 3", joined.ID())
	}
	if jr.Epoch != 2 {
		t.Fatalf("post-join epoch %d, want 2", jr.Epoch)
	}
	// Minimal movement: the joiner takes ~1/4 of the keyspace.
	if jr.CellsStreamed > 2*K/4 {
		t.Fatalf("join streamed %d cells, want <= %d (2K/N)", jr.CellsStreamed, 2*K/4)
	}
	if jr.CellsStreamed == 0 {
		t.Fatal("join streamed nothing; the diff did not move data")
	}

	// Every key still readable through the grown ring.
	for i := 0; i < K; i++ {
		if _, found, err := cli.Get(key(i), []byte("ck")); err != nil || !found {
			t.Fatalf("key %s lost after join: found=%v err=%v", key(i), found, err)
		}
	}
	// The joiner holds data and flipped epochs along with everyone else.
	if got := joined.Topology().Epoch(); got != 2 {
		t.Fatalf("joiner at epoch %d, want 2", got)
	}
	for _, n := range nodes {
		if got := n.Topology().Epoch(); got != 2 {
			t.Fatalf("node %d at epoch %d, want 2", n.ID(), got)
		}
	}
}

// TestRestartFromPersistedTopology: a 4-node rf=2 TCP cluster (grown
// to epoch 2 by a wire join) is torn down mid-traffic and restarted
// from its data directories alone — no seed, no supplied topology.
// The restarted ring serves every key at the persisted epoch, and
// once each member has run one repair pass, a second pass ships zero
// cells: the cluster reassembled converged.
func TestRestartFromPersistedTopology(t *testing.T) {
	baseDir := t.TempDir()
	nodes, addrs := bootTCPRing(t, baseDir, 3, 2, 16)
	closed := false
	defer func() {
		if !closed {
			for _, n := range nodes {
				n.Close()
			}
		}
	}()

	cli, err := Connect([]string{addrs[1]}, ClientOptions{Dialer: tcpDial})
	if err != nil {
		t.Fatal(err)
	}
	if cli.rf != 2 {
		t.Fatalf("Connect inherited rf %d, want 2 from the ring", cli.rf)
	}

	const K = 2000
	key := func(i int) string { return fmt.Sprintf("pk-%05d", i) }
	for i := 0; i < K; i++ {
		if err := cli.Put(key(i), []byte("ck"), []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	// Grow to 4 members over the wire so the persisted epoch is not
	// the trivial boot epoch.
	l, err := transport.ListenTCP("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	joined, jr, err := JoinRing(l, NodeOptions{
		ID:            -1,
		Dir:           filepath.Join(baseDir, "node-3"),
		Dialer:        tcpDial,
		AdvertiseAddr: l.Addr(),
	}, addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	nodes = append(nodes, joined)
	addrs[3] = l.Addr()
	if jr.Epoch != 2 {
		t.Fatalf("post-join epoch %d, want 2", jr.Epoch)
	}

	// Kill the whole cluster while traffic is in flight. Failures in
	// this window are expected (the cluster is going away); what must
	// hold is what the restart serves afterwards.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			cli.Put(key(i%K), []byte("ck"), []byte(fmt.Sprintf("v2-%d", i)))
		}
	}()
	time.Sleep(20 * time.Millisecond)
	for _, n := range nodes {
		n.Close()
	}
	closed = true
	close(stop)
	<-done
	cli.Close()

	// Restart every member from disk on its old address, topology
	// unsupplied: the persisted file is the only membership source.
	restarted := make([]*Node, 4)
	for i := 0; i < 4; i++ {
		id := hashring.NodeID(i)
		restarted[i] = restartTCPNode(t, filepath.Join(baseDir, fmt.Sprintf("node-%d", i)), addrs[id], id, NodeOptions{})
	}
	defer func() {
		for _, n := range restarted {
			n.Close()
		}
	}()
	for _, n := range restarted {
		rs := n.ring.Load()
		if rs == nil {
			t.Fatalf("node %d restarted without a topology", n.ID())
		}
		if rs.topo.Epoch() != 2 || rs.topo.Size() != 4 || rs.rf != 2 {
			t.Fatalf("node %d restarted at epoch %d size %d rf %d, want 2/4/2",
				n.ID(), rs.topo.Epoch(), rs.topo.Size(), rs.rf)
		}
	}

	cli2, err := Connect([]string{addrs[2]}, ClientOptions{Dialer: tcpDial})
	if err != nil {
		t.Fatal(err)
	}
	defer cli2.Close()
	if got := cli2.Ring().Epoch(); got != 2 {
		t.Fatalf("restarted ring at epoch %d, want 2", got)
	}
	for i := 0; i < K; i++ {
		if _, found, err := cli2.Get(key(i), []byte("ck")); err != nil || !found {
			t.Fatalf("key %s unreadable after restart: found=%v err=%v", key(i), found, err)
		}
	}

	// One repair pass per member reconciles whatever the mid-traffic
	// kill left half-replicated; a second pass over the converged
	// cluster must ship nothing.
	for _, n := range restarted {
		if _, err := n.RepairNow(); err != nil {
			t.Fatalf("node %d repair: %v", n.ID(), err)
		}
	}
	for _, n := range restarted {
		rep, err := n.RepairNow()
		if err != nil {
			t.Fatalf("node %d second repair: %v", n.ID(), err)
		}
		if rep.CellsShipped != 0 {
			t.Fatalf("node %d second repair shipped %d cells, want 0", n.ID(), rep.CellsShipped)
		}
	}
}

// TestPeerHealthFlipAndFailoverReads: killing one member of an rf=2
// ring flips its health to down on every peer (after the suspicion
// window), while client reads keep succeeding via replica failover;
// restarting the member flips it back up and kicks a repair pass on
// the peers that saw it return.
func TestPeerHealthFlipAndFailoverReads(t *testing.T) {
	baseDir := t.TempDir()
	listeners := make([]transport.Listener, 3)
	addrs := make(map[hashring.NodeID]string, 3)
	for i := 0; i < 3; i++ {
		l, err := transport.ListenTCP("127.0.0.1:0", 0)
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		addrs[hashring.NodeID(i)] = l.Addr()
	}
	ring := hashring.New(3, 16)
	nodes := make([]*Node, 3)
	for i := 0; i < 3; i++ {
		id := hashring.NodeID(i)
		node, err := StartNode(listeners[i], NodeOptions{
			ID:                id,
			Dir:               filepath.Join(baseDir, fmt.Sprintf("node-%d", i)),
			Topology:          ring,
			Addrs:             addrs,
			ReplicationFactor: 2,
			Dialer:            tcpDial,
			AdvertiseAddr:     addrs[id],
			ProbeInterval:     40 * time.Millisecond,
			RepairInterval:    time.Hour, // only kicked passes fire in-test
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	defer func() {
		for _, n := range nodes {
			if n != nil {
				n.Close()
			}
		}
	}()

	cli, err := Connect([]string{addrs[0]}, ClientOptions{Dialer: tcpDial})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	const K = 300
	key := func(i int) string { return fmt.Sprintf("pk-%03d", i) }
	for i := 0; i < K; i++ {
		if err := cli.Put(key(i), []byte("ck"), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	// Kill node 2 without an announcement: peers must notice via
	// missed probes alone.
	victim := nodes[2]
	nodes[2] = nil
	victim.Close()

	waitHealth := func(observer *Node, id hashring.NodeID, wantUp bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			if ph, ok := observer.PeerHealth()[id]; ok && ph.Up == wantUp {
				if !wantUp && ph.Suspicion < observer.suspicionThreshold {
					t.Fatalf("node %d sees %d down with suspicion %d < threshold", observer.ID(), id, ph.Suspicion)
				}
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %d never saw peer %d up=%v (health: %+v)",
					observer.ID(), id, wantUp, observer.PeerHealth())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitHealth(nodes[0], 2, false)
	waitHealth(nodes[1], 2, false)

	// Reads survive the outage: every partition has a live replica.
	for i := 0; i < K; i++ {
		if _, found, err := cli.Get(key(i), []byte("ck")); err != nil || !found {
			t.Fatalf("read %s with node 2 down: found=%v err=%v", key(i), found, err)
		}
	}
	if cli.Failovers.Load() == 0 {
		t.Fatal("no failovers recorded; node 2 was not primary for anything?")
	}

	// The returnee is re-probed up, and its return kicks catch-up
	// repair on the observers.
	passes0 := nodes[0].RepairPasses.Load()
	nodes[2] = restartTCPNode(t, filepath.Join(baseDir, "node-2"), addrs[2], 2, NodeOptions{
		ProbeInterval:  40 * time.Millisecond,
		RepairInterval: time.Hour,
	})
	waitHealth(nodes[0], 2, true)
	waitHealth(nodes[1], 2, true)
	deadline := time.Now().Add(10 * time.Second)
	for nodes[0].RepairPasses.Load() == passes0 {
		if time.Now().After(deadline) {
			t.Fatal("peer recovery never kicked a repair pass")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGracefulShutdownAnnouncesDeparture: Shutdown sends LeaveRequest
// to every peer, flipping this node's health to down immediately —
// no suspicion window, no probe traffic needed (probing is off here).
func TestGracefulShutdownAnnouncesDeparture(t *testing.T) {
	baseDir := t.TempDir()
	nodes, _ := bootTCPRing(t, baseDir, 3, 1, 16)
	defer func() {
		for i, n := range nodes {
			if i != 1 {
				n.Close()
			}
		}
	}()

	if err := nodes[1].Shutdown(); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2} {
		ph, ok := nodes[i].PeerHealth()[1]
		if !ok || ph.Up {
			t.Fatalf("node %d did not record node 1's departure: %+v", i, nodes[i].PeerHealth())
		}
	}
}

// TestTopologyFilePersistence: the snapshot round-trips exactly, a
// missing file reads as absent, and a corrupted file fails the boot
// loudly instead of seeding guessed membership.
func TestTopologyFilePersistence(t *testing.T) {
	dir := t.TempDir()
	topo, _, _, err := loadTopologyFile(dir)
	if err != nil || topo != nil {
		t.Fatalf("missing file: topo=%v err=%v, want nil/nil", topo, err)
	}

	want := hashring.FromNodes(7, []hashring.NodeID{0, 2, 5}, 32)
	addrs := map[hashring.NodeID]string{0: "127.0.0.1:9000", 2: "127.0.0.1:9002", 5: "127.0.0.1:9005"}
	if err := saveTopologyFile(dir, want, addrs, 3); err != nil {
		t.Fatal(err)
	}
	got, gaddrs, rf, err := loadTopologyFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch() != 7 || got.Vnodes() != 32 || got.Size() != 3 || rf != 3 {
		t.Fatalf("round trip: epoch=%d vnodes=%d size=%d rf=%d", got.Epoch(), got.Vnodes(), got.Size(), rf)
	}
	for id, a := range addrs {
		if gaddrs[id] != a {
			t.Fatalf("addr %d: %q, want %q", id, gaddrs[id], a)
		}
	}
	// Same placement, not just same parameters.
	for _, tok := range []int64{math.MinInt64, -1, 0, 1, math.MaxInt64} {
		if want.PrimaryForToken(tok) != got.PrimaryForToken(tok) {
			t.Fatalf("placement diverged at token %d", tok)
		}
	}

	if err := os.WriteFile(filepath.Join(dir, topologyFileName), []byte("scalekv-topology v1\ngarbage here\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := loadTopologyFile(dir); err == nil {
		t.Fatal("corrupted topology file loaded without error")
	}
}

// lockedBuffer is a bytes.Buffer safe for concurrent log writers.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRingInstallLogsPersistFailure: a node that cannot persist its
// epoch says so. A directory squatting on the topology file's temp path
// leaves the data directory unwritable for the snapshot — for any user,
// root included — so the install's save fails; the flip still takes
// effect in memory and the failure reaches the default slog handler.
func TestRingInstallLogsPersistFailure(t *testing.T) {
	var logs lockedBuffer
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(&logs, nil)))
	t.Cleanup(func() { slog.SetDefault(prev) })

	l, err := transport.ListenTCP("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	node, err := StartNode(l, NodeOptions{ID: 3, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if err := os.Mkdir(filepath.Join(dir, topologyFileName+".tmp"), 0o755); err != nil {
		t.Fatal(err)
	}

	topo := hashring.FromNodes(5, []hashring.NodeID{3}, 16)
	node.installRing(topo, map[hashring.NodeID]string{3: l.Addr()}, 1, true)

	if got := node.Topology().Epoch(); got != 5 {
		t.Fatalf("install did not take effect: epoch %d, want 5", got)
	}
	out := logs.String()
	for _, want := range []string{"topology persist failed", "node=3", "epoch=5", "err="} {
		if !strings.Contains(out, want) {
			t.Fatalf("log lacks %q:\n%s", want, out)
		}
	}
}
