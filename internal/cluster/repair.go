package cluster

// This file is the anti-entropy repair pass: the background convergence
// guarantee the per-cell versions were built for. Failover read-repair
// only narrows divergence on keys a failover read happens to touch;
// this pass walks every replicated token range, compares Merkle-style
// digests between the range's owners, descends only into mismatched
// subtrees, and reconciles leaf differences by shipping cells BOTH
// directions with last-write-wins on version — so after one pass every
// replica of a range holds the same winners, tombstones included,
// regardless of which dual-write forwards were dropped, which replica a
// concurrent writer reached first, or which side saw a delete.
//
// The exchange rides the epoch-0 admin path end to end: DigestRequest
// probes, StreamRangeRequest pulls the cells of a mismatched leaf from
// both owners, and BatchPutRequest ships each side's winners to the
// other with their original versions, so the receiving engine's LWW
// merge keeps anything newer it already has — repair can never move a
// replica backwards.

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"scalekv/internal/hashring"
	"scalekv/internal/row"
	"scalekv/internal/storage"
	"scalekv/internal/wire"
)

const (
	// repairDigestDepth is the tree fan-out per digest round: 2^4 = 16
	// leaf buckets per request. A mismatched leaf with more cells than
	// repairLeafMaxCells is probed again at this depth over the leaf's
	// own sub-range — the "descend into mismatched subtrees" walk —
	// instead of streamed wholesale.
	repairDigestDepth  = 4
	repairLeafMaxCells = 512
	// repairMaxDescent bounds the descent; 12 rounds of depth 4 resolve
	// token ranges down to 2^16 wide before falling back to streaming.
	repairMaxDescent = 12
)

// RepairReport summarizes one anti-entropy pass.
type RepairReport struct {
	// Ranges is how many replicated token ranges were walked; Pairs how
	// many (reference, replica) digest comparisons ran.
	Ranges int
	Pairs  int
	// DigestRPCs counts digest probes; LeafMismatches how many digest
	// leaves differed (each is either descended into or streamed).
	DigestRPCs     int
	LeafMismatches int
	// CellsShipped counts cells sent to lagging replicas, both
	// directions. Zero on a converged cluster — the pass then cost only
	// digests.
	CellsShipped int64
}

// merge folds another report's counters in; each repair worker
// accumulates into its own report and merges under the pool's mutex.
func (r *RepairReport) merge(o *RepairReport) {
	r.Ranges += o.Ranges
	r.Pairs += o.Pairs
	r.DigestRPCs += o.DigestRPCs
	r.LeafMismatches += o.LeafMismatches
	r.CellsShipped += o.CellsShipped
}

// Repair runs one anti-entropy pass over the cluster at replication
// factor rf (<= 0 means the cluster's configured factor): every
// replicated range converges to the per-cell last-write-wins winner on
// all its owners. It serializes with AddNode/RemoveNode — repair and
// migration both move epoch-0 traffic — and fences every engine's
// tombstone GC for the duration, so a tombstone observed by a digest
// cannot be collected before the pass finishes propagating it.
func (c *Cluster) Repair(rf int) (*RepairReport, error) {
	c.topoMu.Lock()
	defer c.topoMu.Unlock()
	if rf <= 0 {
		rf = c.opts.ReplicationFactor
	}
	// Fence per range, not globally: each worker of the parallel pass
	// fences only the token span it is digesting, for only as long as it
	// repairs it, so tombstone GC elsewhere proceeds and a failed range
	// cannot leave the whole keyspace fenced.
	engines := make([]*storage.Engine, 0, len(c.Nodes))
	for _, n := range c.Nodes {
		engines = append(engines, n.Engine())
	}
	fence := func(lo, hi int64) func() {
		releases := make([]func(), 0, len(engines))
		for _, e := range engines {
			releases = append(releases, e.FenceRange(lo, hi))
		}
		return func() {
			for _, rel := range releases {
				rel()
			}
		}
	}
	return c.client.repairRanges(math.MinInt64, math.MaxInt64, rf, fence, nil)
}

// RepairAll repairs every replicated range of the client's current
// topology — the admin entry point for remote clusters (cmd/kvstore).
// It refreshes the ring first (best effort — standalone nodes carry no
// topology), because repair traffic is all epoch-0 and would otherwise
// never trip the wrong-epoch refresh: a periodic repair daemon must
// not walk its boot-time ring forever while the cluster grows. Unlike
// Cluster.Repair it cannot fence remote engines' tombstone GC, so run
// it often enough that deletes repair before their tombstones are
// collected.
func (c *Client) RepairAll(rf int) (*RepairReport, error) {
	_ = c.refreshRing()
	return c.RepairRange(math.MinInt64, math.MaxInt64, rf)
}

// RepairRange anti-entropy-repairs the intersection of [lo, hi] with
// every replicated range of the current topology at replication factor
// rf (<= 0 means the client's configured factor). For each range it
// syncs the primary bidirectionally with every other owner — after
// which the primary holds the range's global LWW state — and then
// re-syncs the earlier owners so all of them end on that state; a
// second call over converged replicas ships nothing. Independent
// ranges are repaired concurrently through a bounded worker pool
// (ClientOptions.RepairConcurrency wide), so a converged pass's wall
// clock is dominated by the slowest range, not the sum of all digests.
func (c *Client) RepairRange(lo, hi int64, rf int) (*RepairReport, error) {
	return c.repairRanges(lo, hi, rf, nil, nil)
}

// repairJob is one owner-constant token range queued for a repair
// worker.
type repairJob struct {
	lo, hi int64
	owners []hashring.NodeID
}

// repairRanges is the pool behind RepairRange and Cluster.Repair. The
// ranges of OwnedRanges are disjoint, so workers never race on a cell:
// each job's pair syncs touch only its own token span. fence, when
// non-nil, is invoked per range before its first digest and released
// after its last ship — Cluster.Repair uses it to fence tombstone GC
// exactly where and while repair is looking. only, when non-nil,
// restricts the pass to ranges that node owns — Node.RepairNow uses it
// so each member repairs its own slice of the keyspace instead of
// every node walking the whole ring every period. On error the first
// failure is reported and no further ranges are started; in-flight
// ranges finish (their shipped cells are valid repairs on their own).
func (c *Client) repairRanges(lo, hi int64, rf int, fence func(lo, hi int64) func(), only *hashring.NodeID) (*RepairReport, error) {
	if rf <= 0 {
		rf = c.rf
	}
	t := c.topo()
	var jobs []repairJob
	for _, or := range t.OwnedRanges(rf) {
		rlo, rhi := or.Lo, or.Hi
		if rlo < lo {
			rlo = lo
		}
		if rhi > hi {
			rhi = hi
		}
		if rlo > rhi || len(or.Owners) < 2 {
			continue
		}
		if only != nil {
			owns := false
			for _, o := range or.Owners {
				if o == *only {
					owns = true
					break
				}
			}
			if !owns {
				continue
			}
		}
		jobs = append(jobs, repairJob{lo: rlo, hi: rhi, owners: or.Owners})
	}
	conc := c.repairConc
	if conc > len(jobs) {
		conc = len(jobs)
	}
	if conc < 1 {
		conc = 1
	}

	rep := &RepairReport{}
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	jobCh := make(chan repairJob)
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range jobCh {
				local := &RepairReport{}
				err := c.repairOneRange(job, fence, local)
				mu.Lock()
				rep.merge(local)
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	for _, job := range jobs {
		mu.Lock()
		stop := firstErr != nil
		mu.Unlock()
		if stop {
			break
		}
		jobCh <- job
	}
	close(jobCh)
	wg.Wait()
	return rep, firstErr
}

// repairOneRange converges all owners of one token range.
func (c *Client) repairOneRange(job repairJob, fence func(lo, hi int64) func(), rep *RepairReport) error {
	if fence != nil {
		release := fence(job.lo, job.hi)
		defer release()
	}
	rep.Ranges++
	ref := job.owners[0]
	others := job.owners[1:]
	// Sweep 1: pull everything into the reference (bidirectionally, so
	// each partner also receives what the reference has gathered so
	// far). After the last pair, ref and the last partner hold the
	// range's global LWW state. Pairs of one range stay sequential —
	// the accumulate-into-reference logic depends on their order.
	for _, other := range others {
		rep.Pairs++
		if err := c.syncPair(ref, other, job.lo, job.hi, repairMaxDescent, rep); err != nil {
			return err
		}
	}
	// Sweep 2 (rf > 2 only): earlier partners have not seen what later
	// ones contributed; one more sync against the now-complete
	// reference finishes them. Converged pairs cost one digest round
	// trip each.
	for i := 0; i+1 < len(others); i++ {
		rep.Pairs++
		if err := c.syncPair(ref, others[i], job.lo, job.hi, repairMaxDescent, rep); err != nil {
			return err
		}
	}
	return nil
}

// syncPair converges nodes a and b on [lo, hi]: digest both sides,
// descend into mismatched leaves while they are large and splittable,
// and reconcile the rest cell by cell.
func (c *Client) syncPair(a, b hashring.NodeID, lo, hi int64, budget int, rep *RepairReport) error {
	la, err := c.digest(a, lo, hi, rep)
	if err != nil {
		return err
	}
	lb, err := c.digest(b, lo, hi, rep)
	if err != nil {
		return err
	}
	ranges := storage.DigestRanges(lo, hi, repairDigestDepth)
	if len(la) != len(ranges) || len(lb) != len(ranges) {
		return fmt.Errorf("cluster: digest shape mismatch over [%d,%d]: %d vs %d vs %d leaves",
			lo, hi, len(la), len(lb), len(ranges))
	}
	for i, r := range ranges {
		if la[i] == lb[i] {
			continue
		}
		rep.LeafMismatches++
		blo, bhi := r[0], r[1]
		big := la[i].Cells > repairLeafMaxCells || lb[i].Cells > repairLeafMaxCells
		if big && budget > 0 && blo < bhi {
			if err := c.syncPair(a, b, blo, bhi, budget-1, rep); err != nil {
				return err
			}
			continue
		}
		if err := c.reconcileLeaf(a, b, blo, bhi, rep); err != nil {
			return err
		}
	}
	return nil
}

// digest fetches one node's digest leaves for [lo, hi].
func (c *Client) digest(node hashring.NodeID, lo, hi int64, rep *RepairReport) ([]wire.DigestLeaf, error) {
	rep.DigestRPCs++
	resp, err := c.call(node, &wire.DigestRequest{Lo: lo, Hi: hi, Depth: repairDigestDepth})
	if err != nil {
		return nil, fmt.Errorf("cluster: digest node %d: %w", node, err)
	}
	dr, ok := resp.(*wire.DigestResponse)
	if !ok {
		return nil, fmt.Errorf("cluster: unexpected digest response %T", resp)
	}
	if dr.ErrMsg != "" {
		return nil, fmt.Errorf("cluster: digest node %d: %s", node, dr.ErrMsg)
	}
	return dr.Leaves, nil
}

// cellAddr keys one cell address during leaf reconciliation.
type cellAddr struct {
	pk string
	ck string
}

// reconcileLeaf pulls the cells of [lo, hi] from both nodes and ships
// each side's winners to the other. Shipped entries keep their original
// versions, so the receiving engine's merge resolves exactly like any
// forwarded copy; equal versions name the same write and move nothing.
func (c *Client) reconcileLeaf(a, b hashring.NodeID, lo, hi int64, rep *RepairReport) error {
	ea, err := c.streamAll(a, lo, hi)
	if err != nil {
		return err
	}
	eb, err := c.streamAll(b, lo, hi)
	if err != nil {
		return err
	}
	index := func(entries []row.Entry) map[cellAddr]row.Entry {
		m := make(map[cellAddr]row.Entry, len(entries))
		for _, e := range entries {
			m[cellAddr{pk: e.PK, ck: string(e.CK)}] = e
		}
		return m
	}
	ma, mb := index(ea), index(eb)
	var toA, toB []row.Entry
	pick := func(have row.Entry, other map[cellAddr]row.Entry, out *[]row.Entry, addr cellAddr) {
		theirs, ok := other[addr]
		if ok && !theirs.Ver.Less(have.Ver) {
			return // theirs is newer or the same write; nothing to ship
		}
		*out = append(*out, have)
	}
	for addr, e := range ma {
		pick(e, mb, &toB, addr)
	}
	for addr, e := range mb {
		pick(e, ma, &toA, addr)
	}
	if err := c.shipRepair(b, toB); err != nil {
		return err
	}
	if err := c.shipRepair(a, toA); err != nil {
		return err
	}
	rep.CellsShipped += int64(len(toA) + len(toB))
	return nil
}

// streamAll drains a node's cells — tombstones included — over an
// inclusive token range via the paged epoch-0 stream.
func (c *Client) streamAll(node hashring.NodeID, lo, hi int64) ([]row.Entry, error) {
	var out []row.Entry
	afterTok, afterPK := int64(math.MinInt64), ""
	for {
		resp, err := c.call(node, &wire.StreamRangeRequest{
			Lo: lo, Hi: hi, AfterToken: afterTok, AfterPK: afterPK,
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: repair stream node %d: %w", node, err)
		}
		page, ok := resp.(*wire.StreamRangeResponse)
		if !ok {
			return nil, fmt.Errorf("cluster: unexpected repair stream response %T", resp)
		}
		if page.ErrMsg != "" {
			return nil, errors.New(page.ErrMsg)
		}
		out = append(out, page.Entries...)
		if !page.More {
			return out, nil
		}
		afterTok, afterPK = page.NextToken, page.NextPK
	}
}

// shipRepair writes repair entries to a node at epoch 0, chunked.
func (c *Client) shipRepair(node hashring.NodeID, entries []row.Entry) error {
	const chunk = streamPageCells
	for len(entries) > 0 {
		n := len(entries)
		if n > chunk {
			n = chunk
		}
		resp, err := c.call(node, &wire.BatchPutRequest{Entries: entries[:n]}) // epoch 0
		if err != nil {
			return fmt.Errorf("cluster: repair ship to node %d: %w", node, err)
		}
		bp, ok := resp.(*wire.BatchPutResponse)
		if !ok {
			return fmt.Errorf("cluster: unexpected repair ship response %T", resp)
		}
		if bp.ErrMsg != "" {
			return fmt.Errorf("cluster: repair ship to node %d: %s", node, bp.ErrMsg)
		}
		entries = entries[n:]
	}
	return nil
}
