package storage

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"scalekv/internal/memtable"
	"scalekv/internal/row"
	"scalekv/internal/sstable"
)

// frozenMem is an immutable memtable queued for flush, together with
// the WAL segments that made it durable. The worker deletes the
// segments only after the SSTable is live, so a crash at any point
// between freeze and flush replays them on the next Open.
type frozenMem struct {
	mem      *memtable.Memtable
	walPaths []string
}

// tableHandle reference-counts an SSTable reader so the compactor can
// retire inputs while reads are in flight. The shard's level lists own
// one reference; every snapshot pins one more. The last release closes
// the file, deleting it too when the table was superseded. The handle
// also carries the table's partition-key bounds and file size — the
// level machinery's working data — so picking a compaction never
// touches the tables themselves.
type tableHandle struct {
	*sstable.Reader
	first string // smallest partition key in the table
	last  string // largest partition key in the table
	size  int64  // file size in bytes
	refs  atomic.Int64
	drop  atomic.Bool // superseded by compaction: unlink on last release
}

// newTableHandle wraps a freshly opened reader, reading its bounds once
// (manifest-loaded tables take the recorded bounds instead and skip
// this).
func newTableHandle(r *sstable.Reader) (*tableHandle, error) {
	first, last, err := r.Bounds()
	if err != nil {
		return nil, err
	}
	h := &tableHandle{Reader: r, first: first, last: last, size: r.Size()}
	h.refs.Store(1) // list ownership
	return h, nil
}

func (h *tableHandle) acquire() { h.refs.Add(1) }

func (h *tableHandle) release() error {
	if h.refs.Add(-1) > 0 {
		return nil
	}
	path := h.Path()
	err := h.Close()
	if h.drop.Load() {
		os.Remove(path)
	}
	return err
}

// overlaps reports whether the table's key range intersects [lo, hi].
func (h *tableHandle) overlaps(lo, hi string) bool {
	return h.first <= hi && lo <= h.last
}

// shardView is a consistent read snapshot of one shard: the active
// memtable, the frozen queue and the pinned table list — the levels
// flattened oldest-first (deepest level first, L0 last in flush order),
// so merge tie-breaks prefer the newest source. Views are immutable and
// atomically published (see publishLocked); readers acquire one with
// snapshot() and must close it when done so superseded tables can be
// retired.
type shardView struct {
	mem    *memtable.Memtable
	frozen []*frozenMem
	tables []*tableHandle // oldest → newest
	refs   atomic.Int64
}

func (v *shardView) close() {
	if v.refs.Add(-1) > 0 {
		return
	}
	for _, t := range v.tables {
		t.release()
	}
}

// shard is one lock stripe of the engine: a full miniature LSM tree
// with its own write path, WAL segments, leveled SSTable tree and
// background worker. Writes and freezes hold mu exclusively but never
// wait on SSTable I/O; the worker holds mu only to take work and to
// swap results in. Reads never touch mu at all: every mutation that
// changes the read sources (memtable swap, flush accept, compaction or
// purge table swap) republishes an immutable shardView through the
// atomic view pointer, and readers pin it with one CAS.
//
// levels[0] is the flush landing zone: tables in arrival order, ranges
// freely overlapping. levels[n] for n >= 1 hold tables with pairwise
// disjoint partition-key ranges, sorted by first key, each level
// budgeted at LevelBaseBytes * 10^(n-1) bytes. The worker promotes
// overflow downward (see pickJobLocked), merging only the overlapping
// slice of the next level — the leveled policy that bounds both write
// amplification and table count, replacing the old whole-shard
// full-merge whose rewrite cost grew quadratically with data size.
type shard struct {
	id  int
	eng *Engine

	mu   sync.RWMutex
	cond *sync.Cond // paired with &mu; broadcast on every state change

	// view is the current read snapshot; see publishLocked/snapshot.
	view atomic.Pointer[shardView]
	// partGen counts mutations to this shard's partition set: a write
	// creating a new (pk, ck) address, a purge removing partitions, a
	// compaction collapsing tombstone-only ones. The engine's merged
	// partition index records the generations it was built from and is
	// rebuilt when any shard's moved — write invalidation for free.
	partGen atomic.Uint64

	mem        *memtable.Memtable
	frozen     []*frozenMem     // oldest first
	levels     [][]*tableHandle // levels[0] = L0; deeper levels range-partitioned
	compactCur []int            // per-level round-robin pick cursor
	wal        *wal             // active segment, opened lazily on first write
	walSeq     int              // next WAL segment number
	sstSeq     int              // next SSTable sequence number
	memGen     int64            // memtable generation, seeds the skip list

	compactReq bool          // leveled maintenance wanted (see pickJobLocked)
	majorReq   bool          // Engine.Compact: merge everything into one run
	purges     []*purgeRange // pending DeleteRange purges, oldest first
	busy       bool          // worker is writing tables outside the lock
	flushErr   error         // last background failure; cleared on success/retry
	closing    bool
	abandoned  bool // simulated crash (tests): worker must not touch disk
}

// maxLevels bounds the level tree. The deepest level has no size
// budget — it is the bottom of the tree; its size is the dataset's.
const maxLevels = 7

func (s *shard) sstPath(seq int) string {
	return filepath.Join(s.eng.opts.Dir, fmt.Sprintf("sst-s%02d-%06d.db", s.id, seq))
}

func (s *shard) walPath(seq int) string {
	return filepath.Join(s.eng.opts.Dir, fmt.Sprintf("wal-s%02d-%06d.log", s.id, seq))
}

// noteSSTName pulls sstSeq past the sequence number embedded in an
// on-disk table name so new tables never collide with existing files.
func (s *shard) noteSSTName(base string) {
	var n int
	fmt.Sscanf(base, fmt.Sprintf("sst-s%02d-%%06d.db", s.id), &n)
	if n >= s.sstSeq {
		s.sstSeq = n + 1
	}
}

// allTablesLocked flattens the level tree oldest-first: deepest level
// first, then upward, L0 last in arrival order — the merge order every
// reader and compaction uses. Caller holds mu.
func (s *shard) allTablesLocked() []*tableHandle {
	var out []*tableHandle
	for n := len(s.levels) - 1; n >= 0; n-- {
		out = append(out, s.levels[n]...)
	}
	return out
}

func (s *shard) totalTablesLocked() int {
	n := 0
	for _, lvl := range s.levels {
		n += len(lvl)
	}
	return n
}

// openShard loads one shard's level manifest and SSTables and replays
// its WAL segments, oldest first, each into its own frozen memtable
// queued for background flush. The engine's version counter is pulled
// forward past every version seen (table footers record their max
// sequence; WAL records carry theirs), so post-recovery writes always
// order after pre-crash ones. On-disk tables the manifest does not list
// are crash leftovers (renamed but never committed); they are swept,
// their data still covered by WAL segments or by the compaction inputs
// that survived. A shard with no manifest has never committed a table,
// so every table file it holds is such a leftover.
func (e *Engine) openShard(id int) (*shard, error) {
	s := &shard{id: id, eng: e, mem: memtable.New(shardSeed(e.opts.Seed, id, 0))}
	s.cond = sync.NewCond(&s.mu)

	releaseAll := func() {
		for _, t := range s.allTablesLocked() {
			t.release()
		}
	}

	entries, err := readShardManifest(s.manifestPath())
	if err != nil {
		return nil, err
	}
	known := map[string]bool{}
	for _, ent := range entries {
		if ent.level >= maxLevels {
			releaseAll()
			return nil, fmt.Errorf("storage: manifest-s%02d places %s at level %d (max %d)", id, ent.name, ent.level, maxLevels-1)
		}
		r, err := e.openTable(filepath.Join(e.opts.Dir, ent.name))
		if err != nil {
			releaseAll()
			return nil, fmt.Errorf("storage: reopen manifest-listed %s: %w", ent.name, err)
		}
		e.advanceSeq(r.MaxSeq())
		h := &tableHandle{Reader: r, first: ent.first, last: ent.last, size: r.Size()}
		h.refs.Store(1)
		for len(s.levels) <= ent.level {
			s.levels = append(s.levels, nil)
		}
		s.levels[ent.level] = append(s.levels[ent.level], h)
		known[ent.name] = true
		s.noteSSTName(ent.name)
	}
	for n := 1; n < len(s.levels); n++ {
		lvl := s.levels[n]
		sort.Slice(lvl, func(a, b int) bool { return lvl[a].first < lvl[b].first })
	}

	names, err := filepath.Glob(filepath.Join(e.opts.Dir, fmt.Sprintf("sst-s%02d-*.db", id)))
	if err != nil {
		releaseAll()
		return nil, err
	}
	for _, name := range names {
		base := filepath.Base(name)
		if known[base] {
			continue
		}
		// Orphan: renamed into place but never committed to the
		// manifest. Its cells live on in the WAL (un-flushed) or in the
		// compaction inputs the manifest still lists.
		s.noteSSTName(base)
		os.Remove(name)
	}

	if !e.opts.DisableWAL {
		segs, err := filepath.Glob(filepath.Join(e.opts.Dir, fmt.Sprintf("wal-s%02d-*.log", id)))
		if err != nil {
			releaseAll()
			return nil, err
		}
		sort.Strings(segs)
		for _, seg := range segs {
			s.memGen++
			rec := memtable.New(shardSeed(e.opts.Seed, id, s.memGen))
			if err := replayWAL(seg, func(r walRec) {
				e.advanceSeq(r.ver.Seq)
				rec.Put(r.pk, r.ck, r.value, r.ver, r.tombstone)
			}); err != nil {
				releaseAll()
				return nil, err
			}
			var n int
			fmt.Sscanf(filepath.Base(seg), fmt.Sprintf("wal-s%02d-%%06d.log", id), &n)
			if n >= s.walSeq {
				s.walSeq = n + 1
			}
			if rec.Len() == 0 {
				// The segment held no intact records at all. Retire it now:
				// nothing else ever would, and it would be re-replayed on
				// every reopen.
				os.Remove(seg)
				continue
			}
			rec.Freeze()
			s.frozen = append(s.frozen, &frozenMem{mem: rec, walPaths: []string{seg}})
		}
		s.memGen++
		s.mem = memtable.New(shardSeed(e.opts.Seed, id, s.memGen))
	}
	// No concurrency yet — the worker starts after Open returns — but the
	// view must exist before the first read.
	s.publishLocked()
	return s, nil
}

// shardSeed derives a distinct deterministic skip-list seed per shard
// and memtable generation.
func shardSeed(base int64, id int, gen int64) int64 {
	return base + int64(id)*1_000_003 + gen
}

// publishLocked installs a fresh immutable view of the shard's read
// sources and retires the previous one. Called under mu at every point
// the sources change: memtable freeze, flush accept, compaction swap,
// purge swap, open and close. The frozen and flattened table slices are
// never mutated in place after publication, so readers traverse them
// without any synchronization beyond the pointer load.
func (s *shard) publishLocked() {
	nv := &shardView{mem: s.mem, frozen: s.frozen, tables: s.allTablesLocked()}
	nv.refs.Store(1) // the publisher's reference: the view is current
	for _, t := range nv.tables {
		t.acquire()
	}
	if old := s.view.Swap(nv); old != nil {
		old.close()
	}
}

// snapshot pins the shard's current read view: one atomic load and one
// CAS, no locks, no allocation. The CAS increments refs only when the
// observed count is positive — a view at zero is being retired by a
// concurrent publish, and bumping it back would resurrect tables whose
// release already began; retry on the freshly published pointer
// instead. The publisher's own reference makes the first attempt
// succeed in all but the publication instant.
func (s *shard) snapshot() *shardView {
	for {
		v := s.view.Load()
		if r := v.refs.Load(); r > 0 && v.refs.CompareAndSwap(r, r+1) {
			return v
		}
	}
}

// ensureWALLocked opens the active WAL segment on first use. Lazy
// creation keeps idle shards from littering the directory. Caller holds
// mu.
func (s *shard) ensureWALLocked() error {
	if s.eng.opts.DisableWAL || s.wal != nil {
		return nil
	}
	w, err := openWAL(s.walPath(s.walSeq))
	if err != nil {
		return err
	}
	s.wal = w
	s.walSeq++
	return nil
}

// putBatch is the per-shard half of Engine.PutBatch: one lock
// acquisition and one WAL write for the whole slice. Entries arrive
// already stamped with their versions.
func (s *shard) putBatch(entries []row.Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return errClosed
	}
	if err := s.checkBacklogLocked(); err != nil {
		return err
	}
	if err := s.ensureWALLocked(); err != nil {
		return err
	}
	if s.wal != nil {
		if err := s.wal.appendBatch(entries); err != nil {
			return err
		}
		if s.eng.opts.Sync == SyncAlways {
			if err := s.wal.sync(); err != nil {
				return err
			}
		}
	}
	inserted := false
	for _, ent := range entries {
		if s.mem.Put(ent.PK, ent.CK, ent.Value, ent.Ver, ent.Tombstone) {
			inserted = true
		}
	}
	if inserted {
		s.partGen.Add(1)
	}
	if s.mem.Bytes() >= s.eng.opts.FlushThreshold {
		s.freezeLocked()
	}
	return nil
}

// freezeLocked seals the active memtable and WAL segment and queues
// them for the background worker, installing a fresh memtable. It
// cannot fail: the commit point is a pointer swap, and the next WAL
// segment is opened lazily by the next write. A no-op on an empty
// memtable. Caller holds mu.
func (s *shard) freezeLocked() {
	if s.mem.Len() == 0 {
		return
	}
	fm := &frozenMem{mem: s.mem}
	if s.wal != nil {
		// SyncOnSeal's durability point: the segment is complete, flush
		// it to stable storage before handing the memtable off. A sync
		// failure cannot fail the freeze (the pointer swap must happen);
		// it surfaces through the background-error channel instead — the
		// SSTable the worker writes supersedes the segment anyway.
		if s.eng.opts.Sync != SyncNever {
			if err := s.wal.sync(); err != nil && s.flushErr == nil {
				s.flushErr = err
			}
		}
		// The sealed segment's records are already written; closing the
		// descriptor cannot unwrite them, so a close error is not a
		// freeze failure.
		_ = s.wal.close()
		fm.walPaths = []string{s.wal.path}
		s.wal = nil
	}
	s.mem.Freeze()
	s.memGen++
	s.mem = memtable.New(shardSeed(s.eng.opts.Seed, s.id, s.memGen))
	s.frozen = append(s.frozen, fm)
	s.publishLocked()
	s.cond.Broadcast()
}

// purgeRange is one pending DeleteRange: the worker rewrites the
// shard's tables without the partitions whose token falls in [lo, hi]
// and reports how many cells that dropped.
type purgeRange struct {
	lo, hi  int64
	removed int64
}

// waitDrainedLocked blocks until the shard has no queued or running
// background work, returning early with any background error. Caller
// holds mu.
func (s *shard) waitDrainedLocked() error {
	for len(s.frozen) > 0 || s.busy || s.compactReq || s.majorReq || len(s.purges) > 0 {
		if s.flushErr != nil {
			return s.flushErr
		}
		if s.closing {
			return errClosed
		}
		s.cond.Wait()
	}
	return s.flushErr
}

// --- compaction picking ------------------------------------------------------

// mergeJob is one unit of background table maintenance the worker
// executes outside the lock.
type mergeJob struct {
	inputs   []*tableHandle // merge sources, oldest first
	srcLevel int
	dst      int          // level the outputs land in
	gcOK     bool         // inputs cover every table overlapping their range
	move     *tableHandle // non-nil: reassign this table to dst without I/O
}

// levelBudget is the byte budget of level n (n >= 1):
// LevelBaseBytes * 10^(n-1). The deepest allowed level is unbudgeted.
func (s *shard) levelBudget(n int) int64 {
	b := s.eng.opts.LevelBaseBytes
	for i := 1; i < n; i++ {
		if b > math.MaxInt64/10 {
			return math.MaxInt64
		}
		b *= 10
	}
	return b
}

func levelBytes(tables []*tableHandle) int64 {
	var n int64
	for _, t := range tables {
		n += t.size
	}
	return n
}

func combinedRange(tables []*tableHandle) (lo, hi string) {
	lo, hi = tables[0].first, tables[0].last
	for _, t := range tables[1:] {
		if t.first < lo {
			lo = t.first
		}
		if t.last > hi {
			hi = t.last
		}
	}
	return lo, hi
}

// overlappingRun returns the tables of a sorted, disjoint level whose
// ranges intersect [lo, hi] — always a contiguous run.
func overlappingRun(level []*tableHandle, lo, hi string) []*tableHandle {
	i := sort.Search(len(level), func(k int) bool { return level[k].last >= lo })
	j := i
	for j < len(level) && level[j].first <= hi {
		j++
	}
	return level[i:j]
}

// gcSafeLocked reports whether the inputs cover every table that could
// hold cells in [lo, hi]: only then may the merge collect tombstones,
// because a tombstone dropped while an older copy of its key survives
// in a table outside the job would resurrect that copy. Caller holds
// mu.
func (s *shard) gcSafeLocked(inputs []*tableHandle, lo, hi string) bool {
	in := map[*tableHandle]bool{}
	for _, t := range inputs {
		in[t] = true
	}
	for _, lvl := range s.levels {
		for _, t := range lvl {
			if !in[t] && t.overlaps(lo, hi) {
				return false
			}
		}
	}
	return true
}

// needsCompactionLocked is the cheap trigger check behind compactReq:
// L0 over its table-count threshold, or any budgeted level over its
// byte budget. Caller holds mu.
func (s *shard) needsCompactionLocked() bool {
	if len(s.levels) == 0 {
		return false
	}
	if len(s.levels[0]) > s.eng.opts.CompactAfter {
		return true
	}
	for n := 1; n < len(s.levels) && n < maxLevels-1; n++ {
		if levelBytes(s.levels[n]) > s.levelBudget(n) {
			return true
		}
	}
	return false
}

// pickJobLocked chooses the next leveled-maintenance job, or nil when
// the tree is within budget. Priority order:
//
//  1. L0 overflow: merge all of L0 with the overlapping run of L1.
//     L0 tables interleave arbitrarily, so they always merge together.
//  2. Budget overflow at level n: push one table (round-robin cursor,
//     so successive picks rotate through the key space) down into the
//     overlapping run of level n+1. With no overlap the job degrades
//     to a free relink — the table changes level without being
//     rewritten, sidestepping the write amplification entirely.
//
// Caller holds mu.
func (s *shard) pickJobLocked() *mergeJob {
	if len(s.levels) == 0 {
		return nil
	}
	if l0 := s.levels[0]; len(l0) > s.eng.opts.CompactAfter {
		lo, hi := combinedRange(l0)
		var older []*tableHandle
		if len(s.levels) > 1 {
			older = overlappingRun(s.levels[1], lo, hi)
		}
		inputs := append(append([]*tableHandle(nil), older...), l0...)
		jlo, jhi := combinedRange(inputs)
		return &mergeJob{
			inputs: inputs, srcLevel: 0, dst: 1,
			gcOK: s.gcSafeLocked(inputs, jlo, jhi),
		}
	}
	for n := 1; n < len(s.levels) && n < maxLevels-1; n++ {
		if levelBytes(s.levels[n]) <= s.levelBudget(n) {
			continue
		}
		for len(s.compactCur) <= n {
			s.compactCur = append(s.compactCur, 0)
		}
		src := s.levels[n][s.compactCur[n]%len(s.levels[n])]
		s.compactCur[n]++
		var older []*tableHandle
		if n+1 < len(s.levels) {
			older = overlappingRun(s.levels[n+1], src.first, src.last)
		}
		if len(older) == 0 {
			return &mergeJob{move: src, srcLevel: n, dst: n + 1}
		}
		inputs := append(append([]*tableHandle(nil), older...), src)
		lo, hi := combinedRange(inputs)
		return &mergeJob{
			inputs: inputs, srcLevel: n, dst: n + 1,
			gcOK: s.gcSafeLocked(inputs, lo, hi),
		}
	}
	return nil
}

// installLocked swaps a merge's inputs for its outputs at level dst and
// commits the new layout to the manifest. On manifest failure the
// in-memory layout is rolled back and the error returned; the caller
// disposes of the outputs and retries. Level slices are rebuilt fresh —
// published views hold their own flattened copy, never these slices.
// Caller holds mu.
func (s *shard) installLocked(inputs []*tableHandle, outs []*tableHandle, dst int) error {
	in := map[*tableHandle]bool{}
	for _, t := range inputs {
		in[t] = true
	}
	old := s.levels
	levels := make([][]*tableHandle, len(s.levels))
	for n, lvl := range s.levels {
		kept := make([]*tableHandle, 0, len(lvl))
		for _, t := range lvl {
			if !in[t] {
				kept = append(kept, t)
			}
		}
		levels[n] = kept
	}
	for len(levels) <= dst {
		levels = append(levels, nil)
	}
	merged := append(append([]*tableHandle(nil), levels[dst]...), outs...)
	if dst >= 1 {
		sort.Slice(merged, func(a, b int) bool { return merged[a].first < merged[b].first })
	}
	levels[dst] = merged
	for len(levels) > 1 && len(levels[len(levels)-1]) == 0 {
		levels = levels[:len(levels)-1]
	}
	s.levels = levels
	if err := s.writeManifestLocked(); err != nil {
		s.levels = old
		return err
	}
	return nil
}

// --- worker ------------------------------------------------------------------

// mergeStatus is the outcome of executeMergeLocked, steering the worker
// loop.
type mergeStatus int

const (
	mergeInstalled mergeStatus = iota // outputs live, inputs retired
	mergeRedo                         // fence moved: result discarded, redo the job
	mergeFailed                       // flushErr set; caller parks for a retry
	mergeExit                         // shard abandoned or closing: worker returns
)

// worker is the shard's background goroutine: it turns frozen memtables
// into SSTables, retires their WAL segments, and maintains the level
// tree — all without blocking the write path. On failure the frozen
// memtable and its WAL segments stay intact (readers keep merging them,
// recovery can replay them) and the worker waits for the next signal to
// retry, surfacing the error through Flush/Close.
func (s *shard) worker() {
	defer s.eng.wg.Done()
	s.mu.Lock()
	for {
		for !s.closing && !s.abandoned && len(s.frozen) == 0 && !s.compactReq && !s.majorReq && len(s.purges) == 0 {
			s.cond.Wait()
		}
		if s.abandoned {
			s.mu.Unlock()
			return
		}
		switch {
		case len(s.frozen) > 0:
			if !s.flushHead() {
				return
			}

		case len(s.purges) > 0:
			// Only the worker pops the queue, so the head it processes
			// outside the lock is still the head when it returns —
			// concurrent DeleteRanges append behind it and are served on
			// later loop turns, never dropped.
			req := s.purges[0]
			if s.totalTablesLocked() == 0 {
				s.purges = s.purges[1:]
				s.cond.Broadcast()
				continue
			}
			drop := func(pk string) bool {
				tok := PartitionToken(pk)
				return req.lo <= tok && tok <= req.hi
			}
			inputs := s.allTablesLocked()
			job := &mergeJob{inputs: inputs, dst: s.deepestDstLocked(), gcOK: true}
			var dropped int64
			switch s.executeMergeLocked(job, drop, true, &dropped, nil) {
			case mergeExit:
				return
			case mergeRedo, mergeFailed:
				continue
			}
			// The purge removed partitions: invalidate the engine's merged
			// partition index. Bumped after the swap is published so an
			// index builder that loaded the old generation can never
			// enumerate the new view under it unnoticed.
			s.partGen.Add(1)
			req.removed = dropped
			s.purges = s.purges[1:]
			s.eng.Metrics.RangePurges.Add(1)
			s.cond.Broadcast()

		case s.majorReq:
			s.majorReq = false
			inputs := s.allTablesLocked()
			if len(inputs) <= 1 {
				s.cond.Broadcast()
				continue
			}
			job := &mergeJob{inputs: inputs, dst: s.deepestDstLocked(), gcOK: true}
			var gced int64
			switch s.executeMergeLocked(job, nil, false, nil, &gced) {
			case mergeExit:
				return
			case mergeRedo:
				s.majorReq = true
				continue
			case mergeFailed:
				s.majorReq = true
				continue
			}
			// A compaction can collapse tombstone-only partitions out of
			// existence, shrinking the partition set.
			s.partGen.Add(1)
			s.eng.Metrics.Compactions.Add(1)
			s.eng.Metrics.TombstonesGCed.Add(gced)
			s.cond.Broadcast()

		case s.compactReq:
			s.compactReq = false
			job := s.pickJobLocked()
			if job == nil {
				s.cond.Broadcast()
				continue
			}
			if job.move != nil {
				// Free relink: the table overlaps nothing below it, so it
				// changes level without being rewritten.
				if err := s.installLocked([]*tableHandle{job.move}, []*tableHandle{job.move}, job.dst); err != nil {
					s.flushErr = err
					s.compactReq = true
					s.cond.Broadcast()
					if s.closing {
						s.mu.Unlock()
						return
					}
					s.cond.Wait()
					continue
				}
				s.publishLocked()
				if s.needsCompactionLocked() {
					s.compactReq = true
				}
				s.cond.Broadcast()
				continue
			}
			var gced int64
			switch s.executeMergeLocked(job, nil, false, nil, &gced) {
			case mergeExit:
				return
			case mergeRedo, mergeFailed:
				s.compactReq = true
				continue
			}
			s.partGen.Add(1)
			s.eng.Metrics.Compactions.Add(1)
			s.eng.Metrics.TombstonesGCed.Add(gced)
			if s.needsCompactionLocked() {
				s.compactReq = true
			}
			s.cond.Broadcast()

		case s.closing:
			s.mu.Unlock()
			return
		}
	}
}

// deepestDstLocked is the landing level for whole-shard merges (major
// compaction, purge): the deepest level currently holding data, but at
// least 1 so L0 stays the exclusive flush zone.
func (s *shard) deepestDstLocked() int {
	dst := len(s.levels) - 1
	if dst < 1 {
		dst = 1
	}
	if dst >= maxLevels {
		dst = maxLevels - 1
	}
	return dst
}

// flushHead writes the head of the frozen queue to an L0 table. Returns
// false when the worker must exit. Called (and returns) holding mu.
func (s *shard) flushHead() bool {
	fm := s.frozen[0]
	seq := s.sstSeq
	s.busy = true
	s.mu.Unlock()
	r, err := s.writeTable(fm.mem, seq)
	s.mu.Lock()
	s.busy = false
	if s.abandoned {
		if err == nil {
			r.Close()
			os.Remove(r.Path())
		}
		s.cond.Broadcast()
		s.mu.Unlock()
		return false
	}
	var h *tableHandle
	if err == nil {
		h, err = newTableHandle(r)
		if err != nil {
			r.Close()
			os.Remove(r.Path())
		}
	}
	if err == nil {
		if len(s.levels) == 0 {
			s.levels = append(s.levels, nil)
		}
		old := s.levels[0]
		s.levels[0] = append(append([]*tableHandle(nil), old...), h)
		if merr := s.writeManifestLocked(); merr != nil {
			s.levels[0] = old
			h.drop.Store(true)
			h.release()
			err = merr
		}
	}
	if err != nil {
		s.flushErr = err
		s.cond.Broadcast()
		if s.closing {
			s.mu.Unlock()
			return false
		}
		s.cond.Wait() // retry on the next signal, not in a hot loop
		return true
	}
	s.sstSeq = seq + 1
	s.frozen = s.frozen[1:]
	s.publishLocked()
	s.flushErr = nil
	s.eng.Metrics.Flushes.Add(1)
	s.eng.Metrics.FlushedBytes.Add(fm.mem.Bytes())
	if s.needsCompactionLocked() {
		s.compactReq = true
	}
	// Stay busy through the WAL cleanup so Flush callers observe a fully
	// settled shard; readers already see the new table.
	s.busy = true
	s.cond.Broadcast()
	s.mu.Unlock()
	// The cells are live in the SSTable; their WAL segments are done.
	for _, p := range fm.walPaths {
		os.Remove(p)
	}
	s.mu.Lock()
	s.busy = false
	s.cond.Broadcast()
	return true
}

// executeMergeLocked runs one merge job outside the lock and installs
// the result: merge the inputs (dropping shadowed versions, optionally
// dropping whole partitions and collecting tombstones), swap the level
// layout, commit the manifest, and unlink the inputs. fenceAlways
// forces the migration-fence recheck even when no tombstone was
// collected (the purge path: tombstones inside dropped partitions are
// not counted in gced). Called and returns holding mu.
func (s *shard) executeMergeLocked(job *mergeJob, drop func(pk string) bool, fenceAlways bool, droppedOut, gcedOut *int64) mergeStatus {
	seq := s.sstSeq
	gcBelow := uint64(0)
	if job.gcOK {
		gcBelow = s.gcWatermarkLocked()
	}
	fences, fenceGen := s.eng.fenceSnapshot()
	s.busy = true
	s.mu.Unlock()

	outs, dropped, gced, bytesOut, err := s.mergeTables(job.inputs, seq, drop, gcBelow, fencedFn(fences))
	discardOuts := func() {
		for _, r := range outs {
			r.Close()
			os.Remove(r.Path())
		}
	}

	s.mu.Lock()
	s.busy = false
	if s.abandoned {
		if err == nil {
			discardOuts()
		}
		s.cond.Broadcast()
		s.mu.Unlock()
		return mergeExit
	}
	if err == nil && (fenceAlways || gced > 0) && s.eng.fenceGen.Load() != fenceGen {
		// A migration fence opened while this merge ran: it may have
		// collected tombstones the fence now protects. Discard the result
		// and redo with the fresh fence set. A merge with zero collections
		// is byte-equivalent to a fence-honoring one, so outside the purge
		// path it installs and the (whole-job) redo is saved.
		discardOuts()
		return mergeRedo
	}
	var handles []*tableHandle
	if err == nil {
		for _, r := range outs {
			h, herr := newTableHandle(r)
			if herr != nil {
				err = herr
				break
			}
			handles = append(handles, h)
		}
	}
	if err == nil {
		err = s.installLocked(job.inputs, handles, job.dst)
	}
	if err != nil {
		discardOuts()
		s.flushErr = err
		s.cond.Broadcast()
		if s.closing {
			s.mu.Unlock()
			return mergeExit
		}
		s.cond.Wait()
		return mergeFailed
	}
	s.sstSeq = seq + len(outs)
	s.publishLocked()
	s.flushErr = nil
	var bytesIn int64
	for _, t := range job.inputs {
		bytesIn += t.size
	}
	s.eng.Metrics.CompactionBytesIn.Add(bytesIn)
	s.eng.Metrics.CompactionBytesOut.Add(bytesOut)
	if droppedOut != nil {
		*droppedOut = dropped
	}
	if gcedOut != nil {
		*gcedOut = gced
	}
	// Stay busy while the superseded tables are retired so Compact
	// callers observe the final on-disk state (barring in-flight readers,
	// which unlink the files as they finish).
	s.busy = true
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, t := range job.inputs {
		t.drop.Store(true)
		t.release()
	}
	s.mu.Lock()
	s.busy = false
	s.cond.Broadcast()
	return mergeInstalled
}

// writeTable streams a frozen memtable into sst-sNN-<seq>.db. The file
// is built under a .tmp name and renamed into place only when complete,
// so a crash or error never leaves a half-written table where Open
// would load it. Called without the lock.
func (s *shard) writeTable(mem *memtable.Memtable, seq int) (*sstable.Reader, error) {
	if gate := s.eng.testFlushGate; gate != nil {
		<-gate
	}
	if hook := s.eng.testFlushErr; hook != nil {
		if err := hook(s.id); err != nil {
			return nil, err
		}
	}
	if s.isAbandoned() {
		return nil, errClosed
	}
	path := s.sstPath(seq)
	tmp := path + ".tmp"
	w, err := sstable.NewWriter(tmp, sstable.WriterOptions{
		ColumnIndexSize:    s.eng.opts.ColumnIndexSize,
		ExpectedPartitions: len(mem.Partitions()),
		Compression:        s.eng.opts.Compression,
	})
	if err != nil {
		return nil, err
	}
	// Stream the memtable in order, grouping cells per partition.
	var curPK string
	var cur []row.Cell
	first := true
	flushPart := func() error {
		if first {
			return nil
		}
		return w.AddPartition(curPK, cur)
	}
	err = mem.Each(func(ent memtable.Entry) error {
		if first || ent.PK != curPK {
			if err := flushPart(); err != nil {
				return err
			}
			curPK, cur, first = ent.PK, nil, false
		}
		// Tombstones flush like any cell: they must keep masking older
		// copies in other tables until compaction collects them.
		cur = append(cur, row.Cell{CK: ent.CK, Value: ent.Value, Ver: ent.Ver, Tombstone: ent.Tombstone})
		return nil
	})
	if err == nil {
		err = flushPart()
	}
	if err != nil {
		w.Close()
		os.Remove(tmp)
		return nil, err
	}
	if err := w.Close(); err != nil {
		os.Remove(tmp)
		return nil, err
	}
	logical, stored := w.BlockBytes()
	s.eng.Metrics.BlockBytesLogical.Add(logical)
	s.eng.Metrics.BlockBytesStored.Add(stored)
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return nil, err
	}
	r, err := s.eng.openTable(path)
	if err != nil {
		// Leave no half-live state: without the reader the table must
		// not exist, so the WAL segments keep covering the data.
		os.Remove(path)
		return nil, err
	}
	return r, nil
}

// gcWatermarkLocked returns the version sequence below which this
// shard's tombstones may be garbage-collected by a compaction over all
// tables holding their keys: the lowest version any unflushed memtable
// (active or frozen) might still hold. A tombstone older than that
// bound cannot be masking anything outside the compaction inputs — the
// inputs cover every overlapping table (gcSafeLocked), and every
// memtable cell is provably newer — so dropping it (and everything it
// shadowed, which the merge already did) is safe. A tombstone at or
// above the bound is kept: an older shadowed copy may sit in a memtable
// (a rebalance stream page, a read-repair) and will only be masked if
// the tombstone is still there when it flushes. Caller holds mu.
func (s *shard) gcWatermarkLocked() uint64 {
	wm := uint64(math.MaxUint64)
	if v, ok := s.mem.MinVersion(); ok && v.Seq < wm {
		wm = v.Seq
	}
	for _, fm := range s.frozen {
		if v, ok := fm.mem.MinVersion(); ok && v.Seq < wm {
			wm = v.Seq
		}
	}
	return wm
}

// mergeSource is one input table's cursor through mergeTables.
type mergeSource struct {
	it    *sstable.PartitionIter
	pk    string
	cells []row.Cell
	done  bool
}

func (m *mergeSource) advance() error {
	pk, cells, ok := m.it.Next()
	if !ok {
		m.done = true
		return m.it.Err()
	}
	m.pk, m.cells = pk, cells
	return nil
}

// mergeTables streams the input tables (oldest first) through a k-way
// partition merge into one or more output tables, dropping shadowed
// cell versions, collecting tombstones whose version sequence is below
// gcBelow — except in partitions the fenced predicate covers, whose
// tombstones are kept because a migration or repair may still stream
// older copies in behind them — and, when drop is non-nil, whole
// partitions (the DeleteRange purge), reporting how many live cells
// that removed. Outputs rotate at TargetTableBytes on partition
// boundaries so deep levels stay range-partitioned into bounded-size
// tables. Unlike the flat engine's per-partition ReadSlice loop, each
// input is read exactly once, sequentially, through its partition
// iterator. Same .tmp-then-rename discipline as writeTable. Called
// without the lock; the inputs stay readable throughout.
func (s *shard) mergeTables(inputs []*tableHandle, startSeq int, drop func(pk string) bool, gcBelow uint64, fenced func(pk string) bool) (outs []*sstable.Reader, dropped, gced, bytesOut int64, err error) {
	fail := func(e error) ([]*sstable.Reader, int64, int64, int64, error) {
		for _, r := range outs {
			r.Close()
			os.Remove(r.Path())
		}
		return nil, 0, 0, 0, e
	}

	srcs := make([]*mergeSource, len(inputs))
	expectParts := 0
	for i, t := range inputs {
		srcs[i] = &mergeSource{it: t.Iter()}
		if err := srcs[i].advance(); err != nil {
			return fail(err)
		}
		expectParts += t.NumPartitions()
	}

	var w *sstable.Writer
	var wTmp string
	var wBytes int64
	finishOut := func() error {
		if w == nil {
			return nil
		}
		path := s.sstPath(startSeq + len(outs))
		if err := w.Close(); err != nil {
			os.Remove(wTmp)
			return err
		}
		logical, stored := w.BlockBytes()
		s.eng.Metrics.BlockBytesLogical.Add(logical)
		s.eng.Metrics.BlockBytesStored.Add(stored)
		if err := os.Rename(wTmp, path); err != nil {
			os.Remove(wTmp)
			return err
		}
		r, err := s.eng.openTable(path)
		if err != nil {
			os.Remove(path)
			return err
		}
		bytesOut += r.Size()
		outs = append(outs, r)
		w, wBytes = nil, 0
		return nil
	}

	for {
		// Next partition: the smallest pk across the unfinished sources.
		minPK, any := "", false
		for _, m := range srcs {
			if !m.done && (!any || m.pk < minPK) {
				minPK, any = m.pk, true
			}
		}
		if !any {
			break
		}
		// Merge every source holding it, oldest source first so exact
		// version ties resolve to the newer source, as reads do.
		var sources [][]row.Cell
		for _, m := range srcs {
			if !m.done && m.pk == minPK {
				sources = append(sources, m.cells)
			}
		}
		cells := row.Merge(sources...)
		for _, m := range srcs {
			if !m.done && m.pk == minPK {
				if err := m.advance(); err != nil {
					return fail(err)
				}
			}
		}
		if drop != nil && drop(minPK) {
			// Count the live (post-merge) cells the purge removes, so
			// handoff accounting matches what a reader would have seen.
			dropped += int64(len(row.DropTombstones(cells)))
			continue
		}
		// Collect tombstones under the GC watermark: the merge already
		// dropped everything they shadowed within the inputs, and the
		// watermark guarantees nothing older is still waiting to flush
		// locally. A partition under a migration fence keeps them all —
		// an in-flight stream may still deliver a sub-watermark copy
		// from another node that only the tombstone can mask.
		if gcBelow > 0 && (fenced == nil || !fenced(minPK)) {
			kept := cells[:0]
			for _, c := range cells {
				if c.Tombstone && c.Ver.Seq < gcBelow {
					gced++
					continue
				}
				kept = append(kept, c)
			}
			cells = kept
		}
		if len(cells) == 0 {
			continue // the partition was only tombstones; it is gone
		}
		if w == nil {
			wTmp = s.sstPath(startSeq+len(outs)) + ".tmp"
			w, err = sstable.NewWriter(wTmp, sstable.WriterOptions{
				ColumnIndexSize:    s.eng.opts.ColumnIndexSize,
				ExpectedPartitions: expectParts,
				Compression:        s.eng.opts.Compression,
			})
			if err != nil {
				return fail(err)
			}
		}
		if err := w.AddPartition(minPK, cells); err != nil {
			w.Close()
			os.Remove(wTmp)
			return fail(err)
		}
		for _, c := range cells {
			wBytes += int64(len(c.CK) + len(c.Value) + 16)
		}
		if wBytes >= s.eng.opts.TargetTableBytes {
			if err := finishOut(); err != nil {
				return fail(err)
			}
		}
	}
	if err := finishOut(); err != nil {
		return fail(err)
	}
	return outs, dropped, gced, bytesOut, nil
}

func (s *shard) isAbandoned() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.abandoned
}
