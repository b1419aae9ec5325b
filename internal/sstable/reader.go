package sstable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"scalekv/internal/bloom"
	"scalekv/internal/enc"
	"scalekv/internal/row"
)

// ReadStats counts the physical work a Reader has done; the Figure 6
// harness, the column-index tests and the O(1)-point-read pin use it to
// verify that reads really touch only what they must.
type ReadStats struct {
	PartitionsRead atomic.Int64
	BytesRead      atomic.Int64
	ReadAtCalls    atomic.Int64 // physical ReadAt issues since Open
	IndexedReads   atomic.Int64 // reads that seeked via the block index
	SeeksSaved     atomic.Int64 // bytes skipped thanks to that index
}

// Reader serves point and range reads from one SSTable file. It is safe
// for concurrent use: all reads go through ReadAt.
type Reader struct {
	f      *os.File
	size   int64
	filter *bloom.Filter
	maxSeq uint64
	Stats  ReadStats

	// cache, when attached, serves decompressed blocks and table meta
	// under the engine-wide budget; cacheID is this table's identity in
	// it.
	cache   *BlockCache
	cacheID uint64

	// Footer fields; the block index and partition directory load lazily
	// on first use (loadMeta), as one combined ReadAt.
	blockIdxOff uint64
	partDirOff  uint64
	bloomOff    uint64
	partCount   uint64
	metaCRC     uint32
	metaMu      sync.Mutex
	meta        atomic.Pointer[tableMeta]
}

// tableMeta is a table's lazily-loaded index state.
type tableMeta struct {
	blocks []blockIndexEntry
	parts  []partDirEntry
	byPK   map[string]int
}

// Open prepares a reader for an SSTable file, validating the footer and
// the bloom filter; the block index and partition directory stay on disk
// until the first read that needs them. A file of a pre-v3 revision
// fails with ErrCorrupt.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sstable: open: %w", err)
	}
	r, err := open(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

func open(f *os.File) (*Reader, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < int64(len(magic)+len(magicV3)) {
		return nil, ErrCorrupt
	}
	var term [4]byte
	if _, err := f.ReadAt(term[:], size-4); err != nil {
		return nil, err
	}
	switch string(term[:]) {
	case string(magicV3):
	case "SKVT", "SKV2": // the footer terminators of the retired flat revisions
		return nil, fmt.Errorf("%w: pre-v3 table (footer %q); re-ingest", ErrCorrupt, term[:])
	default:
		return nil, ErrCorrupt
	}
	if size < int64(len(magic)+footerSizeV3) {
		return nil, ErrCorrupt
	}
	footer := make([]byte, footerSizeV3)
	if _, err := f.ReadAt(footer, size-footerSizeV3); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(footer[:56]) != binary.LittleEndian.Uint32(footer[56:]) {
		return nil, fmt.Errorf("%w: footer crc mismatch", ErrCorrupt)
	}
	r := &Reader{
		f:           f,
		size:        size,
		blockIdxOff: binary.LittleEndian.Uint64(footer[0:]),
		partDirOff:  binary.LittleEndian.Uint64(footer[8:]),
		bloomOff:    binary.LittleEndian.Uint64(footer[16:]),
		partCount:   binary.LittleEndian.Uint64(footer[32:]),
		maxSeq:      binary.LittleEndian.Uint64(footer[40:]),
		metaCRC:     binary.LittleEndian.Uint32(footer[48:]),
	}
	dataStart := uint64(len(magic))
	if r.blockIdxOff < dataStart || r.blockIdxOff > r.partDirOff ||
		r.partDirOff > r.bloomOff || r.bloomOff > uint64(size)-footerSizeV3 {
		return nil, ErrCorrupt
	}
	bloomBuf := make([]byte, uint64(size)-footerSizeV3-r.bloomOff)
	if _, err := f.ReadAt(bloomBuf, int64(r.bloomOff)); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(bloomBuf) != binary.LittleEndian.Uint32(footer[52:]) {
		return nil, fmt.Errorf("%w: bloom crc mismatch", ErrCorrupt)
	}
	if r.filter, err = bloom.Unmarshal(bloomBuf); err != nil {
		return nil, err
	}
	return r, nil
}

// readAt is the single physical-read funnel: every post-Open disk
// access goes through it so ReadStats counts I/O operations and bytes
// exactly.
func (r *Reader) readAt(p []byte, off int64) error {
	r.Stats.ReadAtCalls.Add(1)
	r.Stats.BytesRead.Add(int64(len(p)))
	_, err := r.f.ReadAt(p, off)
	return err
}

// AttachCache points the reader at a shared block cache, issuing it a
// fresh table identity. Call once, right after Open, before any reads;
// data blocks and the lazily-loaded meta then live in (and are bounded
// by) the cache instead of per-reader memory. The identity is never
// reused, so a retired table's entries become unreachable and age out —
// invalidation by identity, no purge call.
func (r *Reader) AttachCache(c *BlockCache) {
	if c == nil {
		return
	}
	r.cache = c
	r.cacheID = c.NewTableID()
}

// Close releases the underlying file.
func (r *Reader) Close() error { return r.f.Close() }

// MaxSeq returns the highest cell version sequence stored in the table.
// The engine restores its write counter from it and uses it to skip
// tables that cannot beat an already-found version.
func (r *Reader) MaxSeq() uint64 { return r.maxSeq }

// Path returns the file backing this table; the storage engine's
// compactor uses it to retire exactly the inputs it merged.
func (r *Reader) Path() string { return r.f.Name() }

// Size returns the table's file size in bytes; the leveled compactor
// uses it to budget levels and split outputs.
func (r *Reader) Size() int64 { return r.size }

// NumPartitions returns how many partitions the table holds.
func (r *Reader) NumPartitions() int { return int(r.partCount) }

// Partitions returns all partition keys in ascending order. It forces
// the lazy index load; an I/O failure there returns nil (the same
// failure then surfaces, with its error, on any read).
func (r *Reader) Partitions() []string {
	m, err := r.loadMeta()
	if err != nil {
		return nil
	}
	out := make([]string, len(m.parts))
	for i, e := range m.parts {
		out[i] = e.pk
	}
	return out
}

// Bounds returns the table's first and last partition keys, forcing the
// lazy index load. An empty table returns ("", "").
func (r *Reader) Bounds() (first, last string, err error) {
	m, err := r.loadMeta()
	if err != nil {
		return "", "", err
	}
	if len(m.parts) == 0 {
		return "", "", nil
	}
	return m.parts[0].pk, m.parts[len(m.parts)-1].pk, nil
}

// MayContain consults the bloom filter; false means the partition is
// definitely absent and the read path can skip this table.
func (r *Reader) MayContain(pk string) bool { return r.filter.MayContainString(pk) }

// CellCount returns the number of cells in a partition without reading
// its data.
func (r *Reader) CellCount(pk string) (int, bool) {
	m, err := r.loadMeta()
	if err != nil {
		return 0, false
	}
	i, ok := m.byPK[pk]
	if !ok {
		return 0, false
	}
	return int(m.parts[i].cells), true
}

// loadMeta reads and caches the block index and partition directory —
// one combined ReadAt covering both sections, so the first read of a
// cold table costs exactly one extra I/O. With a block cache attached
// the decoded meta lives under the cache's budget (keyed by table
// identity at a sentinel offset) instead of pinned per-reader memory,
// so open-table index overhead competes with data blocks for RAM and
// can be evicted; without one it is pinned in r.meta as before.
func (r *Reader) loadMeta() (*tableMeta, error) {
	if r.cache != nil {
		if m, ok := r.cache.getMeta(r.cacheID); ok {
			return m, nil
		}
	} else if m := r.meta.Load(); m != nil {
		return m, nil
	}
	r.metaMu.Lock()
	defer r.metaMu.Unlock()
	if r.cache != nil {
		if m, ok := r.cache.getMeta(r.cacheID); ok {
			return m, nil
		}
	} else if m := r.meta.Load(); m != nil {
		return m, nil
	}
	buf := make([]byte, r.bloomOff-r.blockIdxOff)
	if err := r.readAt(buf, int64(r.blockIdxOff)); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(buf) != r.metaCRC {
		return nil, fmt.Errorf("%w: meta crc mismatch", ErrCorrupt)
	}
	m := &tableMeta{}
	p := buf
	nBlocks, u := enc.Uvarint(p)
	if u <= 0 {
		return nil, ErrCorrupt
	}
	p = p[u:]
	m.blocks = make([]blockIndexEntry, 0, nBlocks)
	prevEnd := uint64(len(magic))
	for i := uint64(0); i < nBlocks; i++ {
		fk, u1 := enc.Bytes(p)
		if u1 == 0 {
			return nil, ErrCorrupt
		}
		p = p[u1:]
		off, u2 := enc.Uvarint(p)
		if u2 <= 0 {
			return nil, ErrCorrupt
		}
		p = p[u2:]
		ln, u3 := enc.Uvarint(p)
		if u3 <= 0 {
			return nil, ErrCorrupt
		}
		p = p[u3:]
		// Blocks are contiguous and ascending; anything else is damage.
		if off != prevEnd || ln == 0 || off+ln > r.blockIdxOff {
			return nil, ErrCorrupt
		}
		prevEnd = off + ln
		m.blocks = append(m.blocks, blockIndexEntry{firstKey: fk, offset: off, length: ln})
	}
	nParts, u := enc.Uvarint(p)
	if u <= 0 || nParts != r.partCount {
		return nil, ErrCorrupt
	}
	p = p[u:]
	m.parts = make([]partDirEntry, 0, nParts)
	m.byPK = make(map[string]int, nParts)
	for i := uint64(0); i < nParts; i++ {
		pkb, u1 := enc.Bytes(p)
		if u1 == 0 {
			return nil, ErrCorrupt
		}
		p = p[u1:]
		cells, u2 := enc.Uvarint(p)
		if u2 <= 0 {
			return nil, ErrCorrupt
		}
		p = p[u2:]
		pk := string(pkb)
		if i > 0 && pk <= m.parts[i-1].pk {
			return nil, ErrCorrupt
		}
		m.byPK[pk] = int(i)
		m.parts = append(m.parts, partDirEntry{pk: pk, cells: cells})
	}
	if r.cache != nil {
		r.cache.putMeta(r.cacheID, m)
	} else {
		r.meta.Store(m)
	}
	return m, nil
}

// blockFor returns the index of the last block whose first key is <=
// key (the only block that can contain key), clamped to 0.
func blockFor(blocks []blockIndexEntry, key []byte) int {
	i := sort.Search(len(blocks), func(k int) bool {
		return bytes.Compare(blocks[k].firstKey, key) > 0
	})
	if i > 0 {
		i--
	}
	return i
}

// readBlock fetches one stored data block; decodeStoredBlock verifies
// its CRC.
func (r *Reader) readBlock(b blockIndexEntry) ([]byte, error) {
	buf := make([]byte, b.length)
	if err := r.readAt(buf, int64(b.offset)); err != nil {
		return nil, err
	}
	return buf, nil
}

// blockPayload returns one block's decoded entry payload, serving it
// from the shared cache when possible. A miss reads and decodes the
// stored block; fill says whether the result is then cached — point and
// slice reads fill, the compactor's scan-once iterator only probes, so
// a compaction pass cannot flush the working set out of the cache. The
// returned payload is shared and read-only.
func (r *Reader) blockPayload(b blockIndexEntry, fill bool) ([]byte, error) {
	if r.cache != nil {
		if p, ok := r.cache.getBlock(r.cacheID, b.offset); ok {
			return p, nil
		}
	}
	stored, err := r.readBlock(b)
	if err != nil {
		return nil, err
	}
	payload, err := decodeStoredBlock(stored)
	if err != nil {
		return nil, err
	}
	if r.cache != nil && fill {
		r.cache.putBlock(r.cacheID, b.offset, payload)
	}
	return payload, nil
}

// ReadPartition returns every cell of a partition.
func (r *Reader) ReadPartition(pk string) ([]row.Cell, error) {
	return r.ReadSlice(pk, nil, nil)
}

// ReadSlice returns the cells of a partition with from <= CK < to; nil
// bounds mean unbounded. It binary-searches the block index to the first
// block that can hold the slice start, then decodes blocks forward until
// the end bound, so a point read performs one block ReadAt (plus the
// one-time lazy meta load). For a partition spanning several blocks that
// skips its leading blocks instead of scanning from the partition start:
// the read-path advantage whose cost asymmetry Formula 6 models.
func (r *Reader) ReadSlice(pk string, from, to []byte) ([]row.Cell, error) {
	m, err := r.loadMeta()
	if err != nil {
		return nil, err
	}
	pi, ok := m.byPK[pk]
	if !ok {
		return nil, ErrNotFound
	}
	r.Stats.PartitionsRead.Add(1)
	want := m.parts[pi].cells
	if want == 0 {
		return nil, nil
	}
	prefix := enc.PartitionPrefix(pk)
	startKey := prefix
	if from != nil {
		startKey = enc.EncodeInternalKey(pk, from)
	}
	endKey := enc.PartitionEnd(pk)
	if to != nil {
		endKey = enc.EncodeInternalKey(pk, to)
	}
	sbi := blockFor(m.blocks, startKey)
	if pbi := blockFor(m.blocks, prefix); sbi > pbi {
		// The block index let the slice skip the partition's leading
		// blocks entirely — the column-index seek. Only blocks that
		// certainly hold this partition's cells (their first key carries
		// its prefix) count as savings: a partition starting exactly at a
		// block boundary must not claim its predecessor's block.
		var skipped int64
		for i := pbi; i < sbi; i++ {
			if bytes.HasPrefix(m.blocks[i].firstKey, prefix) {
				skipped += int64(m.blocks[i].length)
			}
		}
		if skipped > 0 {
			r.Stats.SeeksSaved.Add(skipped)
			r.Stats.IndexedReads.Add(1)
		}
	}
	var cells []row.Cell
	corrupt := false
	for bi := sbi; bi < len(m.blocks); bi++ {
		if bytes.Compare(m.blocks[bi].firstKey, endKey) >= 0 {
			break
		}
		payload, err := r.blockPayload(m.blocks[bi], true)
		if err != nil {
			return nil, err
		}
		done := false
		err = decodeEntries(payload, func(ik, value []byte, ver row.Version, tomb bool) bool {
			if bytes.Compare(ik, startKey) < 0 {
				return true
			}
			if bytes.Compare(ik, endKey) >= 0 {
				done = true
				return false
			}
			// Every key in [prefix, partition end) starts with the
			// partition prefix by construction; a violation means the
			// block's contents disagree with the block index.
			if !bytes.HasPrefix(ik, prefix) {
				corrupt, done = true, true
				return false
			}
			cells = append(cells, row.Cell{
				CK:        append([]byte(nil), ik[len(prefix):]...),
				Value:     append([]byte(nil), value...),
				Ver:       ver,
				Tombstone: tomb,
			})
			return true
		})
		if err != nil {
			return nil, err
		}
		if corrupt {
			return nil, ErrCorrupt
		}
		if done {
			break
		}
	}
	return cells, nil
}

// HasColumnIndex reports whether a slice of the partition can seek past
// its start: whether the partition spans at least two data blocks.
// Measured as the number of blocks whose first key carries the
// partition's prefix, so a small partition occupying exactly one block
// (boundary-aligned or not) reports false.
func (r *Reader) HasColumnIndex(pk string) (bool, error) {
	m, err := r.loadMeta()
	if err != nil {
		return false, err
	}
	if _, ok := m.byPK[pk]; !ok {
		return false, ErrNotFound
	}
	prefix := enc.PartitionPrefix(pk)
	end := enc.PartitionEnd(pk)
	j0 := sort.Search(len(m.blocks), func(k int) bool {
		return bytes.Compare(m.blocks[k].firstKey, prefix) >= 0
	})
	j1 := sort.Search(len(m.blocks), func(k int) bool {
		return bytes.Compare(m.blocks[k].firstKey, end) >= 0
	})
	return j1-j0 >= 2, nil
}

// PartitionIter streams a table's partitions in ascending key order —
// the compactor's merge source. It decodes each data block exactly once,
// sequentially. Not safe for concurrent use.
type PartitionIter struct {
	r   *Reader
	err error
	idx int // next partition

	// Streaming state: cells decoded ahead of the cursor.
	meta  *tableMeta
	bi    int // next block to decode
	queue []queuedCell
	qpos  int
}

type queuedCell struct {
	ik   []byte
	cell row.Cell // CK left nil until the partition prefix is stripped
}

// Iter returns a sequential partition iterator over the whole table.
func (r *Reader) Iter() *PartitionIter {
	return &PartitionIter{r: r}
}

// Err returns the first error the iterator hit; Next returns false on
// error, so check Err after the loop.
func (it *PartitionIter) Err() error { return it.err }

// Next yields the next partition and its cells. It returns ok=false at
// the end of the table or on error (see Err).
func (it *PartitionIter) Next() (string, []row.Cell, bool) {
	if it.err != nil {
		return "", nil, false
	}
	if it.meta == nil {
		m, err := it.r.loadMeta()
		if err != nil {
			it.err = err
			return "", nil, false
		}
		it.meta = m
	}
	if it.idx >= len(it.meta.parts) {
		return "", nil, false
	}
	p := it.meta.parts[it.idx]
	it.idx++
	prefix := enc.PartitionPrefix(p.pk)
	cells := make([]row.Cell, 0, p.cells)
	for uint64(len(cells)) < p.cells {
		if it.qpos >= len(it.queue) {
			if !it.fillQueue() {
				if it.err == nil {
					it.err = ErrCorrupt // directory promised more cells than the blocks hold
				}
				return "", nil, false
			}
		}
		qc := &it.queue[it.qpos]
		if !bytes.HasPrefix(qc.ik, prefix) {
			it.err = ErrCorrupt
			return "", nil, false
		}
		qc.cell.CK = qc.ik[len(prefix):]
		cells = append(cells, qc.cell)
		it.qpos++
	}
	return p.pk, cells, true
}

// fillQueue decodes the next data block into the cell queue.
func (it *PartitionIter) fillQueue() bool {
	if it.bi >= len(it.meta.blocks) {
		return false
	}
	payload, err := it.r.blockPayload(it.meta.blocks[it.bi], false)
	if err != nil {
		it.err = err
		return false
	}
	it.bi++
	it.queue = it.queue[:0]
	it.qpos = 0
	err = decodeEntries(payload, func(ik, value []byte, ver row.Version, tomb bool) bool {
		it.queue = append(it.queue, queuedCell{
			ik: append([]byte(nil), ik...),
			cell: row.Cell{
				Value:     append([]byte(nil), value...),
				Ver:       ver,
				Tombstone: tomb,
			},
		})
		return true
	})
	if err != nil {
		it.err = err
		return false
	}
	return len(it.queue) > 0
}
