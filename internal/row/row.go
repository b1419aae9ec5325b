// Package row defines the cell and partition types shared by the
// memtable, SSTable, storage engine and cluster read/write paths.
//
// The data model is Cassandra's wide-column layout as the paper describes
// it: "a partitioned distributed HashMap where each entry contains another
// SortedMap". A Partition is one entry of the outer hash map (placed on a
// node by its key's murmur token); its Cells are the inner sorted map,
// ordered by clustering key.
//
// Every cell carries a Version — a (Seq, Node) hybrid counter stamped by
// the storage engine that accepted the write — and a Tombstone flag.
// Wherever two copies of a cell meet (a memtable overwrite, a read
// merging memtables with SSTables, a compaction, a replica receiving
// both a streamed copy and a forwarded write during a rebalance), the
// higher version wins deterministically: last-write-wins is decided by
// the version, never by arrival order.
package row

import "bytes"

// Version orders writes to the same (partition key, clustering key)
// address. Seq is a per-engine monotonic counter advanced by every
// accepted write and pulled forward by any higher incoming version
// (hybrid-logical-clock style), Node breaks ties between engines. The
// zero Version is the oldest possible; it marks a write not yet
// stamped by an engine, and no stored cell carries it.
type Version struct {
	Seq  uint64
	Node uint16
}

// Compare returns -1, 0 or +1 as v orders before, equal to or after o.
func (v Version) Compare(o Version) int {
	if v.Seq != o.Seq {
		if v.Seq < o.Seq {
			return -1
		}
		return 1
	}
	if v.Node != o.Node {
		if v.Node < o.Node {
			return -1
		}
		return 1
	}
	return 0
}

// Less reports whether v orders strictly before o.
func (v Version) Less(o Version) bool { return v.Compare(o) < 0 }

// IsZero reports whether v is the zero (unstamped, oldest) version.
func (v Version) IsZero() bool { return v.Seq == 0 && v.Node == 0 }

// Cell is one clustering-key/value pair inside a partition, stamped
// with the version of the write that produced it. A tombstone cell
// records a delete: it masks every older version of the address and
// carries no value.
type Cell struct {
	CK        []byte
	Value     []byte
	Ver       Version
	Tombstone bool
}

// Size returns the payload size of the cell in bytes.
func (c Cell) Size() int { return len(c.CK) + len(c.Value) }

// Entry is one write addressed to a partition: a cell plus the partition
// key it lands on. It is the unit of the batched write path — the wire
// batch messages, the engine's group commit and the client batcher all
// move slices of entries. A zero Ver means "not yet stamped": the
// accepting engine assigns one. A non-zero Ver is preserved — that is
// how forwarded and streamed copies keep the version of the original
// write, so every replica's merge picks the same winner.
type Entry struct {
	PK        string
	CK        []byte
	Value     []byte
	Ver       Version
	Tombstone bool
}

// Size returns the payload size of the entry in bytes, partition key
// included.
func (e Entry) Size() int { return len(e.PK) + len(e.CK) + len(e.Value) }

// Partition is a partition key together with its cells sorted by
// clustering key.
type Partition struct {
	Key   string
	Cells []Cell
}

// Size returns the total payload size of the partition in bytes.
func (p *Partition) Size() int {
	s := len(p.Key)
	for _, c := range p.Cells {
		s += c.Size()
	}
	return s
}

// Find returns the index of the cell with the given clustering key, or
// -1. The cells must be sorted by clustering key.
func (p *Partition) Find(ck []byte) int {
	lo, hi := 0, len(p.Cells)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(p.Cells[mid].CK, ck) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(p.Cells) && bytes.Equal(p.Cells[lo].CK, ck) {
		return lo
	}
	return -1
}

// SliceRange returns the sub-slice of cells with from <= CK < to.
// A nil `to` means "until the end"; a nil `from` means "from the start".
func (p *Partition) SliceRange(from, to []byte) []Cell {
	lo := 0
	if from != nil {
		lo = lowerBound(p.Cells, from)
	}
	hi := len(p.Cells)
	if to != nil {
		hi = lowerBound(p.Cells, to)
	}
	if lo > hi {
		return nil
	}
	return p.Cells[lo:hi]
}

func lowerBound(cells []Cell, ck []byte) int {
	lo, hi := 0, len(cells)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(cells[mid].CK, ck) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Merge combines cells from multiple sorted sources into one sorted run,
// resolving clustering-key collisions by version: the highest version
// wins, and on an exact version tie the later source wins (sources are
// passed oldest to newest — SSTables before memtables). Tombstones take part in the merge like
// any other cell and appear in the output; callers that serve reads
// filter them (DropTombstones), while compaction and range streaming
// keep them so a delete keeps masking older copies elsewhere.
func Merge(sources ...[]Cell) []Cell {
	switch len(sources) {
	case 0:
		return nil
	case 1:
		return sources[0]
	}
	total := 0
	for _, s := range sources {
		total += len(s)
	}
	out := make([]Cell, 0, total)
	idx := make([]int, len(sources))
	for {
		// Find the smallest head key across all sources.
		var minKey []byte
		found := false
		for si := range sources {
			if idx[si] >= len(sources[si]) {
				continue
			}
			k := sources[si][idx[si]].CK
			if !found || bytes.Compare(k, minKey) < 0 {
				minKey, found = k, true
			}
		}
		if !found {
			return out
		}
		// The highest version holding minKey wins; every source holding
		// it advances so shadowed duplicates are dropped. >= with
		// ascending si: an exact version tie goes to the newest source.
		var winner Cell
		first := true
		for si := range sources {
			if idx[si] < len(sources[si]) && bytes.Equal(sources[si][idx[si]].CK, minKey) {
				c := sources[si][idx[si]]
				if first || c.Ver.Compare(winner.Ver) >= 0 {
					winner, first = c, false
				}
				idx[si]++
			}
		}
		out = append(out, winner)
	}
}

// DropTombstones filters deleted cells out of a merged run — the last
// step of serving a read. It returns the input slice unchanged when no
// tombstone is present (the common case allocates nothing).
func DropTombstones(cells []Cell) []Cell {
	i := 0
	for i < len(cells) && !cells[i].Tombstone {
		i++
	}
	if i == len(cells) {
		return cells
	}
	out := make([]Cell, i, len(cells)-1)
	copy(out, cells[:i])
	for _, c := range cells[i+1:] {
		if !c.Tombstone {
			out = append(out, c)
		}
	}
	return out
}
