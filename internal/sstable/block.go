package sstable

import (
	"encoding/binary"
	"hash/crc32"
	"math"

	"scalekv/internal/enc"
	"scalekv/internal/row"
)

// This file is the data-block codec: restart-point prefix-compressed
// cell entries with a per-block CRC, in the LevelDB/KevoDB tradition,
// optionally LZ-compressed on disk (see compress.go).
//
// Entries are keyed by the enc internal key (escaped partition key,
// separator, clustering key), so byte order within and across blocks is
// (pk, ck) order. Each entry stores only the suffix of its key that
// differs from the previous entry's; every restartInterval-th entry is a
// restart point carrying its full key, so decoding can always begin at
// the block start without external state.
//
// The entry payload is:
//
//	entry*  restart-offset[u32 LE]*  numRestarts[u32 LE]
//
// and its stored (on-disk) form is:
//
//	flag byte | payload-or-compressed-payload | crc32[u32 LE]
//
// where flag 0x01 means the payload is stored raw and 0x02 means it is
// LZ-compressed. The CRC covers everything before it — the flag and the
// stored (possibly compressed) bytes — so a damaged block is caught
// before any decompression is attempted. Blocks written before the
// compression revision have no flag byte; their first byte is always
// 0x00 (the first entry is a restart point, so its shared-length uvarint
// is zero), which no flagged block can start with, making the two
// layouts self-distinguishing with no table-level marker.
//
// Entry layout:
//
//	shared uvarint | unshared uvarint | valueLen uvarint |
//	key suffix | value | seq uvarint | node uvarint | flags byte

const (
	// DefaultBlockSize is the target size of a data block: small
	// enough that a cold point read transfers little more than it needs,
	// large enough to amortize the per-block CRC and index entry.
	DefaultBlockSize = 4 << 10

	blockRestartInterval = 16

	// flagTombstone is the entry flags bit marking a deletion.
	flagTombstone = byte(1)

	// Stored-block flag byte values. 0x00 is reserved: it identifies a
	// pre-compression block (see the layout comment above).
	blockFlagRaw = byte(0x01)
	blockFlagLZ  = byte(0x02)
)

// Compression selects the on-disk block codec of a table.
type Compression int

const (
	// DefaultCompression is LZ: blocks are compressed unless the
	// compressibility probe finds the saving too small to bother.
	DefaultCompression Compression = iota
	// NoCompression stores every block raw — the escape hatch for
	// workloads of incompressible values where the probe's work is pure
	// overhead.
	NoCompression
	// LZCompression names the default explicitly.
	LZCompression
)

// blockBuilder accumulates prefix-compressed entries for one data block.
type blockBuilder struct {
	buf      []byte
	restarts []uint32
	count    int
	prevKey  []byte
}

func (b *blockBuilder) empty() bool { return b.count == 0 }
func (b *blockBuilder) size() int   { return len(b.buf) }

func (b *blockBuilder) reset() {
	b.buf = b.buf[:0]
	b.restarts = b.restarts[:0]
	b.count = 0
	b.prevKey = b.prevKey[:0]
}

// add appends one cell. Keys must arrive in ascending byte order; the
// writer's partition/cell ordering checks guarantee it.
func (b *blockBuilder) add(ik, value []byte, ver row.Version, tomb bool) {
	shared := 0
	if b.count%blockRestartInterval == 0 {
		b.restarts = append(b.restarts, uint32(len(b.buf)))
	} else {
		max := len(b.prevKey)
		if len(ik) < max {
			max = len(ik)
		}
		for shared < max && b.prevKey[shared] == ik[shared] {
			shared++
		}
	}
	b.buf = enc.AppendUvarint(b.buf, uint64(shared))
	b.buf = enc.AppendUvarint(b.buf, uint64(len(ik)-shared))
	b.buf = enc.AppendUvarint(b.buf, uint64(len(value)))
	b.buf = append(b.buf, ik[shared:]...)
	b.buf = append(b.buf, value...)
	b.buf = enc.AppendUvarint(b.buf, ver.Seq)
	b.buf = enc.AppendUvarint(b.buf, uint64(ver.Node))
	flags := byte(0)
	if tomb {
		flags = flagTombstone
	}
	b.buf = append(b.buf, flags)
	b.prevKey = append(b.prevKey[:0], ik...)
	b.count++
}

// finishEntries appends the restart array and count, returning the
// uncompressed entry payload (no flag, no CRC — sealBlock adds the
// stored framing). The builder must be reset before reuse.
func (b *blockBuilder) finishEntries() []byte {
	for _, r := range b.restarts {
		b.buf = binary.LittleEndian.AppendUint32(b.buf, r)
	}
	b.buf = binary.LittleEndian.AppendUint32(b.buf, uint32(len(b.restarts)))
	return b.buf
}

// sealBlock wraps an entry payload into its stored on-disk form: flag
// byte, raw or compressed payload, trailing CRC over both. Under
// (Default|LZ)Compression the payload is probed for compressibility —
// blocks too small to win, or whose compressed form saves less than
// 1/8th, are stored raw, so incompressible values cost one cheap
// compression pass and nothing on the read side. The table parameter is
// the encoder's reusable scratch. The returned slice is freshly
// allocated; compressed reports which flag was chosen.
func sealBlock(payload []byte, compression Compression, table *[1 << lzTableBits]int32) (stored []byte, compressed bool) {
	if compression != NoCompression && len(payload) >= lzMinInput {
		buf := make([]byte, 0, len(payload)+8)
		buf = append(buf, blockFlagLZ)
		buf = lzCompress(buf, payload, table)
		if len(buf)-1 < len(payload)-len(payload)/8 {
			buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
			return buf, true
		}
	}
	buf := make([]byte, 0, len(payload)+5)
	buf = append(buf, blockFlagRaw)
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf, false
}

// decodeStoredBlock verifies a stored block's CRC and returns its entry
// payload, decompressing when the flag byte says to. The CRC covers the
// stored bytes — flag included — so corruption is caught before any
// decode is attempted. Blocks from the pre-compression revision (first
// byte 0x00, CRC over the same extent) pass through unchanged. The
// returned payload aliases block for raw and legacy layouts and is
// freshly allocated for compressed ones.
func decodeStoredBlock(block []byte) ([]byte, error) {
	if len(block) < 5 {
		return nil, ErrCorrupt
	}
	crcOff := len(block) - 4
	if crc32.ChecksumIEEE(block[:crcOff]) != binary.LittleEndian.Uint32(block[crcOff:]) {
		return nil, ErrCorrupt
	}
	switch block[0] {
	case 0x00:
		// Pre-compression block: no flag byte, the whole pre-CRC extent
		// is the payload.
		return block[:crcOff], nil
	case blockFlagRaw:
		return block[1:crcOff], nil
	case blockFlagLZ:
		n, err := lzDecodedLen(block[1:crcOff])
		if err != nil {
			return nil, err
		}
		payload := make([]byte, n)
		if err := lzDecompress(payload, block[1:crcOff]); err != nil {
			return nil, err
		}
		return payload, nil
	default:
		return nil, ErrCorrupt
	}
}

// decodeBlock decodes a stored block end to end: CRC check, optional
// decompression, then the entry walk. See decodeStoredBlock and
// decodeEntries.
func decodeBlock(block []byte, fn func(ik, value []byte, ver row.Version, tomb bool) bool) error {
	payload, err := decodeStoredBlock(block)
	if err != nil {
		return err
	}
	return decodeEntries(payload, fn)
}

// decodeEntries streams an entry payload's cells through fn in order.
// The ik and value slices are only valid during the call (ik is a
// reused buffer, value aliases the payload); fn copies what it keeps.
// Returning false from fn stops the walk without error. Any structural
// violation — truncated varint, impossible lengths — yields ErrCorrupt;
// arbitrary input bytes never panic (the fuzz target pins this).
func decodeEntries(payload []byte, fn func(ik, value []byte, ver row.Version, tomb bool) bool) error {
	if len(payload) < 4 {
		return ErrCorrupt
	}
	restartsOff := len(payload) - 4
	numRestarts := binary.LittleEndian.Uint32(payload[restartsOff:])
	if uint64(numRestarts)*4 > uint64(restartsOff) {
		return ErrCorrupt
	}
	data := payload[:restartsOff-int(numRestarts)*4]
	var key []byte
	pos := 0
	for pos < len(data) {
		shared, n1 := binary.Uvarint(data[pos:])
		if n1 <= 0 {
			return ErrCorrupt
		}
		pos += n1
		unshared, n2 := binary.Uvarint(data[pos:])
		if n2 <= 0 {
			return ErrCorrupt
		}
		pos += n2
		vlen, n3 := binary.Uvarint(data[pos:])
		if n3 <= 0 {
			return ErrCorrupt
		}
		pos += n3
		if shared > uint64(len(key)) ||
			unshared > uint64(len(data)-pos) ||
			vlen > uint64(len(data)-pos)-unshared {
			return ErrCorrupt
		}
		key = append(key[:shared], data[pos:pos+int(unshared)]...)
		pos += int(unshared)
		value := data[pos : pos+int(vlen)]
		pos += int(vlen)
		seq, n4 := binary.Uvarint(data[pos:])
		if n4 <= 0 {
			return ErrCorrupt
		}
		pos += n4
		node, n5 := binary.Uvarint(data[pos:])
		if n5 <= 0 || node > math.MaxUint16 {
			return ErrCorrupt
		}
		pos += n5
		if pos >= len(data) {
			return ErrCorrupt
		}
		flags := data[pos]
		pos++
		ver := row.Version{Seq: seq, Node: uint16(node)}
		if !fn(key, value, ver, flags&flagTombstone != 0) {
			return nil
		}
	}
	return nil
}
