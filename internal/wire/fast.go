package wire

import (
	"errors"
	"fmt"

	"scalekv/internal/enc"
	"scalekv/internal/row"
)

// FastCodec is the Kryo analogue: registered numeric type IDs and
// hand-written binary encodings. Frame layout: uvarint typeID, then the
// type's compact field encoding in declaration order, no names, no tags.
type FastCodec struct{}

// Name implements Codec.
func (FastCodec) Name() string { return "fast" }

// ErrTruncated reports a frame shorter than its encoding requires.
var ErrTruncated = errors.New("wire: truncated frame")

// Marshal implements Codec.
func (FastCodec) Marshal(m Message) ([]byte, error) {
	out := enc.AppendUvarint(nil, uint64(m.TypeID()))
	switch v := m.(type) {
	case *CountRequest:
		out = enc.AppendUvarint(out, v.QueryID)
		out = enc.AppendUvarint(out, uint64(v.Seq))
		out = enc.AppendBytes(out, []byte(v.PK))
		out = enc.AppendUvarint(out, uint64(v.TraceSendNanos))
		out = enc.AppendUvarint(out, v.Epoch)
	case *CountResponse:
		out = enc.AppendUvarint(out, v.QueryID)
		out = enc.AppendUvarint(out, uint64(v.Seq))
		out = enc.AppendUvarint(out, uint64(v.NodeID))
		out = enc.AppendUvarint(out, v.Elements)
		out = enc.AppendUvarint(out, uint64(len(v.Counts)))
		for ty, n := range v.Counts {
			out = append(out, ty)
			out = enc.AppendUvarint(out, n)
		}
		out = enc.AppendBytes(out, []byte(v.ErrMsg))
		out = enc.AppendUvarint(out, uint64(v.RecvNanos))
		out = enc.AppendUvarint(out, uint64(v.QueueNanos))
		out = enc.AppendUvarint(out, uint64(v.DBNanos))
	case *PutRequest:
		out = enc.AppendBytes(out, []byte(v.PK))
		out = enc.AppendBytes(out, v.CK)
		out = enc.AppendBytes(out, v.Value)
		out = enc.AppendUvarint(out, v.Epoch)
	case *PutResponse:
		out = enc.AppendBytes(out, []byte(v.ErrMsg))
	case *GetRequest:
		out = enc.AppendBytes(out, []byte(v.PK))
		out = enc.AppendBytes(out, v.CK)
		out = enc.AppendUvarint(out, v.Epoch)
	case *GetResponse:
		out = enc.AppendBytes(out, v.Value)
		if v.Found {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
		out = enc.AppendBytes(out, []byte(v.ErrMsg))
		out = enc.AppendUvarint(out, v.VerSeq)
		out = enc.AppendUvarint(out, uint64(v.VerNode))
		out = appendBool(out, v.Tombstone)
	case *DeleteRequest:
		out = enc.AppendBytes(out, []byte(v.PK))
		out = enc.AppendBytes(out, v.CK)
		out = enc.AppendUvarint(out, v.Epoch)
	case *DeleteResponse:
		out = enc.AppendBytes(out, []byte(v.ErrMsg))
	case *ScanRequest:
		out = enc.AppendBytes(out, []byte(v.PK))
		out = appendOptBytes(out, v.From)
		out = appendOptBytes(out, v.To)
		out = enc.AppendUvarint(out, v.Epoch)
	case *ScanResponse:
		out = enc.AppendUvarint(out, uint64(len(v.Cells)))
		for _, c := range v.Cells {
			out = enc.AppendBytes(out, c.CK)
			out = enc.AppendBytes(out, c.Value)
			out = appendVersion(out, c.Ver, c.Tombstone)
		}
		out = enc.AppendBytes(out, []byte(v.ErrMsg))
	case *BatchPutRequest:
		out = enc.AppendUvarint(out, uint64(len(v.Entries)))
		for _, e := range v.Entries {
			out = appendEntry(out, e)
		}
		out = enc.AppendUvarint(out, v.Epoch)
	case *BatchPutResponse:
		out = enc.AppendUvarint(out, v.Applied)
		out = enc.AppendBytes(out, []byte(v.ErrMsg))
	case *MultiGetRequest:
		out = enc.AppendUvarint(out, uint64(len(v.Keys)))
		for _, k := range v.Keys {
			out = enc.AppendBytes(out, []byte(k.PK))
			out = enc.AppendBytes(out, k.CK)
		}
		out = enc.AppendUvarint(out, v.Epoch)
	case *MultiGetResponse:
		out = enc.AppendUvarint(out, uint64(len(v.Values)))
		for _, val := range v.Values {
			out = enc.AppendBytes(out, val.Value)
			if val.Found {
				out = append(out, 1)
			} else {
				out = append(out, 0)
			}
		}
		out = enc.AppendBytes(out, []byte(v.ErrMsg))
	case *RingStateRequest:
		// No fields.
	case *RingStateResponse:
		out = enc.AppendUvarint(out, v.Epoch)
		out = enc.AppendUvarint(out, uint64(v.Vnodes))
		out = enc.AppendUvarint(out, uint64(v.RF))
		out = appendNodeAddrs(out, v.Nodes)
		out = enc.AppendBytes(out, []byte(v.ErrMsg))
	case *StreamRangeRequest:
		out = enc.AppendUvarint(out, uint64(v.Lo))
		out = enc.AppendUvarint(out, uint64(v.Hi))
		out = enc.AppendUvarint(out, uint64(v.AfterToken))
		out = enc.AppendBytes(out, []byte(v.AfterPK))
		out = enc.AppendUvarint(out, uint64(v.MaxCells))
	case *StreamRangeResponse:
		out = enc.AppendUvarint(out, uint64(len(v.Entries)))
		for _, e := range v.Entries {
			out = appendEntry(out, e)
		}
		out = enc.AppendUvarint(out, uint64(v.NextToken))
		out = enc.AppendBytes(out, []byte(v.NextPK))
		out = appendBool(out, v.More)
		out = enc.AppendBytes(out, []byte(v.ErrMsg))
	case *DeleteRangeRequest:
		out = enc.AppendUvarint(out, uint64(v.Lo))
		out = enc.AppendUvarint(out, uint64(v.Hi))
	case *DeleteRangeResponse:
		out = enc.AppendUvarint(out, v.Removed)
		out = enc.AppendBytes(out, []byte(v.ErrMsg))
	case *DigestRequest:
		out = enc.AppendUvarint(out, uint64(v.Lo))
		out = enc.AppendUvarint(out, uint64(v.Hi))
		out = enc.AppendUvarint(out, uint64(v.Depth))
	case *DigestResponse:
		out = enc.AppendUvarint(out, uint64(len(v.Leaves)))
		for _, l := range v.Leaves {
			out = enc.AppendUvarint(out, l.Hash)
			out = enc.AppendUvarint(out, l.Cells)
		}
		out = enc.AppendBytes(out, []byte(v.ErrMsg))
	case *NodeStatsRequest:
		// No fields.
	case *NodeStatsResponse:
		out = enc.AppendUvarint(out, v.Epoch)
		out = enc.AppendUvarint(out, uint64(len(v.Metrics)))
		for _, m := range v.Metrics {
			out = enc.AppendBytes(out, []byte(m.Name))
			out = enc.AppendUvarint(out, m.Value)
		}
		out = enc.AppendUvarint(out, uint64(len(v.Peers)))
		for _, p := range v.Peers {
			out = enc.AppendUvarint(out, uint64(p.ID))
			out = appendBool(out, p.Up)
			out = enc.AppendUvarint(out, uint64(p.Suspicion))
			out = enc.AppendUvarint(out, p.SinceMillis)
		}
		out = enc.AppendBytes(out, []byte(v.ErrMsg))
	case *JoinRequest:
		out = enc.AppendUvarint(out, uint64(v.ID))
		out = enc.AppendBytes(out, []byte(v.Addr))
	case *JoinResponse:
		out = enc.AppendUvarint(out, v.Epoch)
		out = enc.AppendUvarint(out, uint64(v.Moves))
		out = enc.AppendUvarint(out, v.CellsStreamed)
		out = enc.AppendUvarint(out, v.CellsRetired)
		out = enc.AppendUvarint(out, uint64(v.Pages))
		out = enc.AppendUvarint(out, v.StreamNanos)
		out = enc.AppendUvarint(out, v.FlipNanos)
		out = enc.AppendBytes(out, []byte(v.RetireErr))
		out = enc.AppendBytes(out, []byte(v.ErrMsg))
	case *BeginMigrationRequest:
		out = enc.AppendUvarint(out, uint64(len(v.Moves)))
		for _, mv := range v.Moves {
			out = enc.AppendUvarint(out, uint64(mv.Lo))
			out = enc.AppendUvarint(out, uint64(mv.Hi))
			out = enc.AppendUvarint(out, uint64(mv.From))
			out = enc.AppendUvarint(out, uint64(mv.To))
		}
		out = appendNodeAddrs(out, v.Nodes)
	case *BeginMigrationResponse:
		out = enc.AppendBytes(out, []byte(v.ErrMsg))
	case *EndMigrationRequest:
		// No fields.
	case *EndMigrationResponse:
		out = enc.AppendBytes(out, []byte(v.ErrMsg))
	case *SetRingStateRequest:
		out = enc.AppendUvarint(out, v.Epoch)
		out = enc.AppendUvarint(out, uint64(v.Vnodes))
		out = enc.AppendUvarint(out, uint64(v.RF))
		out = appendNodeAddrs(out, v.Nodes)
	case *SetRingStateResponse:
		out = enc.AppendBytes(out, []byte(v.ErrMsg))
	case *PingRequest:
		out = enc.AppendUvarint(out, uint64(v.FromID))
		out = enc.AppendUvarint(out, v.Epoch)
	case *PingResponse:
		out = enc.AppendUvarint(out, uint64(v.ID))
		out = enc.AppendUvarint(out, v.Epoch)
		out = enc.AppendBytes(out, []byte(v.ErrMsg))
	case *LeaveRequest:
		out = enc.AppendUvarint(out, uint64(v.ID))
	case *LeaveResponse:
		out = enc.AppendBytes(out, []byte(v.ErrMsg))
	default:
		return nil, fmt.Errorf("wire: fast codec cannot marshal %T", m)
	}
	return out, nil
}

// appendBool encodes a bool as one byte.
func appendBool(out []byte, b bool) []byte {
	if b {
		return append(out, 1)
	}
	return append(out, 0)
}

// entryFlagTombstone marks a deleted entry/cell on the wire.
const entryFlagTombstone = byte(1)

// appendVersion encodes a cell version plus flags: seq, node, flags.
func appendVersion(out []byte, ver row.Version, tombstone bool) []byte {
	out = enc.AppendUvarint(out, ver.Seq)
	out = enc.AppendUvarint(out, uint64(ver.Node))
	flags := byte(0)
	if tombstone {
		flags = entryFlagTombstone
	}
	return append(out, flags)
}

// appendEntry encodes one row.Entry: pk, ck, value, version, flags.
func appendEntry(out []byte, e row.Entry) []byte {
	out = enc.AppendBytes(out, []byte(e.PK))
	out = enc.AppendBytes(out, e.CK)
	out = enc.AppendBytes(out, e.Value)
	return appendVersion(out, e.Ver, e.Tombstone)
}

// appendNodeAddrs encodes an address book: count, then (id, addr) pairs.
func appendNodeAddrs(out []byte, nodes []NodeAddr) []byte {
	out = enc.AppendUvarint(out, uint64(len(nodes)))
	for _, n := range nodes {
		out = enc.AppendUvarint(out, uint64(n.ID))
		out = enc.AppendBytes(out, []byte(n.Addr))
	}
	return out
}

// Unmarshal implements Codec.
func (FastCodec) Unmarshal(data []byte) (Message, error) {
	id, n := enc.Uvarint(data)
	if n <= 0 {
		return nil, ErrTruncated
	}
	m, err := newMessage(uint16(id))
	if err != nil {
		return nil, err
	}
	d := &decoder{buf: data[n:]}
	switch v := m.(type) {
	case *CountRequest:
		v.QueryID = d.uvarint()
		v.Seq = uint32(d.uvarint())
		v.PK = string(d.bytes())
		v.TraceSendNanos = int64(d.uvarint())
		v.Epoch = d.uvarint()
	case *CountResponse:
		v.QueryID = d.uvarint()
		v.Seq = uint32(d.uvarint())
		v.NodeID = uint32(d.uvarint())
		v.Elements = d.uvarint()
		if cnt := d.count(); cnt > 0 {
			v.Counts = make(map[uint8]uint64, min(cnt, 256)) // 256 distinct keys at most
			for i := 0; i < cnt && d.err == nil; i++ {
				ty := d.byte()
				v.Counts[ty] = d.uvarint()
			}
		}
		v.ErrMsg = string(d.bytes())
		v.RecvNanos = int64(d.uvarint())
		v.QueueNanos = int64(d.uvarint())
		v.DBNanos = int64(d.uvarint())
	case *PutRequest:
		v.PK = string(d.bytes())
		v.CK = d.copyBytes()
		v.Value = d.copyBytes()
		v.Epoch = d.uvarint()
	case *PutResponse:
		v.ErrMsg = string(d.bytes())
	case *GetRequest:
		v.PK = string(d.bytes())
		v.CK = d.copyBytes()
		v.Epoch = d.uvarint()
	case *GetResponse:
		v.Value = d.copyBytes()
		v.Found = d.byte() == 1
		v.ErrMsg = string(d.bytes())
		v.VerSeq = d.uvarint()
		v.VerNode = uint16(d.uvarint())
		v.Tombstone = d.byte() == 1
	case *DeleteRequest:
		v.PK = string(d.bytes())
		v.CK = d.copyBytes()
		v.Epoch = d.uvarint()
	case *DeleteResponse:
		v.ErrMsg = string(d.bytes())
	case *ScanRequest:
		v.PK = string(d.bytes())
		v.From = d.optBytes()
		v.To = d.optBytes()
		v.Epoch = d.uvarint()
	case *ScanResponse:
		v.Cells = list(d, func(c *row.Cell) {
			c.CK, c.Value = d.copyBytes(), d.copyBytes()
			c.Ver, c.Tombstone = d.version()
		})
		v.ErrMsg = string(d.bytes())
	case *BatchPutRequest:
		v.Entries = list(d, d.entry)
		v.Epoch = d.uvarint()
	case *BatchPutResponse:
		v.Applied = d.uvarint()
		v.ErrMsg = string(d.bytes())
	case *MultiGetRequest:
		v.Keys = list(d, func(k *GetKey) { *k = GetKey{PK: string(d.bytes()), CK: d.copyBytes()} })
		v.Epoch = d.uvarint()
	case *MultiGetResponse:
		v.Values = list(d, func(mv *MultiGetValue) { *mv = MultiGetValue{Value: d.copyBytes(), Found: d.byte() == 1} })
		v.ErrMsg = string(d.bytes())
	case *RingStateRequest:
		// No fields.
	case *RingStateResponse:
		v.Epoch = d.uvarint()
		v.Vnodes = uint32(d.uvarint())
		v.RF = uint32(d.uvarint())
		v.Nodes = d.nodeAddrs()
		v.ErrMsg = string(d.bytes())
	case *StreamRangeRequest:
		v.Lo = int64(d.uvarint())
		v.Hi = int64(d.uvarint())
		v.AfterToken = int64(d.uvarint())
		v.AfterPK = string(d.bytes())
		v.MaxCells = uint32(d.uvarint())
	case *StreamRangeResponse:
		v.Entries = list(d, d.entry)
		v.NextToken = int64(d.uvarint())
		v.NextPK = string(d.bytes())
		v.More = d.byte() == 1
		v.ErrMsg = string(d.bytes())
	case *DeleteRangeRequest:
		v.Lo = int64(d.uvarint())
		v.Hi = int64(d.uvarint())
	case *DeleteRangeResponse:
		v.Removed = d.uvarint()
		v.ErrMsg = string(d.bytes())
	case *DigestRequest:
		v.Lo = int64(d.uvarint())
		v.Hi = int64(d.uvarint())
		v.Depth = uint32(d.uvarint())
	case *DigestResponse:
		v.Leaves = list(d, func(l *DigestLeaf) { *l = DigestLeaf{Hash: d.uvarint(), Cells: d.uvarint()} })
		v.ErrMsg = string(d.bytes())
	case *NodeStatsRequest:
		// No fields.
	case *NodeStatsResponse:
		v.Epoch = d.uvarint()
		v.Metrics = list(d, func(m *Metric) { *m = Metric{Name: string(d.bytes()), Value: d.uvarint()} })
		v.Peers = list(d, func(p *PeerStat) {
			*p = PeerStat{ID: uint32(d.uvarint()), Up: d.byte() == 1, Suspicion: uint32(d.uvarint()), SinceMillis: d.uvarint()}
		})
		v.ErrMsg = string(d.bytes())
	case *JoinRequest:
		v.ID = uint32(d.uvarint())
		v.Addr = string(d.bytes())
	case *JoinResponse:
		v.Epoch = d.uvarint()
		v.Moves = uint32(d.uvarint())
		v.CellsStreamed = d.uvarint()
		v.CellsRetired = d.uvarint()
		v.Pages = uint32(d.uvarint())
		v.StreamNanos = d.uvarint()
		v.FlipNanos = d.uvarint()
		v.RetireErr = string(d.bytes())
		v.ErrMsg = string(d.bytes())
	case *BeginMigrationRequest:
		v.Moves = list(d, func(m *Move) {
			*m = Move{Lo: int64(d.uvarint()), Hi: int64(d.uvarint()), From: uint32(d.uvarint()), To: uint32(d.uvarint())}
		})
		v.Nodes = d.nodeAddrs()
	case *BeginMigrationResponse:
		v.ErrMsg = string(d.bytes())
	case *EndMigrationRequest:
		// No fields.
	case *EndMigrationResponse:
		v.ErrMsg = string(d.bytes())
	case *SetRingStateRequest:
		v.Epoch = d.uvarint()
		v.Vnodes = uint32(d.uvarint())
		v.RF = uint32(d.uvarint())
		v.Nodes = d.nodeAddrs()
	case *SetRingStateResponse:
		v.ErrMsg = string(d.bytes())
	case *PingRequest:
		v.FromID = uint32(d.uvarint())
		v.Epoch = d.uvarint()
	case *PingResponse:
		v.ID = uint32(d.uvarint())
		v.Epoch = d.uvarint()
		v.ErrMsg = string(d.bytes())
	case *LeaveRequest:
		v.ID = uint32(d.uvarint())
	case *LeaveResponse:
		v.ErrMsg = string(d.bytes())
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.buf) != 0 {
		// A well-formed fast frame is consumed exactly; leftovers mean a
		// foreign format whose length prefix happened to parse as a type
		// ID (e.g. a slow-codec frame).
		return nil, fmt.Errorf("wire: %d trailing bytes in fast frame", len(d.buf))
	}
	return m, nil
}

// appendOptBytes encodes a possibly-nil byte slice: 0 = nil, 1 = present.
func appendOptBytes(out, b []byte) []byte {
	if b == nil {
		return append(out, 0)
	}
	out = append(out, 1)
	return enc.AppendBytes(out, b)
}

// decoder is a cursor over a frame with sticky error handling.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := enc.Uvarint(d.buf)
	if n <= 0 {
		d.err = ErrTruncated
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) byte() uint8 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) == 0 {
		d.err = ErrTruncated
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

// bytes returns a view into the frame; valid until the frame is reused.
func (d *decoder) bytes() []byte {
	if d.err != nil {
		return nil
	}
	b, n := enc.Bytes(d.buf)
	if n == 0 {
		d.err = ErrTruncated
		return nil
	}
	d.buf = d.buf[n:]
	return b
}

// copyBytes returns an owned copy, for fields that outlive the frame.
func (d *decoder) copyBytes() []byte {
	b := d.bytes()
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

func (d *decoder) optBytes() []byte {
	if d.byte() == 0 {
		return nil
	}
	return d.copyBytes()
}

// version decodes a cell version plus flags written by appendVersion.
func (d *decoder) version() (row.Version, bool) {
	seq := d.uvarint()
	node := uint16(d.uvarint())
	return row.Version{Seq: seq, Node: node}, d.byte()&entryFlagTombstone != 0
}

// entry decodes into e one row.Entry written by appendEntry.
func (d *decoder) entry(e *row.Entry) {
	e.PK, e.CK, e.Value = string(d.bytes()), d.copyBytes(), d.copyBytes()
	e.Ver, e.Tombstone = d.version()
}

// nodeAddrs decodes an address book written by appendNodeAddrs.
func (d *decoder) nodeAddrs() []NodeAddr {
	return list(d, func(n *NodeAddr) { *n = NodeAddr{ID: uint32(d.uvarint()), Addr: string(d.bytes())} })
}

// maxPrealloc caps the capacity a decoded count reserves up front. A
// count within the frame can still claim far more memory than the frame
// holds (an 88-byte row.Entry per 1-byte slot), so a longer list grows
// only as its elements actually decode.
const maxPrealloc = 4096

// count reads a list length. Every encoded element takes at least one
// byte, so a count beyond the bytes left in the frame marks a malformed
// frame: it fails with ErrTruncated instead of sizing an allocation.
func (d *decoder) count() int {
	n := d.uvarint()
	if n > uint64(len(d.buf)) {
		d.err = ErrTruncated
		return 0
	}
	return int(n)
}

// list decodes a counted list; nil when empty. elem fills in each
// element in place: returning every element by value through the
// callback made batch decoding measurably slower than a plain loop.
func list[T any](d *decoder, elem func(*T)) []T {
	cnt := d.count()
	if cnt == 0 {
		return nil
	}
	out := make([]T, 0, min(cnt, maxPrealloc))
	for i := 0; i < cnt && d.err == nil; i++ {
		var zero T
		out = append(out, zero)
		elem(&out[i])
	}
	return out
}
