package sstable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"scalekv/internal/enc"
	"scalekv/internal/row"
)

func TestV3ColdPointReadIsIndexPlusOneBlock(t *testing.T) {
	// A large multi-block partition: the whole point of v3 is that a
	// cold point read costs one lazy meta load plus ONE data block, not
	// a whole-partition transfer.
	const n = 20000
	parts := map[string][]row.Cell{"big": makeCells(n, 64)}
	r, err := Open(writeTable(t, WriterOptions{}, parts))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Stats.ReadAtCalls.Load(); got != 0 {
		t.Fatalf("open issued %d post-open ReadAts, want 0 (lazy index)", got)
	}
	got, err := r.ReadSlice("big", ck(15000), ck(15001))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !bytes.Equal(got[0].CK, ck(15000)) {
		t.Fatalf("slice returned %d cells", len(got))
	}
	if calls := r.Stats.ReadAtCalls.Load(); calls != 2 {
		t.Fatalf("cold point read cost %d ReadAts, want 2 (meta + one block)", calls)
	}
	// Warm meta: every further point read is exactly one block fetch.
	for i := 0; i < 5; i++ {
		before := r.Stats.ReadAtCalls.Load()
		if _, err := r.ReadSlice("big", ck(3000*i), ck(3000*i+1)); err != nil {
			t.Fatal(err)
		}
		if d := r.Stats.ReadAtCalls.Load() - before; d != 1 {
			t.Fatalf("warm point read cost %d ReadAts, want 1", d)
		}
	}
	// And it never paid for the whole partition.
	full := int64(n * (64 + 8))
	if read := r.Stats.BytesRead.Load(); read > full/10 {
		t.Fatalf("point reads transferred %d bytes, more than 1/10 of the partition (%d)", read, full)
	}
}

func TestV3VersionsAndTombstonesRoundTrip(t *testing.T) {
	cells := []row.Cell{
		{CK: []byte("a"), Value: []byte("v1"), Ver: row.Version{Seq: 7, Node: 3}},
		{CK: []byte("b"), Ver: row.Version{Seq: 9, Node: 1}, Tombstone: true},
		{CK: []byte("c"), Value: []byte(""), Ver: row.Version{Seq: 12, Node: 65535}},
	}
	r, err := Open(writeTable(t, WriterOptions{}, map[string][]row.Cell{"p": cells}))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.MaxSeq() != 12 {
		t.Fatalf("maxSeq %d want 12", r.MaxSeq())
	}
	got, err := r.ReadPartition("p")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d cells", len(got))
	}
	for i := range cells {
		if got[i].Ver != cells[i].Ver || got[i].Tombstone != cells[i].Tombstone {
			t.Fatalf("cell %d meta mismatch: %+v vs %+v", i, got[i], cells[i])
		}
	}
}

func TestV3EmptyClusteringKey(t *testing.T) {
	// The empty clustering key encodes as exactly the partition prefix;
	// it must round-trip and sort before every other cell.
	cells := []row.Cell{
		{CK: []byte{}, Value: []byte("root")},
		{CK: []byte("x"), Value: []byte("leaf")},
	}
	r, err := Open(writeTable(t, WriterOptions{}, map[string][]row.Cell{"p": cells}))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := r.ReadPartition("p")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || len(got[0].CK) != 0 || !bytes.Equal(got[0].Value, []byte("root")) {
		t.Fatalf("unexpected cells %+v", got)
	}
}

func TestV3PartitionKeyWithZeroBytes(t *testing.T) {
	// Partition keys containing 0x00 exercise the enc escaping inside
	// internal keys; they must not collide or interleave.
	parts := map[string][]row.Cell{
		"a\x00b": makeCells(3, 8),
		"a\x01b": makeCells(4, 8),
	}
	r, err := Open(writeTable(t, WriterOptions{}, parts))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for pk, want := range parts {
		got, err := r.ReadPartition(pk)
		if err != nil {
			t.Fatalf("read %q: %v", pk, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%q: %d cells want %d", pk, len(got), len(want))
		}
	}
}

func TestV3IterMatchesReadPartition(t *testing.T) {
	parts := map[string][]row.Cell{
		"a":     makeCells(2000, 32), // spans several blocks
		"b":     nil,                 // empty partition
		"c":     makeCells(1, 8),
		"after": makeCells(100, 16),
	}
	r, err := Open(writeTable(t, WriterOptions{}, parts))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	it := r.Iter()
	var seen []string
	for {
		pk, cells, ok := it.Next()
		if !ok {
			break
		}
		seen = append(seen, pk)
		want, err := r.ReadPartition(pk)
		if err != nil {
			t.Fatalf("read %q: %v", pk, err)
		}
		if len(cells) != len(want) {
			t.Fatalf("%q: iter %d cells, read %d", pk, len(cells), len(want))
		}
		for i := range want {
			if !bytes.Equal(cells[i].CK, want[i].CK) || !bytes.Equal(cells[i].Value, want[i].Value) ||
				cells[i].Ver != want[i].Ver || cells[i].Tombstone != want[i].Tombstone {
				t.Fatalf("%q cell %d mismatch", pk, i)
			}
		}
	}
	if err := it.Err(); err != nil {
		t.Fatalf("iter: %v", err)
	}
	want := []string{"a", "after", "b", "c"}
	if len(seen) != len(want) {
		t.Fatalf("iter saw %v", seen)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("iter order %v, want %v", seen, want)
		}
	}
}

func TestV3PrefixCompressionShrinksTable(t *testing.T) {
	// Clustering keys share long prefixes ("ck000001"...), so the
	// restart-point prefix compression alone — block compression off —
	// must beat a flat length-prefixed (ck, value, seq, node, flags)
	// encoding of the same cells.
	cells := makeCells(5000, 8)
	for i := range cells {
		cells[i].Ver = row.Version{Seq: uint64(i + 1), Node: 1}
	}
	var flat []byte
	for _, c := range cells {
		flat = enc.AppendBytes(flat, c.CK)
		flat = enc.AppendBytes(flat, c.Value)
		flat = enc.AppendUvarint(flat, c.Ver.Seq)
		flat = enc.AppendUvarint(flat, uint64(c.Ver.Node))
		flat = append(flat, 0)
	}
	path := writeTable(t, WriterOptions{Compression: NoCompression}, map[string][]row.Cell{"p": cells})
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() >= int64(len(flat)) {
		t.Fatalf("v3 table (%d bytes) not smaller than the flat encoding (%d bytes)", st.Size(), len(flat))
	}
}

// corruptCopy writes a copy of path with the byte at off XOR-flipped.
func corruptCopy(t *testing.T, path string, off int64) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off < 0 {
		off += int64(len(data))
	}
	data[off] ^= 0xFF
	out := filepath.Join(t.TempDir(), "corrupt.sst")
	if err := os.WriteFile(out, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestV3CorruptDataBlockYieldsErrCorrupt(t *testing.T) {
	good := writeTable(t, WriterOptions{}, map[string][]row.Cell{"p": makeCells(1000, 32)})
	// Offset 10 is inside the first data block (the file header is 4
	// bytes); the per-block CRC must catch the flip at read time.
	bad := corruptCopy(t, good, 10)
	r, err := Open(bad)
	if err != nil {
		t.Fatalf("open must succeed (damage is in a data block): %v", err)
	}
	defer r.Close()
	if _, err := r.ReadPartition("p"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read of corrupt block returned %v, want ErrCorrupt", err)
	}
}

func TestV3CorruptBlockIndexYieldsErrCorrupt(t *testing.T) {
	good := writeTable(t, WriterOptions{}, map[string][]row.Cell{"p": makeCells(1000, 32)})
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	blockIdxOff := int64(binary.LittleEndian.Uint64(data[len(data)-footerSizeV3:]))
	bad := corruptCopy(t, good, blockIdxOff+1)
	r, err := Open(bad)
	if err != nil {
		t.Fatalf("open must succeed (index loads lazily): %v", err)
	}
	defer r.Close()
	if _, err := r.ReadPartition("p"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read through corrupt block index returned %v, want ErrCorrupt", err)
	}
}

func TestV3CorruptFooterYieldsErrCorrupt(t *testing.T) {
	good := writeTable(t, WriterOptions{}, map[string][]row.Cell{"p": makeCells(100, 16)})
	for _, off := range []int64{-int64(footerSizeV3), -30, -3} {
		if _, err := Open(corruptCopy(t, good, off)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("open with footer byte %d flipped returned %v, want ErrCorrupt", off, err)
		}
	}
}

func TestV3CorruptBloomYieldsErrCorrupt(t *testing.T) {
	good := writeTable(t, WriterOptions{}, map[string][]row.Cell{"p": makeCells(100, 16)})
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	bloomOff := int64(binary.LittleEndian.Uint64(data[len(data)-footerSizeV3+16:]))
	if _, err := Open(corruptCopy(t, good, bloomOff+1)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with corrupt bloom returned %v, want ErrCorrupt", err)
	}
}

func TestV3TruncatedMidFileYieldsError(t *testing.T) {
	good := writeTable(t, WriterOptions{}, map[string][]row.Cell{"p": makeCells(1000, 32)})
	data, _ := os.ReadFile(good)
	trunc := filepath.Join(t.TempDir(), "trunc.sst")
	os.WriteFile(trunc, data[:len(data)/2], 0o644)
	if _, err := Open(trunc); err == nil {
		t.Fatal("opened a truncated v3 file")
	}
}

func BenchmarkV3ColdPointRead(b *testing.B) {
	// Cold-cache point read: fresh Reader per iteration, so every read
	// pays the lazy meta load + one block. The flat-format analogue read
	// the whole partition record.
	path := filepath.Join(b.TempDir(), "bench.sst")
	w, _ := NewWriter(path, WriterOptions{})
	w.AddPartition("p", makeCells(20000, 64))
	w.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Open(path)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.ReadSlice("p", ck(i%20000), ck(i%20000+1)); err != nil {
			b.Fatal(err)
		}
		r.Close()
	}
}

func BenchmarkV3FullScan(b *testing.B) {
	// Full-table sequential scan through the partition iterator.
	path := filepath.Join(b.TempDir(), "bench.sst")
	w, _ := NewWriter(path, WriterOptions{})
	for i := 0; i < 64; i++ {
		w.AddPartition(fmt.Sprintf("pk%04d", i), makeCells(500, 64))
	}
	w.Close()
	r, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	var bytesScanned int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := r.Iter()
		n := 0
		for {
			_, cells, ok := it.Next()
			if !ok {
				break
			}
			n += len(cells)
			for j := range cells {
				bytesScanned += int64(len(cells[j].Value))
			}
		}
		if err := it.Err(); err != nil {
			b.Fatal(err)
		}
		if n != 64*500 {
			b.Fatalf("scanned %d cells", n)
		}
	}
	b.SetBytes(bytesScanned / int64(b.N))
}
