package storage

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scalekv/internal/row"
	"scalekv/internal/sstable"
)

// --- Delete durability -------------------------------------------------------

// TestDeleteSurvivesFlushCompactReopen is the headline tombstone
// regression: a deleted cell stays deleted through every lifecycle
// transition the engine has — flush to SSTable, full compaction,
// process restart — while its neighbours survive untouched.
func TestDeleteSurvivesFlushCompactReopen(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 20; i++ {
		if err := e.Put("p", ck(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Flush v1 of everything, then overwrite and delete across the
	// table boundary so the tombstone must mask an SSTable-resident cell.
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.Put("p", ck(3), []byte("v3-new")); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete("p", ck(3)); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete("p", ck(7)); err != nil {
		t.Fatal(err)
	}

	check := func(stage string, e *Engine) {
		t.Helper()
		for _, i := range []int{3, 7} {
			if v, ok, err := e.Get("p", ck(i)); ok || err != nil {
				t.Fatalf("%s: deleted ck(%d) visible: %q, err=%v", stage, i, v, err)
			}
		}
		if v, ok, _ := e.Get("p", ck(4)); !ok || string(v) != "v4" {
			t.Fatalf("%s: neighbour lost: %q,%v", stage, v, ok)
		}
		cells, err := e.ScanPartition("p", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(cells) != 18 {
			t.Fatalf("%s: scan sees %d cells want 18", stage, len(cells))
		}
		for _, c := range cells {
			if c.Tombstone {
				t.Fatalf("%s: scan leaked a tombstone", stage)
			}
			if bytes.Equal(c.CK, ck(3)) || bytes.Equal(c.CK, ck(7)) {
				t.Fatalf("%s: deleted cell in scan", stage)
			}
		}
	}

	check("live", e)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	check("after flush", e)
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	check("after compact", e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	check("after reopen", e2)
}

// TestReopenRestoresVersionCounter: a write accepted after a restart
// must order after everything written before it — including tombstones.
// If the counter were not restored from the persisted max sequence, the
// post-restart put would stamp a low sequence and lose to the old
// tombstone.
func TestReopenRestoresVersionCounter(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Put("p", ck(1), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete("p", ck(1)); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil { // tombstone reaches an SSTable
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if err := e2.Put("p", ck(1), []byte("reborn")); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := e2.Get("p", ck(1)); !ok || string(v) != "reborn" {
		t.Fatalf("post-restart put lost to a pre-restart tombstone: %q,%v", v, ok)
	}
}

// --- Last-write-wins merge ---------------------------------------------------

// TestLWWArrivalOrderIndependent pins the property the rebalance race
// fix rests on: pre-versioned copies of the same cells applied in
// opposite orders (forwarded-then-streamed vs streamed-then-forwarded)
// converge to the same winner.
func TestLWWArrivalOrderIndependent(t *testing.T) {
	older := row.Entry{PK: "p", CK: ck(1), Value: []byte("old"), Ver: row.Version{Seq: 10, Node: 1}}
	newer := row.Entry{PK: "p", CK: ck(1), Value: []byte("new"), Ver: row.Version{Seq: 20, Node: 1}}
	delOld := row.Entry{PK: "p", CK: ck(2), Ver: row.Version{Seq: 11, Node: 2}, Tombstone: true}
	putNew := row.Entry{PK: "p", CK: ck(2), Value: []byte("after-del"), Ver: row.Version{Seq: 12, Node: 1}}

	for name, order := range map[string][]row.Entry{
		"forward-first": {newer, older, putNew, delOld},
		"stream-first":  {older, newer, delOld, putNew},
	} {
		e := openTest(t, Options{Shards: 1})
		for _, ent := range order {
			if err := e.PutBatch([]row.Entry{ent}); err != nil {
				t.Fatal(err)
			}
		}
		if v, ok, _ := e.Get("p", ck(1)); !ok || string(v) != "new" {
			t.Fatalf("%s: ck1 = %q,%v want new", name, v, ok)
		}
		if v, ok, _ := e.Get("p", ck(2)); !ok || string(v) != "after-del" {
			t.Fatalf("%s: ck2 = %q,%v want after-del", name, v, ok)
		}
		// A flush between arrivals must not change the outcome either.
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		if v, _, _ := e.Get("p", ck(1)); string(v) != "new" {
			t.Fatalf("%s: flush changed the winner to %q", name, v)
		}
	}
}

// TestLWWAcrossFlushBoundary: the newer version is flushed to an
// SSTable, then an older copy lands in the active memtable (a late
// stream page). The memtable copy is more recent by arrival but older
// by version — reads must keep serving the SSTable's cell.
func TestLWWAcrossFlushBoundary(t *testing.T) {
	e := openTest(t, Options{Shards: 1})
	if err := e.PutBatch([]row.Entry{{PK: "p", CK: ck(1), Value: []byte("new"), Ver: row.Version{Seq: 50, Node: 3}}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.PutBatch([]row.Entry{{PK: "p", CK: ck(1), Value: []byte("stale"), Ver: row.Version{Seq: 9, Node: 1}}}); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := e.Get("p", ck(1)); !ok || string(v) != "new" {
		t.Fatalf("stale memtable copy shadowed a newer SSTable cell: %q,%v", v, ok)
	}
	cells, err := e.ScanPartition("p", nil, nil)
	if err != nil || len(cells) != 1 || string(cells[0].Value) != "new" {
		t.Fatalf("scan = %v, %v", cells, err)
	}
}

// --- Tombstone GC ------------------------------------------------------------

// TestTombstoneGCOnCompaction: once every memtable is drained, a full
// compaction collects tombstones (and the partitions they emptied); an
// older shadowed copy arriving before the compaction keeps the
// tombstone alive via the GC watermark.
func TestTombstoneGCOnCompaction(t *testing.T) {
	e := openTest(t, Options{Shards: 1})
	if err := e.Put("gone", ck(1), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := e.Put("kept", ck(1), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil { // table 1: both cells live
		t.Fatal(err)
	}
	if err := e.Delete("gone", ck(1)); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil { // table 2: the tombstone
		t.Fatal(err)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if e.Metrics.TombstonesGCed.Load() == 0 {
		t.Fatal("compaction kept a collectable tombstone")
	}
	// The tombstone-only partition is gone entirely.
	for _, pk := range e.Partitions() {
		if pk == "gone" {
			t.Fatal("tombstone-only partition survived compaction")
		}
	}
	if _, ok, _ := e.Get("kept", ck(1)); !ok {
		t.Fatal("live cell lost in compaction")
	}
}

// TestTombstoneKeptWhileOlderCopyUnflushed: a stale pre-versioned copy
// sits in the active memtable below the tombstone's version. The GC
// watermark must keep the tombstone through compaction, or the stale
// copy would resurrect when it flushes.
func TestTombstoneKeptWhileOlderCopyUnflushed(t *testing.T) {
	e := openTest(t, Options{Shards: 1})
	if err := e.Put("p", ck(1), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete("p", ck(1)); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil { // tombstone now in an SSTable
		t.Fatal(err)
	}
	// A late stream page delivers an older copy into the memtable.
	if err := e.PutBatch([]row.Entry{{PK: "p", CK: ck(1), Value: []byte("stale"), Ver: row.Version{Seq: 1, Node: 9}}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := e.Get("p", ck(1)); ok {
		t.Fatal("compaction dropped a tombstone still masking an unflushed stale copy")
	}
	// After the stale copy flushes, the retained tombstone still masks it.
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := e.Get("p", ck(1)); ok {
		t.Fatalf("stale copy resurrected after flush+compact: %q", v)
	}
}

// --- on-disk generation ------------------------------------------------------

// TestPreV3DirectoryRejected: a SHARDS manifest with no format field
// (pre-versioning) or stamped "v2" (flat tables) marks a directory this
// engine no longer reads; Open must say so instead of upgrading it.
func TestPreV3DirectoryRejected(t *testing.T) {
	for _, stamp := range []string{"1\n", "1 v2\n"} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "SHARDS"), []byte(stamp), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(Options{Dir: dir})
		if err == nil || !strings.Contains(err.Error(), "pre-v3 data directory; re-ingest") {
			t.Fatalf("SHARDS %q: Open returned %v, want the pre-v3 error", stamp, err)
		}
	}
}

// TestShardCountPersistsAcrossReopen: the SHARDS manifest's count wins
// over Options.Shards on reopen, because the existing files were
// partitioned with it.
func TestShardCountPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Put("p", ck(1), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(Options{Dir: dir, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if len(e2.shards) != 2 {
		t.Fatalf("reopened with %d shards, want the persisted 2", len(e2.shards))
	}
	if v, ok, _ := e2.Get("p", ck(1)); !ok || string(v) != "v" {
		t.Fatalf("cell lost across reopen: %q,%v", v, ok)
	}
}

// TestManifestlessShardTablesSwept: a shard without a manifest has never
// committed a table, so a table file in it is the leftover of a first
// flush that crashed before its manifest write — swept, not loaded.
func TestManifestlessShardTablesSwept(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "SHARDS"), []byte("1 v3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, "sst-s00-000000.db")
	w, err := sstable.NewWriter(orphan, sstable.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddPartition("p", []row.Cell{{CK: ck(1), Value: []byte("v"), Ver: row.Version{Seq: 1}}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	e, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if n := e.NumSSTables(); n != 0 {
		t.Fatalf("manifest-less shard loaded %d tables, want 0", n)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan table not swept: %v", err)
	}
}

// TestUnknownManifestFormatRejected: a directory stamped by a future
// format must fail loudly, not present garbage.
func TestUnknownManifestFormatRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "SHARDS"), []byte("4 v9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("opened a directory with an unknown format stamp")
	}
}

// --- ScanRange index ---------------------------------------------------------

// TestScanRangePagedIndexComplete: paging a range with a tiny page size
// must enumerate exactly the same cells as one unbounded page — the
// cached per-scan partition index and its binary-search resume must not
// skip or duplicate partitions.
func TestScanRangePagedIndexComplete(t *testing.T) {
	e := openTest(t, Options{Shards: 4})
	const parts = 40
	want := map[string]bool{}
	for p := 0; p < parts; p++ {
		pk := fmt.Sprintf("part-%03d", p)
		want[pk] = true
		for i := 0; i < 5; i++ {
			if err := e.Put(pk, ck(i), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
	}
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	got := map[string]int{}
	afterTok, afterPK := int64(math.MinInt64), ""
	pages := 0
	for {
		page, err := e.ScanRange(lo, hi, afterTok, afterPK, 7)
		if err != nil {
			t.Fatal(err)
		}
		pages++
		for _, ent := range page.Entries {
			got[ent.PK]++
		}
		if !page.More {
			break
		}
		afterTok, afterPK = page.NextToken, page.NextPK
	}
	if pages < 2 {
		t.Fatalf("page size 7 over %d cells produced %d pages", parts*5, pages)
	}
	if len(got) != parts {
		t.Fatalf("paged scan saw %d partitions want %d", len(got), parts)
	}
	for pk, n := range got {
		if !want[pk] || n != 5 {
			t.Fatalf("partition %s: %d cells", pk, n)
		}
	}

	// A new scan session (first page) must observe partitions created
	// after the previous session's index was built.
	if err := e.Put("part-zzz", ck(0), []byte("v")); err != nil {
		t.Fatal(err)
	}
	page, err := e.ScanRange(lo, hi, math.MinInt64, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := false
	for _, ent := range page.Entries {
		if ent.PK == "part-zzz" {
			seen = true
		}
	}
	if !seen {
		t.Fatal("fresh scan session served a stale partition index")
	}
}

// TestScanRangeStreamsTombstones: the streamer's view must include
// tombstones so deletes propagate to a range's new owner.
func TestScanRangeStreamsTombstones(t *testing.T) {
	e := openTest(t, Options{Shards: 1})
	if err := e.Put("p", ck(1), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := e.Put("p", ck(2), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete("p", ck(1)); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil { // tombstone must survive into tables
		t.Fatal(err)
	}
	page, err := e.ScanRange(math.MinInt64, math.MaxInt64, math.MinInt64, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	var tombs, live int
	for _, ent := range page.Entries {
		if ent.Tombstone {
			tombs++
			if ent.Ver.IsZero() {
				t.Fatal("streamed tombstone lost its version")
			}
		} else {
			live++
		}
	}
	if tombs != 1 || live != 1 {
		t.Fatalf("stream page: %d tombstones, %d live; want 1, 1", tombs, live)
	}
}
