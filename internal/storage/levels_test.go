package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"scalekv/internal/row"
	"scalekv/internal/sstable"
)

// TestLeveledCompactionPromotes: sustained flushes under a small L0
// threshold must push data into L1+ and keep L0 at or under the
// threshold once idle, with the write-amp counters moving.
func TestLeveledCompactionPromotes(t *testing.T) {
	e := openTest(t, Options{Shards: 1, CompactAfter: 2})
	for gen := 0; gen < 10; gen++ {
		for i := 0; i < 50; i++ {
			if err := e.Put(fmt.Sprintf("p%03d", i), ck(gen), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if len(st.Levels) < 2 || st.Levels[1].Tables == 0 {
		t.Fatalf("no data promoted to L1: levels %+v", st.Levels)
	}
	if st.Levels[0].Tables > 2 {
		t.Fatalf("idle L0 holds %d tables, threshold 2", st.Levels[0].Tables)
	}
	if st.CompactionBytesIn == 0 || st.CompactionBytesOut == 0 {
		t.Fatalf("compaction byte counters flat: in=%d out=%d", st.CompactionBytesIn, st.CompactionBytesOut)
	}
	// Every cell survives the promotions.
	for i := 0; i < 50; i++ {
		cells, err := e.ScanPartition(fmt.Sprintf("p%03d", i), nil, nil)
		if err != nil || len(cells) != 10 {
			t.Fatalf("p%03d: %d cells, err %v; want 10", i, len(cells), err)
		}
	}
}

// TestManifestOrphanSweep: a table renamed into place whose manifest
// commit never happened (crash window) must be swept on reopen, not
// loaded — its data is still covered by the compaction inputs the
// manifest lists.
func TestManifestOrphanSweep(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Put("p", ck(1), []byte("real")); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Forge an orphan: a valid table no manifest lists, with a doomed
	// cell that must never become visible.
	orphan := filepath.Join(dir, "sst-s00-009999.db")
	w, err := sstable.NewWriter(orphan, sstable.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddPartition("p", []row.Cell{{CK: ck(2), Value: []byte("ghost"), Ver: row.Version{Seq: 999}}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("orphan table survived reopen")
	}
	if _, ok, _ := e2.Get("p", ck(2)); ok {
		t.Fatal("orphan table's cell became visible")
	}
	if v, ok, _ := e2.Get("p", ck(1)); !ok || string(v) != "real" {
		t.Fatalf("manifest-listed data lost: %q,%v", v, ok)
	}
}

// TestManifestMissingTableFailsLoudly: a manifest listing a table the
// directory lacks is unrecoverable loss; Open must fail, not present a
// silently incomplete store.
func TestManifestMissingTableFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Put("p", ck(1), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := filepath.Glob(filepath.Join(dir, "sst-*.db"))
	if len(names) != 1 {
		t.Fatalf("%d tables, want 1", len(names))
	}
	os.Remove(names[0])
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("opened a store whose manifest lists a missing table")
	}
}

// TestLevelLayoutSurvivesReopen: the manifest must restore tables to
// the levels compaction assigned them, not dump everything back to L0.
func TestLevelLayoutSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir, Shards: 1, CompactAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	for gen := 0; gen < 5; gen++ {
		if err := e.Put("p", ck(gen), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	want := e.Stats().Levels
	if len(want) < 2 {
		t.Fatalf("no promotion happened: %+v", want)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	got := e2.Stats().Levels
	if len(got) != len(want) {
		t.Fatalf("level count changed across reopen: %+v vs %+v", got, want)
	}
	for i := range want {
		if got[i].Tables != want[i].Tables {
			t.Fatalf("level %d: %d tables after reopen, was %d", i, got[i].Tables, want[i].Tables)
		}
	}
	cells, err := e2.ScanPartition("p", nil, nil)
	if err != nil || len(cells) != 5 {
		t.Fatalf("reopen lost cells: %d, %v", len(cells), err)
	}
}
