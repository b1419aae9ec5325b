// Package scalekv is a reproduction of "Exploiting key-value data
// stores scalability for HPC" (Cugnasco, Becerra, Torres, Ayguadé —
// ICPP 2017) as a reusable Go library.
//
// The paper's contribution is twofold: a benchmarking methodology that
// decomposes every distributed request into four stages
// (master-to-slaves, in-queue, in-cassandra, slaves-to-master), and an
// analytical model — total = max{master, slowest slave, result fetch} —
// that, fed with per-component regressions, predicts end-to-end query
// time, finds the optimal partition count for a workload, and locates
// the cluster size at which a single master stops scaling.
//
// This module implements the full stack the paper runs on:
//
//   - a Cassandra-like wide-column store (murmur3 token ring,
//     memtables, block-based SSTables with per-table bloom filters,
//     prefix-compressed ~4KB data blocks and a lazily-loaded block
//     index, so a cold point read costs the index plus one block):
//     internal/storage, internal/cluster. The storage engine is
//     lock-striped into shards (StorageOptions.Shards, default 8), each
//     with its own memtable, WAL segments and background flusher: a
//     write appends to the shard WAL and memtable and returns, the
//     frozen memtable is turned into an SSTable off the write path, and
//     leveled compaction (L0 flush zone, budgeted disjoint-range levels
//     below, per-shard crash-atomic manifest — see
//     docs/sstable-format.md) likewise runs per shard in the
//     background, so neither flush nor compaction ever stalls the
//     node's request loop and write amplification stays bounded as the
//     store grows. Reads
//     are lock- and allocation-free: each shard publishes an immutable
//     refcounted view of its memtables and tables through one atomic
//     pointer, and point reads search it via a stack-built key (see the
//     internal/storage package doc for the full concurrency model);
//   - the two serialization codecs of the Section V-B experiment
//     (reflective self-describing vs registered binary): internal/wire;
//   - a deterministic discrete-event simulator and the paper's
//     master-slave prototype on top of it, reproducing the Figure 1-5
//     scaling experiments on any machine: internal/sim,
//     internal/master;
//   - the analytical model itself (Formulas 1-8), the partition-count
//     optimizer, the loss decomposition and the master-limit analysis:
//     internal/core;
//   - the case study: a synthetic Alya-style particle advection dataset
//     and the denormalized D8-tree index over the store:
//     internal/alya, internal/d8tree;
//   - one driver per paper figure: internal/figures, exposed by
//     cmd/kvbench (paper figures only — system benchmarks live in the
//     workload lab, cmd/kvload);
//   - the standing workload lab: YCSB-style mixes, deterministic
//     Zipfian traffic, fixed-bucket latency histograms and the
//     BENCH_*.json perf-trajectory schema: internal/workload, exposed
//     by cmd/kvload.
//
// This package is the facade: it re-exports the model, the simulated
// prototype, the real cluster and the index so applications depend on a
// single import path.
//
// Quick start:
//
//	cl, err := scalekv.StartCluster(4)
//	if err != nil { ... }
//	defer cl.Close()
//	c := cl.Client()
//	c.Put("sensor-42", []byte("2026-06-10T12:00"), []byte{1, 0xCA})
//	counts, total, err := c.Count("sensor-42")
//
// Bulk ingest goes through a Batcher: writes are buffered per
// destination node (replica-aware), flushed as BatchPutRequest frames
// when a node's buffer crosses the entry or byte threshold, and up to
// MaxInFlight batches per node ride the pipelined transport
// concurrently. Each node group-commits a batch under one lock
// acquisition and one WAL write, so load throughput is bounded by the
// hardware rather than by per-cell round trips:
//
//	b := c.NewBatcher(scalekv.BatcherOptions{MaxEntries: 64})
//	for _, e := range dataset {
//		if err := b.Put(e.PK, e.CK, e.Value); err != nil { ... }
//	}
//	if err := b.Close(); err != nil { ... }
//
// Point reads batch the same way: Client.MultiGet answers many keys
// with one round trip per involved node.
//
// # Elastic topology
//
// The cluster grows and shrinks under live traffic — the capability the
// paper's "almost linear scalability" rests on. The token ring is an
// epoch-versioned, immutable Topology: every membership change produces
// a new topology (epoch+1) plus an ownership diff, the exact token
// ranges whose owner changed. Cluster.AddNode and Cluster.RemoveNode
// execute the change as a state machine:
//
//  1. snapshot the diff and pick a streaming source per range (the
//     least-loaded old owner, by engine stats);
//
//  2. open the dual-write window — source nodes forward in-range
//     writes to the new owner, so nothing lands behind the streamer;
//
//  3. stream each range, paged and token-ordered, out of the source
//     engine (ScanRange) into the target;
//
//  4. flip the epoch on every node. Requests carry the epoch they were
//     routed under; a node at a different epoch rejects them, and the
//     client refreshes its ring (RingStateRequest) and re-routes —
//     stale clients recover on their next operation;
//
//  5. retire the moved ranges at their old owners (DeleteRange).
//
// The whole sequence runs behind one call:
//
//	node, report, err := cl.AddNode() // under live traffic
//	fmt.Println(report.CellsStreamed, report.FlipDuration)
//
// Reads are failover-aware independently of rebalancing: Get, MultiGet,
// Scan and Count step to the next replica when a node is unreachable,
// so with ReplicationFactor > 1 a dead primary degrades reads instead
// of failing them.
//
// # Consistency: versioned cells, last-write-wins, real deletes
//
// Every cell carries a Version — a (Seq, Node) hybrid counter stamped
// by the engine that accepted the write — and conflicts are resolved by
// last-write-wins on that version wherever two copies of a cell meet: a
// memtable overwrite, a read merging memtables with SSTables, a
// compaction, or a replica receiving both a rebalance-streamed copy and
// a dual-write-forwarded overwrite of the same cell. Stream pages and
// forwards ship the original stamps verbatim, so every replica picks
// the same winner no matter which copy arrives last — the property that
// makes overwrites (and deletes) during an AddNode/RemoveNode converge.
//
// Client.Delete is a first-class distributed write: the accepting node
// stamps a tombstone that masks every older copy of the cell — in
// memtables, in SSTables, on replicas, across flushes, compactions and
// process restarts — until compaction collects it under the shard's GC
// watermark (the lowest version an unflushed memtable might still
// hold). While the node is the target of a range migration, or an
// anti-entropy pass is running, a fence suspends that collection for
// the in-flight ranges: a stale streamed copy arriving after its
// masking tombstone would otherwise have been collected still finds
// the delete in force. Deleted means deleted, not "until the next
// flush" — and not "until an unlucky rebalance" either. One
// Cassandra-shaped caveat remains: the watermark and fence are local,
// so a replica that was DOWN for the delete and stayed away until the
// surviving replicas collected the tombstone can reintroduce the old
// value through a later repair (the classic gc_grace discipline —
// repair must run between a delete and the tombstone's collection;
// Engine.FenceRange is also available to hold GC across planned
// maintenance).
//
// ClientOptions.ReadRepair (off by default) adds best-effort
// convergence on the read path: a Get that failed over to a later
// replica re-puts the cell it found — or the tombstone it hit, so
// deletes propagate too — at its original version, to the replicas it
// skipped. LWW makes the repair harmless (a replica holding something
// newer keeps it); it narrows divergence after an outage but repairs
// only what failover reads touch.
//
// # Anti-entropy: digest-tree replica repair
//
// Read-repair is opportunistic; Cluster.Repair is the convergence
// guarantee. One pass walks every replicated token range of the
// current topology and, for each range, compares Merkle-style digests
// (Engine.RangeDigest: per-bucket hashes of (pk, ck, version, flags)
// tuples, tombstones included) between the range's owners over the
// DigestRequest/DigestResponse exchange. Matching leaves are skipped;
// mismatched leaves are descended into with narrower digests while
// they stay large, then reconciled by streaming the leaf's cells from
// both owners (the epoch-0 range stream) and shipping each side's
// last-write-wins winners to the other at their original versions. A
// replica can only move forward: anything newer it already holds wins
// its local merge. After one pass every replica of a range is
// logically identical — same winners, same tombstones — no matter
// which dual-write forwards were dropped or which replica each
// concurrent writer reached; a pass over a converged cluster ships
// nothing and costs only digests.
//
//	report, err := cl.Repair(2) // rf; <=0 means the cluster's factor
//	fmt.Println(report.CellsShipped, report.LeafMismatches)
//
// Client.RepairRange / Client.RepairAll run the same pass from any
// client (cmd/kvstore exposes it as the one-shot `repair` subcommand);
// nodes also schedule their own passes (`kvstore serve
// -repair-interval`).
//
// On disk, tables are SSTable format v3 (sorted data blocks with
// restart-point prefix compression, per-block CRCs, a block index and
// partition directory fetched on first use — docs/sstable-format.md is
// the full layout), the only generation the engine reads: the SHARDS
// manifest records it, and a directory or table of an earlier
// generation fails Open with a "pre-v3" error — re-ingest such data.
//
// Durability is tunable per node via StorageOptions.Sync: SyncNever
// (default; fsync only at segment close), SyncOnSeal (fsync when a
// memtable freezes) or SyncAlways (fsync every write call; batches
// amortize it to one fsync per batch).
//
// # The workload lab
//
// Perf claims about this system are made with cmd/kvload, not ad-hoc
// timings: it drives a named YCSB-style mix — read-heavy (95/5),
// update-heavy (50/50), scan-heavy, hotspot (Zipfian-skewed keys,
// configurable theta) or delete-churn — against an in-process,
// loopback-TCP or deployed cluster, stepping through a client-count
// saturation sweep. Per-op latency lands in fixed-bucket histograms
// (no hot-path allocation; each worker owns its histogram and they
// merge afterwards), and the run is persisted as BENCH_<mix>.json:
// schema version, git revision, date, load-phase rate, and per-step
// throughput plus a p50/p95/p99/p99.9/max table in microseconds —
// latency percentiles, not just means, because saturation tails are
// where scaling regressions show first. Key choice is deterministic
// under a fixed seed (the Zipfian generator is Gray et al.'s
// incremental algorithm, as in YCSB), so two runs of the same rev are
// comparable draw for draw. CI runs the quick mode every push (`make
// bench-workload`), validates the schema and uploads the JSON; the
// committed BENCH_* files form the cross-PR performance trajectory.
// internal/workload is the library behind the binary; anything
// satisfying its Store interface — cluster.Client does — can be
// driven, so tests reuse the same mixes and histograms.
//
// Model-driven design, as in the paper's Section VII:
//
//	sys := scalekv.PaperSystem()
//	keys, pred := sys.OptimalKeys(1_000_000, 16, 100, 100_000)
//	fmt.Println(keys, pred.TotalMs, pred.Bottleneck)
package scalekv
