// Command perfbench is the repository's benchmark: three workloads that
// cover the deployed TCP point path, the HPC ingest path and the paper's
// fan-out query, each built from the public constructors
// (transport.ListenTCP/DialTCP or transport.Network, cluster.StartNode,
// cluster.NewClient), plus a traced mode that splits every request into
// layers from outside the library. It changes no library code.
//
// # Running
//
// From the root of a checkout:
//
//	bash perfbench/run.sh --workload point-tcp --seed 1 --seconds 25 --trace 0
//
// run.sh builds the binary with its Go cache under .bench_build and runs
// it. Every input is generated from --seed. Set-up (boot, data
// generation, load, flush, cache warm) runs before the timer; it is
// repeated at least three times, and until it has taken two seconds, and
// its median is reported as setup_s. The last line of standard
// output is one JSON object: correct, attempted, failed and metrics.
// --out FILE also saves the result with the box it ran on (nproc,
// GOMAXPROCS, Go version, CPU model) and its settings (seed, data sizes,
// cache size, flush settings); `perfbench compare A.json B.json` prints
// the per-metric change and refuses results from different boxes or
// settings. --smoke runs tiny sizes for the package's tests.
//
// # Workloads
//
// All three are closed loops: like HPC ranks and the paper's master,
// each worker waits for a reply before it sends again. The process runs
// with GOMAXPROCS = nproc and at most min(2, nproc) workers.
//
//   - point-tcp: 2 loopback-TCP nodes at rf 1 holding 50k partitions x 4
//     cells x 128 B, preloaded, flushed and read once so reads come from
//     SSTable blocks in the default 64 MB block cache. The workers run the
//     hotspot mix (95% Get / 5% Put, Zipf 0.99) through one
//     cluster.Client. Per-message cost dominates: codec, framing, node
//     dispatch and routing. Every Get is checked against the exact value
//     last written (values carry their cell and write sequence).
//   - ingest-tcp: 2 loopback-TCP nodes at rf 2, WAL on with the default
//     SyncNever policy and a 1 MB memtable flush threshold, so one run
//     goes through many flush and compaction cycles. The workers call
//     d8tree.InsertBatch (MaxLevel 4: 5 cells a particle) on 120-particle
//     chunks of a seeded alya.Simulate stream of 24,000 particles per
//     second of --seconds: fixed work, at least 1000 batches. A writer
//     takes 25 consecutive chunks at a time, and that round is the op:
//     a single call's latency is bimodal, slow when it overlaps a
//     garbage collection cycle, which runs more than half of the time,
//     so its median sits between the modes and jumps from run to run.
//     The storage write path and batched writes do the work; the
//     transport carries few, large frames. Afterwards every node must
//     hold every particle in the level-0 cube.
//   - fanout-count: 4 in-process nodes at rf 1 holding 260k Alya
//     particles indexed by d8tree (1.3M cells) with a 1 MB block cache
//     per node, far below each node's tables. One master runs rounds:
//     Client.CountAll over the d8tree.CubesForBox keys of one box at
//     levels 2, 3 and 4 (27, 125 and 729 keys, a row more at times). The
//     200 boxes are a fixed list, the same for every seed, because a
//     box's cost depends mostly on where it sits in the lung; the
//     particles follow the seed. Coarse levels are bound by the engine;
//     fine levels by the master's per-message send. Every count is
//     checked, per type, against a brute-force count of the generated
//     particles. The transport is the in-process pipe, so a TCP change
//     should read flat.
//
// # End-to-end metrics
//
// The untraced run prints setup_s, max_rss_mb, ops_per_s, cells_per_s,
// op_p50_us, op_tail_us and space_amp for every workload; see endToEnd
// for their definitions. The op is a Get or Put (point-tcp), a round of
// 25 InsertBatch calls (ingest-tcp) or a round of three CountAll queries
// (fanout-count); op_tail_us is p90 (the rounds number a few hundred;
// point-tcp's p99 is too unsteady on a shared box, so it is a report
// line, as are a single InsertBatch call's p50 and p99). A percentile
// is reported only with at least
// ten samples beyond it (otherwise the next lower one is, and the report
// line says which), and failed or wrong-answer ops count as off-scale
// samples. Ops are binned into one-second windows by completion time,
// next to the host's steal time for each window (from /proc/stat). On
// point-tcp, whose windows are interchangeable, each metric is the median
// of the window figures over the windows whose steal share is at most
// the run's median window's (all of them on a quiet host): on a shared
// box a CPU-bound run that loses a quarter of its CPU to other guests
// slows by half. ingest-tcp (fixed
// work) and fanout-count (a fixed box list walked in order) are taken
// whole, since dropping windows would change the work measured. The lines
// above the JSON also give failed_ratio, the windows kept and the steal
// seen, the Get and Put percentiles of point-tcp, the InsertBatch call
// percentiles of ingest-tcp and the per-level medians of fanout-count.
//
// # Traced output
//
// --trace 1 measures the workload untraced, then again on a fresh cluster
// whose codecs (wire.Codec), connections and listeners
// (transport.Conn/Listener) and d8tree store (d8tree.BatchStore) are
// wrapped with timers, and then calls storage.Engine, hashring.Topology
// and Client.CountAll directly. It prints every per-layer metric with
// the end-to-end metric and workload it should move (the layer map in
// layers), and the tracing overhead: traced minus untraced value of each
// end-to-end metric. A span (name, start, end, parent, request ID) is
// kept for every operation, RPC and node stage, up to a cap, and written
// to .bench_build/perfbench-spans-<workload>-<seed>.jsonl; a layer's
// self time is its span minus its children. Node stages are joined to
// the client's RPC by address, connection and correlation ID: queue is
// node Recv to decode start, service is decode end to encode start, and
// wire time is the client's Send→Recv minus the node's Recv→Send.
//
// A workload that does not exercise a layer itself measures it with a
// fixed probe in its traced run: CountAll queries on point-tcp (30, over
// 27, 125 or 729 random partitions) and ingest-tcp (12 boxes at levels 2
// to 4), and 32 traced InsertBatch calls on point-tcp and fanout-count. The master metrics also feed the paper's
// model: core.System's MsgSendMs and the DBModel's linear terms are
// fitted from the stage spans, and model.pred_over_obs_l2/3/4 is
// Predict(elements, keys, nodes).TotalMs over the observed median of
// each level, Figure 8 run against the real cluster.
//
// cmd/kvload and the BENCH_*.json files stay as the historical
// trajectory and are untouched; a perf claim from now on names a metric
// and workload of this benchmark.
package main
