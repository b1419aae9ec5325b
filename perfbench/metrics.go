package main

import (
	"math"
	"sort"
	"time"

	"scalekv/internal/workload"
)

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// def describes a metric: its unit and which direction is better. For a
// per-layer metric, target names the end-to-end metric it should move
// and workload where it should move it; how says how it is measured.
type def struct {
	name, unit, better string
	target, workload   string
	how                string
}

// endToEnd are the metrics a user of the store sees, printed by every
// workload's untraced run. The op and its tail percentile are the
// workload's own: a Get or Put on point-tcp, a round of one writer's 25
// consecutive InsertBatch calls on ingest-tcp (see ingestTCP for why not
// one call) and a round of three CountAll queries (one box at levels 2,
// 3 and 4) on fanout-count. The tail is p90 on all three. point-tcp's p99
// moved two- to fourfold between runs on a shared 2-vCPU box (178 to
// 709 us over six runs) while its p90 held within 15%, so the bounded
// metric is p90 and the report lines give the Get and Put p99, as they
// give the single InsertBatch call's p50 and p99.
var endToEnd = []def{
	{name: "setup_s", unit: "s", better: "lower", how: "median of the set-up rounds: boot, data generation, load, flush and cache warm"},
	{name: "max_rss_mb", unit: "MiB", better: "lower", how: "peak RSS of the benchmark process, which hosts the cluster too"},
	{name: "ops_per_s", unit: "ops/s", better: "higher", how: "completed ops per second: Get/Put, InsertBatch round or CountAll round"},
	{name: "cells_per_s", unit: "cells/s", better: "higher", how: "cells read or written (counted once, not per replica) or aggregated per second"},
	{name: "op_p50_us", unit: "us", better: "lower", how: "median op latency"},
	{name: "op_tail_us", unit: "us", better: "lower", how: "p90 op latency; failed ops count as off-scale samples"},
	{name: "space_amp", unit: "ratio", better: "lower", how: "on-disk bytes of every replica (SSTables + WAL) / user bytes, after the engines are idle"},
}

// layers is the layer map: every per-layer metric of the traced run,
// with the end-to-end metric and workload it should move. Metrics that a
// workload does not exercise itself come from a fixed probe in that
// workload's traced run (see probe in each workload).
var layers = []def{
	{"wire.encode_ns", "ns", "lower", "ops_per_s, op_p50_us", "point-tcp", "mean wire.Codec.Marshal time, client and nodes"},
	{"wire.decode_ns", "ns", "lower", "ops_per_s, op_p50_us", "point-tcp", "mean wire.Codec.Unmarshal time, client and nodes"},
	{"wire.bytes_per_op", "B", "lower", "cells_per_s", "ingest-tcp", "encoded bytes, both directions, per op"},
	{"transport.frames_per_op", "count", "lower", "ops_per_s", "point-tcp", "frames sent, both directions, per op"},
	{"transport.send_ns", "ns", "lower", "ops_per_s", "point-tcp", "mean time inside transport.Conn.Send"},
	{"transport.wire_us_p50", "us", "lower", "op_p50_us", "point-tcp", "client Send->Recv minus node Recv->Send for one correlation ID"},
	{"transport.wire_us_p99", "us", "lower", "op_tail_us", "point-tcp", "as wire_us_p50, 99th percentile"},
	{"node.queue_us_p50", "us", "lower", "op_tail_us", "point-tcp, ingest-tcp", "node Conn.Recv -> node Codec.Unmarshal start"},
	{"node.service_us_p50", "us", "lower", "op_p50_us", "point-tcp, ingest-tcp", "node Unmarshal end -> Marshal start: dispatch + engine"},
	{"node.service_us_p99", "us", "lower", "op_tail_us", "point-tcp, ingest-tcp", "as service_us_p50, 99th percentile"},
	{"client.self_us_p50", "us", "lower", "op_p50_us", "point-tcp", "client call time minus the union of its frames' Send->Recv"},
	{"client.failovers", "count", "lower", "failed (result line)", "all", "cluster.Client.Failovers delta"},
	{"client.entries_per_rpc", "count", "higher", "cells_per_s", "ingest-tcp", "cells per Put/BatchPut request the client sent"},
	{"master.send_us_per_key", "us", "lower", "op_p50_us (level 4)", "fanout-count", "MasterResult.SendDuration / keys"},
	{"stage.master_to_slaves_us", "us", "lower", "op_p50_us", "fanout-count", "mean MasterToSlave span of MasterResult.Trace"},
	{"stage.in_queue_us", "us", "lower", "op_p50_us", "fanout-count", "mean InQueue span"},
	{"stage.in_db_us", "us", "lower", "op_p50_us", "fanout-count", "mean InDB span"},
	{"stage.slaves_to_master_us", "us", "lower", "op_p50_us", "fanout-count", "mean SlaveToMaster span"},
	{"master.imbalance", "ratio", "lower", "op_tail_us", "fanout-count", "max / mean of OpsPerNode (Formula 1, observed)"},
	{"model.pred_over_obs_l2", "ratio", "lower", "op_p50_us (model check, 1 is exact)", "fanout-count", "core.System.Predict(elements, keys, nodes).TotalMs / observed p50, level-2 (27-key) queries"},
	{"model.pred_over_obs_l3", "ratio", "lower", "op_p50_us (model check, 1 is exact)", "fanout-count", "as _l2, level-3 (125-key) queries"},
	{"model.pred_over_obs_l4", "ratio", "lower", "op_p50_us (model check, 1 is exact)", "fanout-count", "as _l2, level-4 (729-key) queries"},
	{"hashring.route_ns", "ns", "lower", "ops_per_s", "point-tcp", "direct Topology.Primary + Replicas call on the workload's keys"},
	{"d8tree.self_us_per_batch", "us", "lower", "op_p50_us", "ingest-tcp", "InsertBatch time minus its wrapped PutBatch time"},
	{"storage.flushes", "count", "lower", "cells_per_s, op_tail_us", "ingest-tcp", "memtable flushes since the cluster booted, all nodes"},
	{"storage.compactions", "count", "lower", "cells_per_s, op_tail_us", "ingest-tcp", "compactions since the cluster booted, all nodes"},
	{"storage.compaction_mb_per_s", "MB/s", "lower", "cells_per_s, op_tail_us", "ingest-tcp", "compaction output bytes per second of the measured phase"},
	{"storage.frozen_memtables_max", "count", "lower", "op_tail_us", "ingest-tcp", "most frozen memtables seen (20 ms sampling)"},
	{"storage.l0_tables_max", "count", "lower", "op_tail_us", "ingest-tcp", "most L0 tables seen (20 ms sampling)"},
	{"storage.write_amp", "ratio", "lower", "space_amp, cells_per_s", "ingest-tcp", "(flushed + compaction-out bytes) / user bytes written since boot"},
	{"storage.get_ns", "ns", "lower", "op_p50_us", "point-tcp", "direct storage.Engine.Get on the workload's cells"},
	{"storage.aggregate_ns_per_cell", "ns", "lower", "cells_per_s", "fanout-count", "direct Engine.AggregatePartition time per cell"},
	{"sstable.cache_hit_ratio", "ratio", "higher", "op_p50_us", "fanout-count", "block cache hits / (hits + misses) in the measured phase"},
	{"sstable.cache_hits", "count", "higher", "op_p50_us", "fanout-count", "block cache hits in the measured phase"},
	{"sstable.cache_misses", "count", "lower", "op_p50_us", "fanout-count", "block cache misses in the measured phase"},
	{"sstable.cache_evictions", "count", "lower", "op_p50_us", "fanout-count", "block cache evictions in the measured phase"},
	{"sstable.compression_ratio", "ratio", "lower", "space_amp", "ingest-tcp", "stored / logical data-block bytes written since boot"},
	{"runtime.allocs_per_op", "count", "lower", "ops_per_s, max_rss_mb", "point-tcp", "heap allocations per op, whole process"},
	{"runtime.cpu_ms_per_kop", "ms", "lower", "ops_per_s", "point-tcp", "process user + system CPU per thousand ops"},
	{"runtime.gc_pause_ms", "ms", "lower", "op_tail_us", "point-tcp, ingest-tcp", "total GC stop-the-world pause in the measured phase"},
}

// overheadDefs are the traced-minus-untraced value of every end-to-end
// metric, printed by the traced run.
func overheadDefs() []def {
	out := make([]def, len(endToEnd))
	for i, d := range endToEnd {
		out[i] = def{name: "overhead." + d.name, unit: d.unit, better: d.better, target: d.name, workload: "all",
			how: "traced minus untraced " + d.name}
	}
	return out
}

// perLayer is every metric the traced run prints.
func perLayer() []def { return append(append([]def(nil), layers...), overheadDefs()...) }

// tailQuantile picks the highest percentile, at most want, with at
// least ten samples beyond it.
func tailQuantile(want float64, samples int64) float64 {
	for _, q := range []float64{want, 99, 95, 90, 75, 50} {
		if q <= want && float64(samples)*(1-q/100) >= 10 {
			return q
		}
	}
	return 50
}

// percentile reads quantile q from the successful ops' histogram with
// failed ops counted as off-scale samples above every success: a rank
// that falls among them reports offScale.
func percentile(h *workload.Histogram, failed int64, q float64, offScale time.Duration) time.Duration {
	n := int64(h.Count())
	if n == 0 {
		return offScale
	}
	adj := q * float64(n+failed) / float64(n)
	if adj > 100 {
		return offScale
	}
	return h.Percentile(adj)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// finite maps NaN and infinities, which JSON cannot carry, to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
