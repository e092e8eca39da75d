package shard

import "act/internal/obs"

// Metrics bridges: the router and rollup count activity under their own
// locks; these helpers expose the counters as scrape-time samples, so
// the routing and merge paths carry no per-event metric cost.

// RegisterMetrics exposes the router's activity on r as act_router_*
// series, including the ring topology and each shard's breaker state
// (act_router_breaker_state{shard="..."}: 0 closed, 1 open, 2
// half-open).
func (rt *Router) RegisterMetrics(r *obs.Registry) {
	RegisterRouterMetrics(r, func() *Router { return rt })
}

// RegisterRouterMetrics is the indirected form for callers whose router
// instance changes over the process lifetime (actagent builds one per
// shipped run): the getter is consulted at scrape time, and nil reads
// as all-zero.
func RegisterRouterMetrics(r *obs.Registry, get func() *Router) {
	stats := func() RouterStats {
		if rt := get(); rt != nil {
			return rt.Stats()
		}
		return RouterStats{}
	}
	r.CounterFunc("act_router_drained_total",
		"Debug Buffer entries drained from the monitored source.",
		func() uint64 { return stats().Drained })
	r.CounterFunc("act_router_batches_total",
		"Batches formed across all shard lanes.",
		func() uint64 { return stats().Batches })
	r.CounterFunc("act_router_shipped_total",
		"Batches delivered to some shard.",
		func() uint64 { return stats().Shipped })
	r.CounterFunc("act_router_spooled_total",
		"Batches written to lane spool files.",
		func() uint64 { return stats().Spooled })
	r.CounterFunc("act_router_replayed_total",
		"Spooled batches re-shipped.",
		func() uint64 { return stats().Replayed })
	r.CounterFunc("act_router_dropped_batches_total",
		"Batches lost to lane queue backpressure.",
		func() uint64 { return stats().DroppedBatches })
	r.CounterFunc("act_router_spool_drops_total",
		"Spool resets after exceeding the size cap.",
		func() uint64 { return stats().SpoolDrops })
	r.CounterFunc("act_router_dials_total",
		"Shard connection (re)establishments.",
		func() uint64 { return stats().Dials })
	r.CounterFunc("act_router_ship_attempts_total",
		"Delivery attempts including retries.",
		func() uint64 { return stats().ShipAttempts })
	r.CounterFunc("act_router_reroutes_total",
		"Lane deliveries that failed over to a ring successor.",
		func() uint64 { return stats().Reroutes })
	r.CounterFunc("act_router_unrouted_total",
		"Lane deliveries that found no reachable shard.",
		func() uint64 { return stats().Unrouted })
	r.CounterFunc("act_router_dial_failures_total",
		"Delivery attempts that failed connecting to a shard.",
		func() uint64 { return stats().DialFailures })
	r.CounterFunc("act_router_timeout_failures_total",
		"Delivery attempts that failed on a deadline.",
		func() uint64 { return stats().TimeoutFails })
	r.CounterFunc("act_router_write_failures_total",
		"Delivery attempts that failed mid-write.",
		func() uint64 { return stats().WriteFails })
	r.CounterFunc("act_router_spool_bad_spans_total",
		"Corrupt spans skipped while replaying lane spools.",
		func() uint64 { return stats().SpoolBadSpans })
	r.CounterFunc("act_router_spool_skipped_bytes_total",
		"Bytes discarded while resynchronizing damaged lane spools.",
		func() uint64 { return stats().SpoolSkippedBytes })
	r.GaugeFunc("act_router_queue_depth",
		"Batches waiting across all lane queues.",
		func() float64 {
			if rt := get(); rt != nil {
				return float64(rt.QueueDepth())
			}
			return 0
		})
	r.GaugeFunc("act_router_spool_bytes",
		"Total size of all lane spool files.",
		func() float64 {
			if rt := get(); rt != nil {
				return float64(rt.SpoolBytes())
			}
			return 0
		})
	r.GaugeFunc("act_router_ring_shards",
		"Shards in the routing ring.",
		func() float64 {
			if rt := get(); rt != nil {
				return float64(rt.ring.Len())
			}
			return 0
		})
	r.LabeledGaugeFunc("act_router_breaker_state",
		"Per-shard circuit breaker position: 0 closed, 1 open, 2 half-open.",
		"shard",
		func() []obs.LabeledValue {
			rt := get()
			if rt == nil {
				return nil
			}
			out := make([]obs.LabeledValue, 0, len(rt.lanes))
			for _, ln := range rt.lanes {
				out = append(out, obs.LabeledValue{
					Label: ln.name,
					Value: float64(ln.breaker.State()),
				})
			}
			return out
		})
}

// RegisterMetrics exposes the rollup's merge progress on r as
// act_rollup_* series, alongside the merged collector's own
// act_collector_* series.
func (ru *Rollup) RegisterMetrics(r *obs.Registry) {
	ru.c.RegisterMetrics(r)
	r.GaugeFunc("act_rollup_shards_expected",
		"Shards expected to report state.",
		func() float64 { return float64(len(ru.cfg.Expected)) })
	r.GaugeFunc("act_rollup_shards_merged",
		"Shards whose state has merged cleanly.",
		func() float64 { return float64(ru.MergedShards()) })
	r.GaugeFunc("act_rollup_completeness",
		"Merged / expected shards (1 when nothing is expected).",
		func() float64 { return ru.Completeness() })
	r.LabeledGaugeFunc("act_rollup_shard_merged",
		"Per-shard merge status: 1 merged, 0 missing or damaged.",
		"shard",
		func() []obs.LabeledValue {
			return ru.shardMergeSamples()
		})
}
