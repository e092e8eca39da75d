package fleet

import "act/internal/obs"

// RegisterMetrics exposes the collector's activity on r as
// act_collector_* series, sampled at scrape time, plus the live ingest
// span histogram. The collector already counts under its own lock
// (CollectorStats), so instrumented daemons pay nothing on the ingest
// path beyond the ingest span.
func (c *Collector) RegisterMetrics(r *obs.Registry) {
	r.CounterFunc("act_collector_conns_total",
		"Agent connections accepted.",
		func() uint64 { return c.Stats().Conns })
	r.CounterFunc("act_collector_rejected_total",
		"Connections refused at the MaxConns cap.",
		func() uint64 { return c.Stats().Rejected })
	r.CounterFunc("act_collector_batches_total",
		"Batches ingested into the aggregate.",
		func() uint64 { return c.Stats().Batches })
	r.CounterFunc("act_collector_dup_batches_total",
		"Redelivered batches dropped by dedup.",
		func() uint64 { return c.Stats().DupBatches })
	r.CounterFunc("act_collector_entries_total",
		"Debug Buffer entries ingested before per-run dedup.",
		func() uint64 { return c.Stats().Entries })
	r.CounterFunc("act_collector_bad_spans_total",
		"Corrupt spans skipped across all connections.",
		func() uint64 { return c.Stats().BadSpans })
	r.CounterFunc("act_collector_skipped_bytes_total",
		"Bytes discarded while resynchronizing corrupt streams.",
		func() uint64 { return c.Stats().SkippedBytes })
	r.GaugeFunc("act_collector_sequences",
		"Distinct dependence sequences aggregated.",
		func() float64 { return float64(c.Sequences()) })
	r.GaugeFunc("act_collector_runs",
		"Distinct runs seen, decided or not.",
		func() float64 { return float64(c.Runs()) })
	r.AddHistogram("act_collector_ingest_ns",
		"Duration of one batch merge in nanoseconds.", &c.ingestNS)
}
