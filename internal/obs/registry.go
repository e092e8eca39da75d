package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// metricKind discriminates the registry's metric entries. The type is
// annotated //act:exhaustive so adding a kind forces every switch over
// it — above all the text renderer — to handle the new kind explicitly.
//
//act:exhaustive
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
	kindLabeledGaugeFunc
)

// LabeledValue is one sample of a labeled series: the label value and
// the gauge reading for it. A labeled-gauge sampler returns one per
// member (one per shard, one per breaker, ...).
type LabeledValue struct {
	Label string
	Value float64
}

// metric is one registered series.
type metric struct {
	name, help string
	kind       metricKind
	counter    *Counter
	gauge      *Gauge
	hist       *Histogram
	cfn        func() uint64
	gfn        func() float64
	labelKey   string
	lfn        func() []LabeledValue
}

// Registry is a named set of metrics rendered together in Prometheus
// text format. Registration normally happens once at startup; lookups
// during registration are idempotent, so two packages asking for the
// same counter share it. All methods are safe for concurrent use, and
// WritePrometheus may run concurrently with hot-path updates — values
// are read atomically per series.
type Registry struct {
	mu   sync.Mutex
	byID map[string]*metric // guarded by mu
	all  []*metric          // guarded by mu; registration order
}

// Default is the process-wide registry. Library packages register
// their always-on instruments here at init (act_nn_*, act_fanout_*,
// act_replay_*, …); daemons mount it next to their component-specific
// registries via Handler.
var Default = NewRegistry()

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: make(map[string]*metric)}
}

// validName reports whether name fits the Prometheus series-name
// grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// register installs (or re-finds) a metric. Registering the same name
// with a different kind panics: that is a wiring bug, caught at init.
func (r *Registry) register(m *metric) *metric {
	if !validName(m.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", m.name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.byID[m.name]; ok {
		if prev.kind != m.kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as a different kind", m.name))
		}
		// Func-backed metrics rebind to the newest closure (a daemon
		// re-pointing the gauge at a fresh component); instrument-backed
		// metrics are shared.
		prev.cfn, prev.gfn, prev.lfn = m.cfn, m.gfn, m.lfn
		if m.labelKey != "" {
			prev.labelKey = m.labelKey
		}
		return prev
	}
	r.byID[m.name] = m
	r.all = append(r.all, m)
	return m
}

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name, help string) *Counter {
	m := r.register(&metric{name: name, help: help, kind: kindCounter, counter: &Counter{}})
	return m.counter
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name, help string) *Gauge {
	m := r.register(&metric{name: name, help: help, kind: kindGauge, gauge: &Gauge{}})
	return m.gauge
}

// Histogram returns the histogram registered under name, creating it
// on first use.
func (r *Registry) Histogram(name, help string) *Histogram {
	m := r.register(&metric{name: name, help: help, kind: kindHistogram, hist: &Histogram{}})
	return m.hist
}

// AddHistogram registers an existing histogram instance — the shape
// used by components that own their instrument (a collector's ingest
// span) and expose it on a registry after the fact.
func (r *Registry) AddHistogram(name, help string, h *Histogram) {
	r.register(&metric{name: name, help: help, kind: kindHistogram, hist: h})
}

// CounterFunc registers a counter whose value is sampled from fn at
// scrape time — the zero-hot-path-cost bridge to counters a component
// already keeps (core.Stats, shard.RouterStats). fn must be safe to
// call concurrently. Re-registering a name rebinds it to the new fn.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.register(&metric{name: name, help: help, kind: kindCounterFunc, cfn: fn})
}

// GaugeFunc registers a gauge sampled from fn at scrape time. fn must
// be safe to call concurrently. Re-registering a name rebinds it.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&metric{name: name, help: help, kind: kindGaugeFunc, gfn: fn})
}

// LabeledGaugeFunc registers a gauge family sampled from fn at scrape
// time and rendered one line per returned member as
// name{labelKey="label"} value — how per-shard series (ring breaker
// states, per-shard queue depths) share one metric name. fn must be
// safe to call concurrently; label values are escaped on render.
// Re-registering a name rebinds it to the new fn.
func (r *Registry) LabeledGaugeFunc(name, help, labelKey string, fn func() []LabeledValue) {
	if !validName(labelKey) {
		panic(fmt.Sprintf("obs: invalid label key %q", labelKey))
	}
	r.register(&metric{name: name, help: help, kind: kindLabeledGaugeFunc, labelKey: labelKey, lfn: fn})
}

// snapshotMetrics copies the metric list so rendering runs without the
// registry lock (sampled funcs may themselves take component locks).
func (r *Registry) snapshotMetrics() []*metric {
	r.mu.Lock()
	out := make([]*metric, len(r.all))
	copy(out, r.all)
	r.mu.Unlock()
	return out
}

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (version 0.0.4), sorted by name for deterministic
// scrapes.
func (r *Registry) WritePrometheus(w io.Writer) error {
	metrics := r.snapshotMetrics()
	sort.Slice(metrics, func(i, j int) bool { return metrics[i].name < metrics[j].name })
	for _, m := range metrics {
		if err := writeMetric(w, m); err != nil {
			return err
		}
	}
	return nil
}

func writeMetric(w io.Writer, m *metric) error {
	if m.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help); err != nil {
			return err
		}
	}
	var err error
	switch m.kind {
	case kindCounter:
		_, err = fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", m.name, m.name, m.counter.Value())
	case kindCounterFunc:
		_, err = fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", m.name, m.name, m.cfn())
	case kindGauge:
		_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", m.name, m.name, m.gauge.Value())
	case kindGaugeFunc:
		_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", m.name, m.name, m.gfn())
	case kindLabeledGaugeFunc:
		if _, err = fmt.Fprintf(w, "# TYPE %s gauge\n", m.name); err != nil {
			return err
		}
		for _, lv := range m.lfn() {
			if _, err = fmt.Fprintf(w, "%s{%s=%q} %g\n", m.name, m.labelKey, lv.Label, lv.Value); err != nil {
				return err
			}
		}
	case kindHistogram:
		err = writeHistogram(w, m.name, m.hist.Snapshot())
	}
	return err
}

// writeHistogram renders one histogram with cumulative le buckets. Only
// buckets up to the highest non-empty one are emitted (plus +Inf), so a
// fresh histogram costs one line, not 65.
func writeHistogram(w io.Writer, name string, s HistSnapshot) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	last := -1
	for i, b := range s.Buckets {
		if b > 0 {
			last = i
		}
	}
	var cum uint64
	for i := 0; i <= last && i < HistBuckets-1; i++ {
		cum += s.Buckets[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, BucketUpper(i), cum); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
		name, s.Count, name, s.Sum, name, s.Count)
	return err
}
