package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"

	"act/internal/core"
	"act/internal/obs"
)

// Process-wide series the program already keeps on obs.Default. Looking
// a series up registers it if its package has not yet; the registry
// hands both sides the same instrument either way.
var (
	fitNS        = obs.Default.Histogram("act_train_fit_ns", "")
	fitsTotal    = obs.Default.Counter("act_train_fits_total", "")
	nnTrain      = obs.Default.Counter("act_nn_train_total", "")
	nnForward    = obs.Default.Counter("act_nn_forward_total", "")
	replayNodeNS = obs.Default.Histogram("act_pipeline_extract_ns", "")
	rankNodeNS   = obs.Default.Histogram("act_pipeline_rank_ns", "")
	rcaNodeNS    = obs.Default.Histogram("act_pipeline_rca_ns", "")
)

// globals is a reading of the process-wide series and runtime counters,
// taken before and after a pass; their differences are the pass's share.
type globals struct {
	fitNS, fits, backprop, forward uint64
	replayNS, rankNS, rcaNS        uint64
	alloc, gcs                     uint64
}

func readGlobals() globals {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return globals{
		fitNS:    fitNS.Snapshot().Sum,
		fits:     fitsTotal.Value(),
		backprop: nnTrain.Value(),
		forward:  nnForward.Value(),
		replayNS: replayNodeNS.Snapshot().Sum,
		rankNS:   rankNodeNS.Snapshot().Sum,
		rcaNS:    rcaNodeNS.Snapshot().Sum,
		alloc:    ms.TotalAlloc,
		gcs:      uint64(ms.NumGC),
	}
}

// layers is one pass's per-layer metrics by name.
type layers map[string]float64

// addGlobals records the differences between two readings.
func (l layers) addGlobals(a, b globals) {
	l["nn.fit_s"] = float64(b.fitNS-a.fitNS) / 1e9
	l["nn.fits"] = float64(b.fits - a.fits)
	l["nn.backprop_samples"] = float64(b.backprop - a.backprop)
	l["nn.forward"] = float64(b.forward - a.forward)
	l["pipeline.replay_s"] = float64(b.replayNS-a.replayNS) / 1e9
	l["pipeline.rank_s"] = float64(b.rankNS-a.rankNS) / 1e9
	l["pipeline.rca_s"] = float64(b.rcaNS-a.rcaNS) / 1e9
	l["runtime.alloc_mb"] = float64(b.alloc-a.alloc) / (1 << 20)
	l["runtime.gc_cycles"] = float64(b.gcs - a.gcs)
}

// addSelf records self times of the given span names under metric names.
func (l layers) addSelf(self map[string]time.Duration, names map[string]string) {
	for span, metric := range names {
		l[metric] += self[span].Seconds()
	}
}

// addCore adds a tracker's counters and its Debug Buffer's length.
func (l layers) addCore(st core.Stats, debugEntries int) {
	l["core.deps"] += float64(st.Deps)
	l["core.sequences"] += float64(st.Sequences)
	l["core.predicted_invalid"] += float64(st.PredictedInvalid)
	l["core.training_deps"] += float64(st.TrainingDeps)
	l["core.updates"] += float64(st.Updates)
	l["core.mode_switches"] += float64(st.ModeSwitches)
	l["core.snapshots"] += float64(st.Snapshots)
	l["core.recoveries"] += float64(st.Recoveries)
	l["core.cache_hits"] += float64(st.CacheHits)
	l["core.cache_misses"] += float64(st.CacheMisses)
	l["core.debug_entries"] += float64(debugEntries)
}

// finishRatios derives the ratios, and train.dataset_s, from the totals.
func (l layers) finishRatios() {
	l["core.training_share"] = ratio(l["core.training_deps"], l["core.deps"])
	l["core.ns_per_dep"] = ratio(l["core.replay_s"]*1e9, l["core.deps"])
	l["shard.shipped_per_attempt"] = ratio(l["shard.shipped"], l["shard.ship_attempts"])
	l["train.dataset_s"] = l["train.train_self_s"] - l["nn.fit_s"]
	delete(l, "train.train_self_s")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile returns the q-quantile of xs, interpolating between the two
// nearest ranks; quantile(xs, 0.5) is the median.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[i]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
