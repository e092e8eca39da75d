// Package train implements ACT's offline training pipeline (Section
// III-B): execution traces from correct runs flow through the input
// generator to become positive and synthesized negative dependence-
// sequence examples, a topology search picks the i-h-1 network with the
// lowest held-out misprediction rate, and the winning weights are
// serialized for embedding in the "program binary". The restarts of
// each stage's fits run ahead of the consumer on every core
// (speculate.go), and the bytes trained are the sequential schedule's.
//
//act:goleak
package train

import (
	"fmt"
	"math/bits"
	"sort"
	"sync/atomic"

	"act/internal/deps"
	"act/internal/nn"
	"act/internal/obs"
	"act/internal/trace"
)

// Offline-training instrumentation on the process-wide registry. Fits
// are seconds-scale, so this is well off any hot path; the span
// histogram gives the topology search a latency distribution.
var (
	statFits = obs.Default.Counter("act_train_fits_total",
		"Candidate and final network fits run by the offline pipeline.")
	statFitNS = obs.Default.Histogram("act_train_fit_ns",
		"Wall time the offline pipeline waited for one network fit, in nanoseconds.")
	statAbandoned = obs.Default.Counter("act_train_fits_abandoned_total",
		"Restarts trained ahead of the offline pipeline that it cancelled or discarded.")
)

// Config controls the offline pipeline.
type Config struct {
	// Ns are the candidate sequence lengths; default 1..5 (bounded by
	// the 5-entry Input Generator Buffer).
	Ns []int
	// Hs are the candidate hidden-layer widths; default 1..10 (bounded
	// by the hardware's M).
	Hs []int
	// Encoder converts sequences to features; default deps.EncodeDefault.
	Encoder deps.Encoder
	// Granularity is the last-writer granule in bytes; default word (8).
	Granularity uint64
	// FilterStack drops stack-addressed records, the paper's load
	// filter. Default off (workload programs address data directly).
	FilterStack bool
	// Exclude, when non-nil, withholds matching dependences from
	// training entirely — sequences containing them and the sampling
	// pools alike (the adaptivity experiments hide a function this way).
	Exclude func(deps.Dep) bool
	// RandomNegatives is the number of sampled wrong-writer negatives
	// per observed sequence (default 1; negative disables sampling,
	// leaving only the paper's before-last-store negatives). Sampling
	// gives the network the PSet-style boundary it needs to reject a
	// buggy dependence whose wrong writer never produced a before-last
	// negative; the ablation bench quantifies the capacity trade-off.
	RandomNegatives int
	// PriorNegatives adds uniform-random feature points labeled invalid
	// (a default-invalid prior for never-observed communication). Zero
	// scales with the positives; negative disables.
	PriorNegatives int
	// SearchFit is the cheap fit used to score candidate topologies.
	SearchFit nn.FitConfig
	// FinalFit is the thorough fit used to train the winner.
	FinalFit nn.FitConfig
	// Seed drives weight initialization and shuffling.
	Seed int64
}

func (c Config) withDefaults() Config {
	if len(c.Ns) == 0 {
		c.Ns = []int{1, 2, 3, 4, 5}
	}
	if len(c.Hs) == 0 {
		c.Hs = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	}
	if c.Encoder == nil {
		c.Encoder = deps.EncodeDefault
	}
	if c.SearchFit == (nn.FitConfig{}) {
		c.SearchFit = nn.FitConfig{MaxEpochs: 600, Seed: c.Seed, Restarts: 2}
	}
	if c.FinalFit == (nn.FitConfig{}) {
		c.FinalFit = nn.FitConfig{MaxEpochs: 6000, Seed: c.Seed, Patience: 800}
	}
	if c.RandomNegatives == 0 {
		c.RandomNegatives = 1
	} else if c.RandomNegatives < 0 {
		c.RandomNegatives = 0
	}
	return c
}

// Trial records one topology-search candidate. Candidates are scored on
// held-out false positives (valid sequences rejected, dynamic-weighted)
// plus false negatives (synthesized invalid sequences accepted): scoring
// only false positives would crown a degenerate always-valid network.
type Trial struct {
	N, Hidden int
	FP        float64
	FN        float64
	Epochs    int
}

// Score is the selection objective (lower is better).
func (t Trial) Score() float64 { return t.FP + t.FN }

// Result is a trained classifier plus the statistics the paper's Table
// IV reports.
type Result struct {
	Net     *nn.Network
	N       int // sequence length feeding the network
	Encoder deps.Encoder

	TrainTraces int
	UniqueDeps  int     // unique dynamic RAW dependences in training
	TotalDeps   int     // total dynamic RAW dependences in training
	Positives   int     // valid training samples (with replication)
	Negatives   int     // invalid training samples
	Mispred     float64 // held-out false positives / dynamic sequences
	MispredPer  float64 // ... as a fraction of total instructions
	FNRate      float64 // held-out synthesized invalid sequences accepted
	Trials      []Trial
	// TrainValid is the set of sequences observed valid during training
	// (at the chosen N); evaluation helpers use it to avoid mislabeling
	// an infrequent-but-valid sequence as a negative.
	TrainValid *deps.SeqSet
}

// Topology renders the chosen topology as "i-h-1".
func (r *Result) Topology() string { return r.Net.Topology() }

// Train runs the full offline pipeline: dataset generation per candidate
// N, topology search scored on the held-out test traces, and a final
// thorough fit of the winning topology.
func Train(trainTraces, testTraces []*trace.Trace, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if len(trainTraces) == 0 {
		return nil, fmt.Errorf("train: no training traces")
	}
	if len(testTraces) == 0 {
		return nil, fmt.Errorf("train: no test traces")
	}

	type perN struct {
		samples []nn.Sample
		test    []weighted
		negs    []weighted
		gen     *deps.Generator
		valid   *deps.SeqSet // sequences observed valid in training
	}
	byN := make(map[int]*perN)
	for _, n := range cfg.Ns {
		ec := deps.ExtractorConfig{N: n, Granularity: cfg.Granularity, FilterStack: cfg.FilterStack}
		gen := deps.NewGeneratorFull(deps.GeneratorConfig{
			Extractor:       ec,
			RandomNegatives: cfg.RandomNegatives,
			PriorNegatives:  cfg.PriorNegatives,
			Seed:            cfg.Seed,
			Exclude:         cfg.Exclude,
		}, cfg.Encoder)
		for _, t := range trainTraces {
			gen.Add(t)
		}
		ds := gen.Dataset()
		p := &perN{gen: gen}
		for _, ex := range ds.Examples {
			y := nn.TargetInvalid
			rep := 1
			if ex.Valid {
				y = nn.TargetValid
				// Dynamically hot sequences are replicated (log-scaled)
				// so the fit prioritizes them: the misprediction rate
				// that matters is dynamic, not per unique sequence.
				rep = min(4, 1+bits.Len(uint(ex.Count))/3)
			}
			for r := 0; r < rep; r++ {
				p.samples = append(p.samples, nn.Sample{X: ex.X, Y: y})
			}
		}
		for _, x := range ds.Prior {
			p.samples = append(p.samples, nn.Sample{X: x, Y: nn.TargetInvalid})
		}
		p.valid = deps.CollectSequences(trainTraces, ec)
		p.test = heldOut(testTraces, ec, cfg.Encoder)
		p.negs = heldOutNegs(testTraces, ec, cfg.Encoder, p.valid)
		byN[n] = p
	}

	// The topology search: every candidate is fit, in order, and the
	// best held-out score wins.
	type candidate struct {
		n, h, in int
		p        *perN
	}
	var cands []candidate
	for _, n := range cfg.Ns {
		p := byN[n]
		if len(p.samples) == 0 {
			continue
		}
		in := deps.InputLen(cfg.Encoder, n)
		if in > nn.MaxInputs {
			continue
		}
		for _, h := range cfg.Hs {
			cands = append(cands, candidate{n: n, h: h, in: in, p: p})
		}
	}
	rs := cfg.SearchFit.RestartCount()
	search := newStage(len(cands)*rs, func(k int, stop *atomic.Bool) nn.Restart {
		c := cands[k/rs]
		return nn.TrainRestart(c.in, c.h, c.p.samples, cfg.SearchFit, k%rs, stop)
	})
	res := &Result{N: 0, Encoder: cfg.Encoder, TrainTraces: len(trainTraces)}
	best := Trial{FP: 2, FN: 2}
	var bestNet *nn.Network
	for i, c := range cands {
		net, fit := search.fit(i*rs, cfg.SearchFit)
		tr := Trial{
			N: c.n, Hidden: c.h, Epochs: fit.Epochs,
			FP: dynamicFPRate(net, c.p.test),
			FN: acceptRate(net, c.p.negs),
		}
		res.Trials = append(res.Trials, tr)
		if tr.Score() < best.Score() || (tr.Score() == best.Score() && cheaper(tr, best)) {
			best = tr
			bestNet = net
		}
	}
	search.close()
	if best.Score() > 2 {
		return nil, fmt.Errorf("train: no viable topology (no sequences formed?)")
	}

	// Final thorough fit of the winner. Hard (XOR-like) datasets can
	// stall at the paper's learning rate; escalate it until the fit
	// classifies its own training set — and never ship a final net that
	// scores worse than the search winner.
	p := byN[best.N]
	in := deps.InputLen(cfg.Encoder, best.N)
	fits := []nn.FitConfig{cfg.FinalFit, cfg.FinalFit, cfg.FinalFit}
	fits[1].LearningRate, fits[2].LearningRate = 0.5, 0.9
	rf := cfg.FinalFit.RestartCount()
	final := newStage(len(fits)*rf, func(k int, stop *atomic.Bool) nn.Restart {
		return nn.TrainRestart(in, best.Hidden, p.samples, fits[k/rf], k%rf, stop)
	})
	net, _ := final.fit(0, fits[0])
	for g := 1; g < len(fits); g++ {
		if nn.Evaluate(net, p.samples) <= 0.02 {
			break
		}
		if alt, _ := final.fit(g*rf, fits[g]); nn.Evaluate(alt, p.samples) < nn.Evaluate(net, p.samples) {
			net = alt
		}
	}
	final.close()
	if finalScore := dynamicFPRate(net, p.test) + acceptRate(net, p.negs); finalScore > best.Score() && bestNet != nil {
		net = bestNet
	}
	res.Net = net
	res.N = best.N
	res.TrainValid = p.valid
	res.UniqueDeps = p.gen.UniqueDeps()
	res.TotalDeps = p.gen.TotalDeps()
	res.Positives, res.Negatives = countLabels(p.samples)
	res.Mispred = dynamicFPRate(net, p.test)
	res.MispredPer = perInstruction(net, p.test, testTraces)
	res.FNRate = acceptRate(net, p.negs)
	sort.Slice(res.Trials, func(i, j int) bool {
		a, b := res.Trials[i], res.Trials[j]
		if a.N != b.N {
			return a.N < b.N
		}
		return a.Hidden < b.Hidden
	})
	return res, nil
}

// cheaper prefers smaller networks on misprediction ties.
func cheaper(a, b Trial) bool {
	return a.Hidden*a.N < b.Hidden*b.N
}

func countLabels(samples []nn.Sample) (pos, neg int) {
	for _, s := range samples {
		if s.Y >= 0.5 {
			pos++
		} else {
			neg++
		}
	}
	return pos, neg
}

// weighted is a held-out valid sequence with its dynamic occurrence
// count: misprediction rates are dynamic, so hot sequences dominate.
type weighted struct {
	x     []float64
	count int
}

// heldOut extracts the valid sequences of the test traces with counts.
func heldOut(traces []*trace.Trace, ec deps.ExtractorConfig, enc deps.Encoder) []weighted {
	ec.TrackPrev = false
	uniq := make(map[string]*weighted)
	for _, t := range traces {
		e := deps.NewExtractor(ec)
		e.OnSequence = func(_ uint16, s deps.Sequence) {
			k := s.Key()
			if w, ok := uniq[k]; ok {
				w.count++
				return
			}
			uniq[k] = &weighted{x: enc(s, nil), count: 1}
		}
		feed(e, t)
	}
	out := make([]weighted, 0, len(uniq))
	for _, w := range uniq {
		out = append(out, *w)
	}
	return out
}

// heldOutNegs synthesizes the invalid (before-last-store) sequences of
// the test traces, excluding any that occur as valid in the test traces
// or in the training set (a sequence seen valid anywhere is not a
// negative, it is just infrequent).
func heldOutNegs(traces []*trace.Trace, ec deps.ExtractorConfig, enc deps.Encoder, trainValid *deps.SeqSet) []weighted {
	valid := deps.CollectSequences(traces, ec)
	ec.TrackPrev = true
	uniq := make(map[string]*weighted)
	for _, t := range traces {
		e := deps.NewExtractor(ec)
		e.OnNegative = func(_ uint16, s deps.Sequence) {
			if valid.Contains(s) || (trainValid != nil && trainValid.Contains(s)) {
				return
			}
			k := s.Key()
			if w, ok := uniq[k]; ok {
				w.count++
				return
			}
			uniq[k] = &weighted{x: enc(s, nil), count: 1}
		}
		feed(e, t)
	}
	out := make([]weighted, 0, len(uniq))
	for _, w := range uniq {
		out = append(out, *w)
	}
	return out
}

// acceptRate returns the dynamic-weighted fraction of sequences the
// network accepts as valid (for invalid inputs this is the FN rate).
func acceptRate(net *nn.Network, set []weighted) float64 {
	var acc, total int
	for _, w := range set {
		total += w.count
		if net.Valid(w.x) {
			acc += w.count
		}
	}
	if total == 0 {
		return 0
	}
	return float64(acc) / float64(total)
}

func feed(e *deps.Extractor, t *trace.Trace) {
	for _, r := range t.Records {
		if r.Store {
			e.Store(r.Tid, r.PC, r.Addr, r.Stack)
		} else {
			e.Load(r.Tid, r.PC, r.Addr, r.Stack)
		}
	}
}

// dynamicFPRate returns mispredicted dynamic occurrences over total
// dynamic occurrences for held-out valid sequences.
func dynamicFPRate(net *nn.Network, test []weighted) float64 {
	var wrong, total int
	for _, w := range test {
		total += w.count
		if !net.Valid(w.x) {
			wrong += w.count
		}
	}
	if total == 0 {
		return 1
	}
	return float64(wrong) / float64(total)
}

// perInstruction normalizes mispredicted dynamic occurrences by total
// executed instructions, the unit Table IV reports.
func perInstruction(net *nn.Network, test []weighted, traces []*trace.Trace) float64 {
	var wrong int
	var steps uint64
	for _, w := range test {
		if !net.Valid(w.x) {
			wrong += w.count
		}
	}
	for _, t := range traces {
		steps += t.Steps
	}
	if steps == 0 {
		return 0
	}
	return float64(wrong) / float64(steps)
}

// FalseNegativeRate measures Figure 7(a): synthesize invalid sequences
// from the test traces (before-last-store substitution) and report the
// fraction the network accepts as valid. A synthesized sequence that
// also occurs as a genuinely valid sequence in the same traces is not an
// invalid sequence at all and is skipped.
func FalseNegativeRate(res *Result, testTraces []*trace.Trace, granularity uint64, filterStack bool) float64 {
	ec := deps.ExtractorConfig{N: res.N, Granularity: granularity, FilterStack: filterStack, TrackPrev: true}
	valid := deps.CollectSequences(testTraces, deps.ExtractorConfig{N: res.N, Granularity: granularity, FilterStack: filterStack})
	var wrong, total int
	for _, t := range testTraces {
		e := deps.NewExtractor(ec)
		e.OnNegative = func(_ uint16, s deps.Sequence) {
			if valid.Contains(s) || (res.TrainValid != nil && res.TrainValid.Contains(s)) {
				return
			}
			total++
			if res.Net.Valid(res.Encoder(s, nil)) {
				wrong++
			}
		}
		feed(e, t)
	}
	if total == 0 {
		return 0
	}
	return float64(wrong) / float64(total)
}
