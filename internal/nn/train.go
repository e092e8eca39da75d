package nn

import (
	"math/rand"
	"sync/atomic"
)

// Sample is one labelled training input.
type Sample struct {
	X []float64
	Y float64 // training target, typically 0.9 (valid) or 0.1 (invalid)
}

// Targets used when converting boolean labels to regression targets.
// Training toward 0.9/0.1 rather than 1/0 keeps the sigmoid out of its
// flat tails, the standard trick for backprop convergence.
const (
	TargetValid   = 0.9
	TargetInvalid = 0.1
)

// FitConfig controls offline training.
type FitConfig struct {
	LearningRate float64 // default 0.2, the paper's value
	MaxEpochs    int     // default 500
	TargetMSE    float64 // stop when epoch MSE falls below; default 0.005
	Seed         int64   // shuffling and weight init
	Patience     int     // epochs without improvement before stopping; default 50
	Momentum     float64 // classical momentum; default 0.9 (negative disables)
	Restarts     int     // random-init restarts in TrainNew; default 3
}

func (c FitConfig) withDefaults() FitConfig {
	if c.LearningRate == 0 {
		c.LearningRate = 0.2
	}
	if c.MaxEpochs == 0 {
		c.MaxEpochs = 500
	}
	if c.TargetMSE == 0 {
		c.TargetMSE = 0.005
	}
	if c.Patience == 0 {
		c.Patience = 50
	}
	if c.Momentum == 0 {
		c.Momentum = 0.9
	}
	// Negative momentum means "disabled"; the sentinel is preserved here
	// so withDefaults stays idempotent, and mapped to 0 at point of use.
	if c.Restarts == 0 {
		c.Restarts = 3
	}
	return c
}

// FitResult reports how training went.
type FitResult struct {
	Epochs int
	MSE    float64
}

// Fit trains the network on the samples with epoch-shuffled stochastic
// backpropagation until the MSE target, patience, or epoch budget is
// reached.
func Fit(n *Network, samples []Sample, cfg FitConfig) FitResult {
	res := fit(n, samples, cfg.withDefaults(), nil)
	countSteps(res.Epochs * len(samples))
	return res
}

// fit is Fit without the counters, which the caller adds for the fits
// it keeps. It gives up before the next epoch once stop is set (nil
// never stops); a stopped fit's network is unfinished.
func fit(n *Network, samples []Sample, cfg FitConfig, stop *atomic.Bool) FitResult {
	n.Momentum = max(0, cfg.Momentum)
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}
	best := 1e18
	stale := 0
	res := FitResult{MSE: 1}
	for epoch := 1; epoch <= cfg.MaxEpochs; epoch++ {
		if stop != nil && stop.Load() {
			break
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var sse float64
		for _, i := range order {
			s := samples[i]
			o := n.step(s.X, s.Y, cfg.LearningRate)
			d := s.Y - o
			sse += d * d
		}
		mse := sse / float64(max(1, len(samples)))
		res.Epochs, res.MSE = epoch, mse
		if mse < cfg.TargetMSE {
			break
		}
		if mse < best-1e-6 {
			best, stale = mse, 0
		} else if stale++; stale >= cfg.Patience {
			break
		}
	}
	return res
}

// countSteps adds steps backpropagation steps, each with its forward
// pass, to the network counters.
func countSteps(steps int) {
	statTrain.Add(uint64(steps))
	statForward.Add(uint64(steps))
}

// Evaluate returns the fraction of samples the network misclassifies
// (output ≥ 0.5 counts as valid; a sample is positive when Y ≥ 0.5).
func Evaluate(n *Network, samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	wrong := 0
	for _, s := range samples {
		if n.Valid(s.X) != (s.Y >= 0.5) {
			wrong++
		}
	}
	return float64(wrong) / float64(len(samples))
}

// TrainNew builds a network of the given topology and fits it with
// random-restart: the best of Restarts independent initializations (by
// final MSE) wins. Restarts stop early once a fit reaches the MSE
// target.
func TrainNew(nIn, nHidden int, samples []Sample, cfg FitConfig) (*Network, FitResult) {
	net, res, _ := BestRestart(cfg, func(r int) Restart {
		return TrainRestart(nIn, nHidden, samples, cfg, r, nil)
	})
	return net, res
}

// Restart is one random-init restart of TrainNew, trained but not yet
// counted: BestRestart counts the restarts it takes.
type Restart struct {
	Net   *Network
	Fit   FitResult
	steps int
}

// TrainRestart runs restart r of TrainNew(nIn, nHidden, samples, cfg):
// its own seed, initialization and fit, so restarts may run in any
// order and on any goroutine. The samples are only read. The fit gives
// up before its next epoch once stop is set (nil never stops); a
// stopped restart must be discarded.
func TrainRestart(nIn, nHidden int, samples []Sample, cfg FitConfig, r int, stop *atomic.Bool) Restart {
	cfg = cfg.withDefaults()
	seed := cfg.Seed + int64(nIn)*1000 + int64(nHidden) + int64(r)*7_777_777
	n := New(nIn, nHidden, rand.New(rand.NewSource(seed)))
	cfg.Seed = seed
	res := fit(n, samples, cfg, stop)
	return Restart{Net: n, Fit: res, steps: res.Epochs * len(samples)}
}

// BestRestart is TrainNew's choice over restarts that next produces in
// order r = 0, 1, ...: the lowest final MSE wins, and no further restart
// is taken once the best reaches the MSE target. It counts the work of
// every restart it takes and returns how many it took; the caller
// discards any restart beyond them.
func BestRestart(cfg FitConfig, next func(r int) Restart) (*Network, FitResult, int) {
	cfg = cfg.withDefaults()
	var bestNet *Network
	var best FitResult
	best.MSE = 1e18
	for r := 0; r < cfg.Restarts; r++ {
		rs := next(r)
		countSteps(rs.steps)
		if rs.Fit.MSE < best.MSE {
			bestNet, best = rs.Net, rs.Fit
		}
		if best.MSE < cfg.TargetMSE {
			return bestNet, best, r + 1
		}
	}
	return bestNet, best, cfg.Restarts
}

// RestartCount returns the most restarts TrainNew runs under c.
func (c FitConfig) RestartCount() int { return c.withDefaults().Restarts }
