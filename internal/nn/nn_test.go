package nn

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestSigmoid(t *testing.T) {
	if got := Sigmoid(0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Sigmoid(0) = %v", got)
	}
	if Sigmoid(10) < 0.999 || Sigmoid(-10) > 0.001 {
		t.Error("sigmoid tails wrong")
	}
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		s := Sigmoid(x)
		return s >= 0 && s <= 1 && Sigmoid(-x)+s > 0.999999 && Sigmoid(-x)+s < 1.000001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewTopologyBounds(t *testing.T) {
	for _, bad := range [][2]int{{0, 1}, {1, 0}, {11, 1}, {1, 11}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("topology %v accepted", bad)
				}
			}()
			New(bad[0], bad[1], rand.New(rand.NewSource(1)))
		}()
	}
}

func TestLearnXOR(t *testing.T) {
	// XOR is the classic non-linearly-separable sanity check for a
	// one-hidden-layer backprop implementation.
	samples := []Sample{
		{X: []float64{0.1, 0.1}, Y: 0.1},
		{X: []float64{0.1, 0.9}, Y: 0.9},
		{X: []float64{0.9, 0.1}, Y: 0.9},
		{X: []float64{0.9, 0.9}, Y: 0.1},
	}
	n, res := TrainNew(2, 4, samples, FitConfig{Seed: 3, MaxEpochs: 20000, LearningRate: 0.5, Patience: 20000})
	if miss := Evaluate(n, samples); miss != 0 {
		t.Fatalf("XOR not learned: miss=%v after %d epochs (mse %v)", miss, res.Epochs, res.MSE)
	}
}

func TestLearnPointMemorization(t *testing.T) {
	// The ACT use case: memorize a scatter of "valid" points and reject
	// planted "invalid" points.
	rng := rand.New(rand.NewSource(7))
	var samples []Sample
	for i := 0; i < 12; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		y := TargetInvalid
		if i%2 == 0 {
			y = TargetValid
		}
		samples = append(samples, Sample{X: x, Y: y})
	}
	n, _ := TrainNew(4, 8, samples, FitConfig{Seed: 11, MaxEpochs: 8000, Patience: 8000})
	if miss := Evaluate(n, samples); miss > 0 {
		t.Fatalf("failed to memorize 12 points: miss=%v", miss)
	}
}

func TestFlattenLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := New(6, 7, rng)
	flat := a.Flatten(nil)
	if len(flat) != a.WeightCount() {
		t.Fatalf("flat len %d, want %d", len(flat), a.WeightCount())
	}
	b := New(6, 7, rand.New(rand.NewSource(99)))
	if err := b.LoadFlat(flat); err != nil {
		t.Fatal(err)
	}
	x := []float64{0.1, 0.9, 0.3, 0.7, 0.5, 0.2}
	if a.Forward(x) != b.Forward(x) {
		t.Fatal("loaded network disagrees with source")
	}
	if err := b.LoadFlat(flat[1:]); err == nil {
		t.Fatal("short weight vector accepted")
	}
}

func TestWeightRegisters(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := New(3, 2, rng)
	flat := n.Flatten(nil)
	for i, w := range flat {
		if got := n.ReadRegister(i); got != w {
			t.Fatalf("ReadRegister(%d) = %v, want %v", i, got, w)
		}
	}
	n.WriteRegister(0, 42)
	if n.WH[0][0] != 42 {
		t.Fatal("WriteRegister(0) did not hit WH[0][0]")
	}
	last := n.WeightCount() - 1
	n.WriteRegister(last, -7)
	if n.WO[len(n.WO)-1] != -7 {
		t.Fatal("WriteRegister(last) did not hit output bias")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := New(4, 9, rng)
	blob, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var b Network
	if err := b.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if b.Topology() != a.Topology() {
		t.Fatalf("topology %s, want %s", b.Topology(), a.Topology())
	}
	x := []float64{0.2, 0.4, 0.6, 0.8}
	if math.Abs(a.Forward(x)-b.Forward(x)) > 1e-15 {
		t.Fatal("deserialized network disagrees")
	}
	var c Network
	if err := c.UnmarshalBinary(blob[:10]); err == nil {
		t.Fatal("truncated blob accepted")
	}
	blob[0] = 0xFF // corrupt topology
	if err := c.UnmarshalBinary(blob); err == nil {
		t.Fatal("corrupt topology accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := New(2, 2, rng)
	b := a.Clone()
	x := []float64{0.3, 0.6}
	before := a.Forward(x)
	b.Train(x, 0.9, 0.5)
	if a.Forward(x) != before {
		t.Fatal("training the clone changed the original")
	}
}

func TestTrainMovesTowardTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := New(2, 3, rng)
	x := []float64{0.4, 0.7}
	o0 := n.Forward(x)
	for i := 0; i < 200; i++ {
		n.Train(x, 0.9, 0.2)
	}
	if o1 := n.Forward(x); o1 <= o0 || o1 < 0.8 {
		t.Fatalf("output did not move toward target: %v -> %v", o0, o1)
	}
}

func TestLUT(t *testing.T) {
	l := DefaultLUT()
	if e := l.MaxError(); e > 0.01 {
		t.Fatalf("LUT max error %v too large", e)
	}
	if l.Apply(100) != l.Apply(8) || l.Apply(-100) != l.Apply(-8) {
		t.Error("LUT saturation broken")
	}
	// Coarse tables have larger error than fine ones.
	coarse := NewSigmoidLUT(16, 8)
	if coarse.MaxError() <= l.MaxError() {
		t.Error("coarse LUT unexpectedly at least as accurate as fine LUT")
	}
}

func TestNetworkWithLUTActivation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := New(2, 2, rng)
	exact := n.Forward([]float64{0.5, 0.5})
	n.Act = DefaultLUT().Activation()
	quant := n.Forward([]float64{0.5, 0.5})
	if math.Abs(exact-quant) > 0.05 {
		t.Fatalf("LUT inference diverges: %v vs %v", exact, quant)
	}
}

func TestEvaluateEmpty(t *testing.T) {
	n := New(2, 2, rand.New(rand.NewSource(1)))
	if Evaluate(n, nil) != 0 {
		t.Fatal("empty evaluation should be 0")
	}
}

// xorSamples is the XOR dataset TestLearnXOR uses.
func xorSamples() []Sample {
	return []Sample{
		{X: []float64{0.1, 0.1}, Y: 0.1},
		{X: []float64{0.1, 0.9}, Y: 0.9},
		{X: []float64{0.9, 0.1}, Y: 0.9},
		{X: []float64{0.9, 0.9}, Y: 0.1},
	}
}

// TestTrainRestartMatchesTrainNew checks that restarts trained out of
// order on other goroutines, then chosen by BestRestart, give TrainNew's
// network, and that only the restarts taken are counted.
func TestTrainRestartMatchesTrainNew(t *testing.T) {
	samples := xorSamples()
	cfg := FitConfig{Seed: 5, MaxEpochs: 300, Restarts: 4}
	steps0 := statTrain.Value()
	want, wantRes := TrainNew(2, 3, samples, cfg)
	wantSteps := statTrain.Value() - steps0

	rs := make([]Restart, cfg.RestartCount())
	done := make(chan struct{})
	for r := len(rs) - 1; r >= 0; r-- {
		go func() {
			rs[r] = TrainRestart(2, 3, samples, cfg, r, nil)
			done <- struct{}{}
		}()
	}
	for range rs {
		<-done
	}
	steps0 = statTrain.Value()
	got, gotRes, took := BestRestart(cfg, func(r int) Restart { return rs[r] })
	if gotSteps := statTrain.Value() - steps0; gotSteps != wantSteps {
		t.Errorf("BestRestart counted %d steps, TrainNew %d", gotSteps, wantSteps)
	}
	if gotRes != wantRes {
		t.Errorf("fit %+v, want %+v", gotRes, wantRes)
	}
	var counted int
	for _, r := range rs[:took] {
		counted += r.Fit.Epochs * len(samples)
	}
	if uint64(counted) != wantSteps {
		t.Errorf("%d restarts taken train %d steps, counters say %d", took, counted, wantSteps)
	}
	gw, ww := got.Flatten(nil), want.Flatten(nil)
	for i := range ww {
		if math.Float64bits(gw[i]) != math.Float64bits(ww[i]) {
			t.Fatalf("weight %d: %v, want %v", i, gw[i], ww[i])
		}
	}
}

// TestTrainRestartStops checks that a set stop flag ends a fit before
// its next epoch and that nothing is counted until a restart is taken.
func TestTrainRestartStops(t *testing.T) {
	var stop atomic.Bool
	stop.Store(true)
	steps0, fwd0 := statTrain.Value(), statForward.Value()
	rs := TrainRestart(2, 3, xorSamples(), FitConfig{MaxEpochs: 1 << 30}, 0, &stop)
	if rs.Fit.Epochs != 0 {
		t.Errorf("stopped restart ran %d epochs", rs.Fit.Epochs)
	}
	rs = TrainRestart(2, 3, xorSamples(), FitConfig{MaxEpochs: 10, Patience: 10}, 0, nil)
	if rs.Fit.Epochs != 10 {
		t.Errorf("restart ran %d epochs, want 10", rs.Fit.Epochs)
	}
	if statTrain.Value() != steps0 || statForward.Value() != fwd0 {
		t.Error("TrainRestart counted steps before any restart was taken")
	}
}

// TestNilActIsSigmoid checks that a nil activation is the exact sigmoid.
func TestNilActIsSigmoid(t *testing.T) {
	n := New(3, 4, rand.New(rand.NewSource(2)))
	if n.Act != nil {
		t.Fatal("New installed an activation; nil means the exact sigmoid")
	}
	x := []float64{0.2, 0.7, 0.4}
	got := n.Forward(x)
	n.Act = Sigmoid
	if want := n.Forward(x); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("nil Act output %v, Sigmoid %v", got, want)
	}
}
