package train

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"testing"

	"act/internal/nn"
	"act/internal/obs"
	"act/internal/trace"
	"act/internal/workloads"
)

// goldenFixture is one training run whose Result and counter deltas are
// pinned by a sha256.
type goldenFixture struct {
	name   string
	traces func(t *testing.T) (train, test []*trace.Trace)
	cfg    Config
	want   string
}

// diagnoseCfg is perfbench's diagnose configuration (actdiag's default).
func diagnoseCfg() Config {
	return Config{
		Ns: []int{2, 3}, Hs: []int{6, 10}, Seed: 1,
		RandomNegatives: 3,
		SearchFit:       nn.FitConfig{MaxEpochs: 400, Seed: 1},
		FinalFit:        nn.FitConfig{MaxEpochs: 6000, Seed: 1, Patience: 800},
	}
}

// once collects a fixture's traces on first use, so that a -run filter
// on the subtests skips the others' collection.
func once(collect func(t *testing.T) (train, test []*trace.Trace)) func(t *testing.T) (train, test []*trace.Trace) {
	var trainTr, testTr []*trace.Trace
	return func(t *testing.T) ([]*trace.Trace, []*trace.Trace) {
		t.Helper()
		if trainTr == nil {
			trainTr, testTr = collect(t)
		}
		return trainTr, testTr
	}
}

// bugRuns returns diagnose.Diagnose's training and test traces of a bug:
// the first 10 of 14 correct runs train, the last 4 test.
func bugRuns(name string) func(t *testing.T) (train, test []*trace.Trace) {
	return once(func(t *testing.T) ([]*trace.Trace, []*trace.Trace) {
		b, err := workloads.BugByName(name)
		if err != nil {
			t.Fatal(err)
		}
		runs, err := workloads.CollectOutcome(b, false, 14, 0)
		if err != nil {
			t.Fatal(err)
		}
		var trs []*trace.Trace
		for _, r := range runs {
			trs = append(trs, r.Trace)
		}
		return trs[:10], trs[10:]
	})
}

func goldenFixtures() []goldenFixture {
	return []goldenFixture{
		// Every final fit runs: three learning rates × three restarts.
		{name: "apache", traces: bugRuns("apache"), cfg: diagnoseCfg(),
			want: "146db1cf9649c5a7e2fc3026f59ba3ce3f2bc7950ea149cbb4b8bf0799d7a733"},
		// Restart 0 reaches TargetMSE, so later restarts are never run.
		{name: "gzip", traces: bugRuns("gzip"), cfg: diagnoseCfg(),
			want: "6cffb382b53e0def1a4538e584adf708f8cee471ab4825502788ac93fde210e5"},
		// act.Train's defaults on a Table IV kernel.
		{name: "fft",
			traces: once(func(t *testing.T) ([]*trace.Trace, []*trace.Trace) {
				return collect(t, "fft", seedsRange(0, 3)), collect(t, "fft", seedsRange(100, 102))
			}),
			cfg:  Config{Ns: []int{1, 2, 3}, Hs: []int{4, 8, 10}, Seed: 1},
			want: "889bcd6d1357bf9a6aa2b7593e3c7f5ad584034de7085d7b063a5b3386a5690b"},
	}
}

// TestTrainGolden pins the trained bytes and the work counted for them
// at GOMAXPROCS 1, 2 and 4: however many fits run concurrently, Train
// must ship the sequential schedule's network and count exactly its
// steps and fits.
func TestTrainGolden(t *testing.T) {
	nnTrain := obs.Default.Counter("act_nn_train_total", "")
	nnForward := obs.Default.Counter("act_nn_forward_total", "")
	for _, fx := range goldenFixtures() {
		for _, procs := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/procs=%d", fx.name, procs), func(t *testing.T) {
				trainTr, testTr := fx.traces(t)
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				steps0, fwd0, fits0, abandoned0 := nnTrain.Value(), nnForward.Value(), statFits.Value(), statAbandoned.Value()
				res, err := Train(trainTr, testTr, fx.cfg)
				if err != nil {
					t.Fatal(err)
				}
				h := sha256.New()
				hashResult(h, res)
				steps, fwd, fits := nnTrain.Value()-steps0, nnForward.Value()-fwd0, statFits.Value()-fits0
				fmt.Fprintf(h, "steps %d forward %d fits %d\n", steps, fwd, fits)
				if got := hex.EncodeToString(h.Sum(nil)); got != fx.want {
					t.Errorf("sha256 %s, want %s (topology %s, %d trials, steps %d, forward %d, fits %d)",
						got, fx.want, res.Topology(), len(res.Trials), steps, fwd, fits)
				}
				if a := statAbandoned.Value() - abandoned0; procs == 1 && a != 0 {
					t.Errorf("%d restarts abandoned at GOMAXPROCS=1, where nothing runs ahead", a)
				}
			})
		}
	}
}

// hashResult writes every trained field of res that decides a
// diagnosis: N, the weights' bits, the search trials, the sample census
// and the held-out rates.
func hashResult(h hash.Hash, res *Result) {
	fmt.Fprintf(h, "N %d topology %s\n", res.N, res.Topology())
	for _, w := range res.Net.Flatten(nil) {
		fmt.Fprintf(h, "%016x\n", math.Float64bits(w))
	}
	for _, tr := range res.Trials {
		fmt.Fprintf(h, "trial %d %d %016x %016x %d\n", tr.N, tr.Hidden,
			math.Float64bits(tr.FP), math.Float64bits(tr.FN), tr.Epochs)
	}
	fmt.Fprintf(h, "pos %d neg %d mispred %016x fn %016x\n", res.Positives, res.Negatives,
		math.Float64bits(res.Mispred), math.Float64bits(res.FNRate))
}
