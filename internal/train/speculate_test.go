package train

import (
	"runtime"
	"sync/atomic"
	"testing"

	"act/internal/nn"
)

// TestStageAbandonMidFit starts helpers on fits that would run for
// billions of epochs, abandons the stage while they are mid-fit, and
// checks that close returns — every helper has exited — and counts each
// started restart as abandoned.
func TestStageAbandonMidFit(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	samples := []nn.Sample{
		{X: []float64{0.1, 0.1}, Y: 0.1},
		{X: []float64{0.9, 0.9}, Y: 0.9},
	}
	cfg := nn.FitConfig{MaxEpochs: 1 << 30, Patience: 1 << 30, TargetMSE: -1}
	started := make(chan int, 8)
	s := newStage(8, func(k int, stop *atomic.Bool) nn.Restart {
		started <- k
		return nn.TrainRestart(2, 2, samples, cfg, k, stop)
	})
	// Three helpers at GOMAXPROCS=4; each has started one fit.
	for range 3 {
		<-started
	}
	abandoned0 := statAbandoned.Value()
	s.close()
	if got := statAbandoned.Value() - abandoned0; got != 3 {
		t.Errorf("abandoned %d restarts, want the 3 the helpers started", got)
	}
	for k := range s.jobs {
		select {
		case <-s.jobs[k].done:
		default:
			if s.jobs[k].state.Load() != cancelled {
				t.Errorf("job %d neither finished nor cancelled after close", k)
			}
		}
	}
}

// TestStageSequentialAtOneProc checks that at GOMAXPROCS=1 the caller
// runs every job itself, in order, and nothing runs ahead of it.
func TestStageSequentialAtOneProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var order []int
	s := newStage(6, func(k int, _ *atomic.Bool) nn.Restart {
		order = append(order, k)
		return nn.Restart{Fit: nn.FitResult{MSE: 1}}
	})
	for k := range 4 {
		s.take(k)
	}
	s.close()
	if len(order) != 4 {
		t.Fatalf("ran jobs %v, want 0..3 only", order)
	}
	for i, k := range order {
		if k != i {
			t.Fatalf("ran jobs %v, want 0..3 in order", order)
		}
	}
}
