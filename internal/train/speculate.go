package train

import (
	"runtime"
	"sync"
	"sync/atomic"

	"act/internal/nn"
	"act/internal/obs"
)

// A stage runs the restarts of a sequence of network fits ahead of the
// in-order consumer that picks among them. The jobs are listed in the
// order the sequential schedule would run them. The consumer takes them
// strictly in that order through fit and repeats the sequential
// decisions; every job it would never have started is cancelled. Each
// restart is seeded on its own and only reads the shared samples, so a
// job's result does not depend on where or when it ran, and the trained
// bytes are the sequential schedule's.
//
// The caller runs the job it needs itself when nothing has started it,
// and GOMAXPROCS−1 helpers run later jobs ahead of it; while a helper
// holds the job the caller needs, the caller runs the next unstarted
// one rather than idle. At GOMAXPROCS=1 there are no helpers and the
// stage is the sequential loop.
type stage struct {
	jobs []job
	run  func(k int, stop *atomic.Bool) nn.Restart
	wg   sync.WaitGroup
}

// Job states.
const (
	pending int32 = iota
	started
	cancelled
)

type job struct {
	state atomic.Int32
	stop  atomic.Bool   // set by the consumer; the fit checks it once per epoch
	done  chan struct{} // closed once out is written
	out   nn.Restart
	taken bool // consumed; only the consumer reads and writes it
}

// newStage starts the helpers for n jobs; run trains job k.
func newStage(n int, run func(k int, stop *atomic.Bool) nn.Restart) *stage {
	s := &stage{jobs: make([]job, n), run: run}
	for k := range s.jobs {
		s.jobs[k].done = make(chan struct{})
	}
	for range min(runtime.GOMAXPROCS(0)-1, n-1) {
		s.wg.Add(1)
		go s.help()
	}
	return s
}

// help runs the earliest unstarted job until none is left.
func (s *stage) help() {
	defer s.wg.Done()
	for k := s.claim(); k >= 0; k = s.claim() {
		s.exec(k)
	}
}

// claim starts the earliest pending job and returns its index, or -1.
func (s *stage) claim() int {
	for k := range s.jobs {
		if s.jobs[k].state.CompareAndSwap(pending, started) {
			return k
		}
	}
	return -1
}

func (s *stage) exec(k int) {
	j := &s.jobs[k]
	j.out = s.run(k, &j.stop)
	close(j.done)
}

// take returns job k's restart. Every job before k has been taken or
// cancelled, so if nothing has started k, the earliest unstarted job is
// k and the caller runs it; while a helper runs k, the caller runs later
// jobs rather than idle.
func (s *stage) take(k int) nn.Restart {
	j := &s.jobs[k]
	j.taken = true
	for {
		select {
		case <-j.done:
			return j.out
		default:
		}
		next := s.claim()
		if next < 0 {
			<-j.done
			return j.out
		}
		s.exec(next)
	}
}

// fit consumes one logical fit, the cfg.RestartCount() jobs from first
// on, with TrainNew's choice, and cancels the restarts it does not
// take. It counts the fit and records the wall time the consumer spent
// on it.
func (s *stage) fit(first int, cfg nn.FitConfig) (*nn.Network, nn.FitResult) {
	sp := obs.StartSpan(statFitNS)
	net, res, took := nn.BestRestart(cfg, func(r int) nn.Restart { return s.take(first + r) })
	sp.End()
	statFits.Inc()
	s.cancel(first+took, first+cfg.RestartCount())
	return net, res
}

// cancel cancels jobs [from, to): pending ones never start, running
// ones stop at their next epoch. Every pending job is cancelled before
// any is stopped, so a helper freed by a stop cannot start another.
func (s *stage) cancel(from, to int) {
	for k := from; k < to; k++ {
		s.jobs[k].state.CompareAndSwap(pending, cancelled)
	}
	for k := from; k < to; k++ {
		if j := &s.jobs[k]; j.state.Load() == started {
			j.stop.Store(true)
		}
	}
}

// close cancels every job not consumed, waits for the helpers to exit
// and counts the restarts that ran for nothing.
func (s *stage) close() {
	s.cancel(0, len(s.jobs))
	s.wg.Wait()
	for k := range s.jobs {
		if j := &s.jobs[k]; !j.taken && j.state.Load() == started {
			statAbandoned.Inc()
		}
	}
}
