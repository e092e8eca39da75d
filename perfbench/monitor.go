package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"act"
	"act/internal/deps"
	"act/internal/trace"
	"act/internal/wire"
	"act/internal/workloads"
)

// streamLen is how many distinct correct executions each monitored
// program's stream holds. A pass replays every stream once; later passes
// replay them again on the same long-lived monitors.
const streamLen = 96

// monitorBench feeds long-lived, default-configured act Monitors (float,
// sequential Replay: what actagent ships) with pre-generated streams of
// correct executions. One op is one execution replayed.
type monitorBench struct {
	seed  int64
	progs []*monProgram
	mons  []*act.Monitor // long-lived across untraced passes
}

type monProgram struct {
	name    string
	model   *act.Model
	threads int
	stream  []*trace.Trace
	records int
	// wantDeps is how many dependences a monitor forms over the stream
	// in its first pass and in any later one (a later pass starts with
	// the last writers the previous one left).
	wantDeps [2]uint64
}

// monitoredBugs are the programs the monitor watches: the five Table VI
// kernels, trained with the injected function withheld so that they run
// code the model never saw, and the multi-threaded Table V programs,
// trained on their own code.
func monitoredBugs() (bugs []workloads.Bug, exclude []func(deps.Dep) bool) {
	for _, ib := range workloads.InjectedBugs() {
		p, _ := ib.Gen(0)
		bugs = append(bugs, ib.Bug)
		exclude = append(exclude, ib.NewCodeFilter(p))
	}
	for _, b := range workloads.RealBugs() {
		if b.Threads > 1 {
			bugs = append(bugs, b)
			exclude = append(exclude, nil)
		}
	}
	return bugs, exclude
}

func (m *monitorBench) setup() error {
	bugs, exclude := monitoredBugs()
	m.progs = m.progs[:0]
	for i, b := range bugs {
		var opts []act.TrainOption
		if exclude[i] != nil {
			opts = append(opts, act.WithExclude(exclude[i]))
		}
		model, threads, err := trainModel(b, opts)
		if err != nil {
			return err
		}
		runs, err := workloads.CollectOutcome(b, false, streamLen, 1_000_000+10_000*m.seed)
		if err != nil {
			return err
		}
		p := &monProgram{name: b.Name, model: model, threads: threads, stream: tracesOf(runs)}
		// Count the dependences independently of the monitor, for the
		// per-pass check that it processed every one.
		ext := deps.NewExtractor(deps.ExtractorConfig{N: model.SequenceLength()})
		var n uint64
		ext.OnDep = func(uint16, deps.Dep) { n++ }
		for _, tr := range p.stream {
			p.records += len(tr.Records)
		}
		for pass := range p.wantDeps {
			n = 0
			for _, tr := range p.stream {
				for _, r := range tr.Records {
					if r.Store {
						ext.Store(r.Tid, r.PC, r.Addr, r.Stack)
					} else {
						ext.Load(r.Tid, r.PC, r.Addr, r.Stack)
					}
				}
			}
			p.wantDeps[pass] = n
		}
		m.progs = append(m.progs, p)
	}
	m.mons = nil
	return nil
}

// trainModel trains the model a deployment of b ships with: act.Train's
// defaults on the first three correct executions (two to train on, one
// held out), the same for every workload seed, as a program's test
// suite is. The workload seed picks only the executions monitored. It
// also reports the program's thread count.
func trainModel(b workloads.Bug, opts []act.TrainOption) (*act.Model, int, error) {
	runs, err := workloads.CollectOutcome(b, false, 3, 0)
	if err != nil {
		return nil, 0, err
	}
	trs := tracesOf(runs)
	model, err := act.Train(trs[:2], trs[2:], opts...)
	if err != nil {
		return nil, 0, fmt.Errorf("training %s: %w", b.Name, err)
	}
	return model, runs[0].Program.NumThreads(), nil
}

func (m *monitorBench) pass(fresh bool, rec *recorder) (*passResult, error) {
	res := &passResult{}
	if rec != nil {
		res.layers = layers{}
	}
	from := rec.mark()
	if fresh || m.mons == nil {
		m.mons = make([]*act.Monitor, len(m.progs))
		for i, p := range m.progs {
			s := rec.begin("act.deploy", -1, -1)
			m.mons[i] = act.Deploy(p.model, p.threads)
			rec.end(s)
		}
	}
	h := sha256.New()
	var seqs, invalid uint64
	for i, p := range m.progs {
		mon := m.mons[i]
		before := mon.Stats()
		for _, tr := range p.stream {
			s := rec.begin("core.replay", -1, res.ops)
			t0 := time.Now()
			mon.Replay(tr)
			res.opSecs = append(res.opSecs, time.Since(t0).Seconds())
			rec.end(s)
			res.ops++
		}
		st := mon.Stats()
		want := p.wantDeps[1]
		if before.Deps == 0 {
			want = p.wantDeps[0]
		}
		if got := st.Deps - before.Deps; got != want {
			res.fail("%s: monitor processed %d dependences, the stream has %d", p.name, got, want)
		}
		seqs += st.Sequences - before.Sequences
		invalid += st.PredictedInvalid - before.PredictedInvalid
		res.work += float64(p.records)

		debug := mon.DebugBuffer()
		fmt.Fprintf(h, "%s %d\n", p.name, len(debug))
		var buf []byte
		for _, e := range debug {
			buf = wire.AppendEntry(buf[:0], e)
			h.Write(buf)
		}
		if rec != nil {
			res.layers.addCore(st, len(debug))
		}
	}
	res.quality = 1 - ratio(float64(invalid), float64(seqs))
	res.digest = hex.EncodeToString(h.Sum(nil))
	if rec != nil {
		res.layers.addSelf(rec.selfTimes(from), map[string]string{
			"act.deploy":  "act.deploy_s",
			"core.replay": "core.replay_s",
		})
	}
	return res, nil
}

func (*monitorBench) rate() rateRule { return rateRule{perOp: true, q: 0} }

func (m *monitorBench) describe(first *passResult, rate float64) []string {
	return []string{
		fmt.Sprintf("monitor_rec_per_s %.6g (%d programs, %d executions, %.0f records per pass)",
			rate, len(m.progs), first.ops, first.work),
		fmt.Sprintf("monitor_valid_share %.6g (sequences of correct runs classified valid, first pass)", first.quality),
	}
}
