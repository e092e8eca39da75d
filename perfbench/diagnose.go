package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"act/internal/core"
	"act/internal/deps"
	"act/internal/diagnose"
	"act/internal/nn"
	"act/internal/pipeline/stages"
	"act/internal/rca"
	"act/internal/trace"
	"act/internal/train"
	"act/internal/workloads"
)

// diagnoseBench diagnoses each of the eleven Table V bugs in turn with
// actdiag's default configuration, training seed 1 included; the
// workload seed picks the failures diagnosed. One op is one bug. Every
// pass repeats the same diagnoses, and traced runs mirror
// diagnose.Diagnose call for call.
//
// The training seed does not follow the workload seed because training
// time has a long tail over seeds: across seeds one bug's diagnosis took
// from 3 to 16 s, so with seed-derived training a run would time the
// seeds' luck more than the program.
type diagnoseBench struct {
	seed int64
	bugs []workloads.Bug
	// ref holds each bug's ranked-report and RCA bytes from the first
	// pass, which every later pass, and the traced mirror, must
	// reproduce.
	ref map[string][2][]byte
}

// config is actdiag's default (non -full) configuration, with the
// failure seed base taken from the workload seed. MaxFailures is
// diagnose's default, spelled out because the mirror needs it too.
func (d *diagnoseBench) config() diagnose.Config {
	return diagnose.Config{
		TrainRuns: 10, TestRuns: 4, CorrectSetRuns: 15, MaxFailures: 3,
		FailSeedBase: 100_000 + 1000*d.seed,
		Train: train.Config{
			Ns: []int{2, 3}, Hs: []int{6, 10}, Seed: 1,
			RandomNegatives: 3,
			SearchFit:       nn.FitConfig{MaxEpochs: 400, Seed: 1},
			FinalFit:        nn.FitConfig{MaxEpochs: 6000, Seed: 1, Patience: 800},
		},
	}
}

// setup lists the bugs and checks that each fails from the failure seed
// base, so that no op fails for want of a failure to diagnose. The
// runs diagnose.Diagnose trains on are collected inside it: collecting
// them is part of the diagnosis a developer waits for.
func (d *diagnoseBench) setup() error {
	d.bugs = workloads.RealBugs()
	d.ref = make(map[string][2][]byte)
	base := d.config().FailSeedBase
	for _, b := range d.bugs {
		if _, err := workloads.CollectOutcome(b, true, 1, base); err != nil {
			return err
		}
	}
	return nil
}

// diagnosis is what one bug's diagnosis produced.
type diagnosis struct {
	failSeed    int64
	rank        int
	report, rca []byte
}

func (d *diagnoseBench) pass(_ bool, rec *recorder) (*passResult, error) {
	cfg := d.config()
	res := &passResult{work: float64(len(d.bugs))}
	if rec != nil {
		res.layers = layers{}
	}
	from := rec.mark()
	h := sha256.New()
	found, top := 0, 0
	for op, b := range d.bugs {
		res.ops++
		var out *diagnosis
		var err error
		t0 := time.Now()
		if rec == nil {
			out, err = runDiagnose(b, cfg)
		} else {
			out, err = mirrorDiagnose(b, cfg, rec, op, res.layers)
		}
		res.opSecs = append(res.opSecs, time.Since(t0).Seconds())
		if err != nil {
			res.fail("%s: %v", b.Name, err)
			continue
		}
		ref, ok := d.ref[b.Name]
		switch {
		case !ok && rec == nil:
			d.ref[b.Name] = [2][]byte{out.report, out.rca}
		case !ok:
			res.fail("%s: no diagnose.Diagnose output to check the traced mirror against", b.Name)
			continue
		case !bytes.Equal(ref[0], out.report) || !bytes.Equal(ref[1], out.rca):
			what := "a repeated diagnose.Diagnose"
			if rec != nil {
				what = "the traced call-for-call mirror"
			}
			res.fail("%s: %s ranked or explained differently from the first diagnosis", b.Name, what)
			continue
		}
		if out.rank > 0 {
			found++
		}
		if out.rank == 1 {
			top++
		}
		fmt.Fprintf(h, "%s fail=%d rank=%d\n", b.Name, out.failSeed, out.rank)
		h.Write(out.report)
		h.Write(out.rca)
	}
	n := float64(len(d.bugs))
	res.quality, res.top1 = float64(found)/n, float64(top)/n
	res.digest = hex.EncodeToString(h.Sum(nil))
	if rec != nil {
		res.layers.addSelf(rec.selfTimes(from), diagnoseSpans)
	}
	return res, nil
}

func (*diagnoseBench) rate() rateRule { return rateRule{perOp: true, q: 0.5} }

func (d *diagnoseBench) describe(first *passResult, rate float64) []string {
	return []string{
		fmt.Sprintf("diagnose_s %.6g s (wall time for the %d Table V bugs, each bug's median over passes)", first.work/rate, len(d.bugs)),
		fmt.Sprintf("diagnose_found %.6g", first.quality),
		fmt.Sprintf("diagnose_top1 %.6g", first.top1),
	}
}

// runDiagnose is the unit of work: diagnose.Diagnose, checked.
func runDiagnose(b workloads.Bug, cfg diagnose.Config) (*diagnosis, error) {
	out, err := diagnose.Diagnose(b, cfg)
	if err != nil {
		return nil, err
	}
	p, _ := b.Gen(out.FailSeed)
	if got := out.Report.RankOf(b.Matcher(p)); got != out.Rank {
		return nil, fmt.Errorf("reported rank %d, report ranks the root cause %d", out.Rank, got)
	}
	return encodeDiagnosis(out.FailSeed, out.Rank, out.Report.AppendReport(nil), out.RCA)
}

func encodeDiagnosis(failSeed int64, rank int, report []byte, verdicts *rca.Report) (*diagnosis, error) {
	var buf bytes.Buffer
	if err := verdicts.Save(&buf); err != nil {
		return nil, fmt.Errorf("encoding verdicts: %w", err)
	}
	return &diagnosis{failSeed: failSeed, rank: rank, report: report, rca: buf.Bytes()}, nil
}

// mirrorDiagnose repeats diagnose.Diagnose call for call with a span
// around each layer call, so the traced run attributes the diagnosis's
// time without changing the program. Its outputs must match
// diagnose.Diagnose's byte for byte.
func mirrorDiagnose(b workloads.Bug, cfg diagnose.Config, rec *recorder, op int, l layers) (*diagnosis, error) {
	root := rec.begin("diagnose.bug", -1, op)
	defer rec.end(root)
	collect := func(wantFail bool, n int, base int64) ([]workloads.Run, error) {
		s := rec.begin("workloads.collect", root, op)
		runs, err := workloads.CollectOutcome(b, wantFail, n, base)
		rec.end(s)
		l["workloads.runs"] += float64(len(runs))
		return runs, err
	}

	correct, err := collect(false, cfg.TrainRuns+cfg.TestRuns, 0)
	if err != nil {
		return nil, err
	}
	tc := cfg.Train
	tc.Exclude = cfg.Exclude
	s := rec.begin("train.train", root, op)
	tr, err := train.Train(tracesOf(correct[:cfg.TrainRuns]), tracesOf(correct[cfg.TrainRuns:]), tc)
	rec.end(s)
	if err != nil {
		return nil, err
	}

	pruneRuns, err := collect(false, cfg.CorrectSetRuns, 50_000)
	if err != nil {
		return nil, err
	}
	s = rec.begin("deps.correct_set", root, op)
	correctSet := deps.CollectSequences(tracesOf(pruneRuns), deps.ExtractorConfig{N: tr.N})
	rec.end(s)
	l["deps.correct_set_seqs"] += float64(correctSet.Len())

	var out *diagnosis
	seedBase := cfg.FailSeedBase
	for attempt := 1; attempt <= cfg.MaxFailures; attempt++ {
		fails, err := collect(true, 1, seedBase)
		if err != nil {
			if out != nil {
				return out, nil
			}
			return nil, err
		}
		fail := fails[0]
		seedBase = fail.Seed + 1

		s = rec.begin("core.new_tracker", root, op)
		mc := cfg.Module
		mc.N = tr.N
		mc.Encoder = tr.Encoder
		binary := core.NewWeightBinary(tr.Net.NIn, tr.Net.NHidden)
		binary.PatchAll(fail.Program.NumThreads(), tr.Net.Flatten(nil))
		tracker := core.NewTracker(binary, core.TrackerConfig{Module: mc})
		rec.end(s)

		s = rec.begin("pipeline.stages_run", root, op)
		sres, err := stages.Run(tracker, fail.Trace, correctSet, stages.Config{
			Strategy: cfg.Strategy,
			Provenance: rca.Provenance{
				Program:     fail.Program,
				CorrectRuns: cfg.CorrectSetRuns,
				Bug:         b.Name,
			},
		})
		rec.end(s)
		if err != nil {
			return nil, err
		}
		l.addCore(tracker.Stats(), len(sres.Debug))
		rank := sres.Report.RankOf(b.Matcher(fail.Program))
		out, err = encodeDiagnosis(fail.Seed, rank, sres.Report.AppendReport(nil), sres.RCA)
		if err != nil {
			return nil, err
		}
		if rank > 0 {
			break
		}
	}
	return out, nil
}

// diagnoseSpans maps the mirror's span names to per-layer metrics.
var diagnoseSpans = map[string]string{
	"workloads.collect": "workloads.collect_s",
	"deps.correct_set":  "deps.correct_set_s",
	"train.train":       "train.train_self_s",
}

func tracesOf(runs []workloads.Run) []*trace.Trace {
	out := make([]*trace.Trace, len(runs))
	for i, r := range runs {
		out[i] = r.Trace
	}
	return out
}
