package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"act"
	"act/internal/core"
	"act/internal/deps"
	"act/internal/fleet"
	"act/internal/fleet/shard"
	"act/internal/obs"
	"act/internal/trace"
	"act/internal/wire"
	"act/internal/workloads"
)

// Each fleet round monitors roundCorrect correct and roundFailing
// failing executions of one program: one execution in four fails.
const (
	roundCorrect = 12
	roundFailing = 4
)

// fleetBench runs one actagent → actd → actrollup round per Table V
// program. Each execution is replayed on a freshly deployed Monitor and
// shipped by a fresh shard.Router over a ring of nproc collectors; the
// connections are in-memory pipes whose far ends the collectors ingest.
// One op is one execution fully ingested.
type fleetBench struct {
	seed  int64
	progs []*fleetProgram
}

type fleetProgram struct {
	name    string
	model   *act.Model
	threads int
	execs   []fleetExec
	match   func(deps.Sequence) bool
}

type fleetExec struct {
	trace   *trace.Trace
	outcome wire.Outcome
}

func (f *fleetBench) setup() error {
	f.progs = f.progs[:0]
	for _, b := range workloads.RealBugs() {
		model, threads, err := trainModel(b, nil)
		if err != nil {
			return err
		}
		correct, err := workloads.CollectOutcome(b, false, roundCorrect, 1_000_000+10_000*f.seed)
		if err != nil {
			return err
		}
		failing, err := workloads.CollectOutcome(b, true, roundFailing, 2_000_000+10_000*f.seed)
		if err != nil {
			return err
		}
		p := &fleetProgram{name: b.Name, model: model, threads: threads, match: b.Matcher(failing[0].Program)}
		for i := 0; len(correct)+len(failing) > 0; i++ {
			if i%4 == 3 && len(failing) > 0 {
				p.execs = append(p.execs, fleetExec{failing[0].Trace, wire.OutcomeFailing})
				failing = failing[1:]
			} else {
				p.execs = append(p.execs, fleetExec{correct[0].Trace, wire.OutcomeCorrect})
				correct = correct[1:]
			}
		}
		f.progs = append(f.progs, p)
	}
	return nil
}

// monSource is what actagent hands its router: a Monitor's drained
// Debug Buffer and statistics.
type monSource struct{ mon *act.Monitor }

func (s monSource) Drain() ([]core.DebugEntry, core.Stats) {
	return s.mon.DrainDebugBuffer(), s.mon.Stats()
}

// countingConn counts the bytes a router writes to a collector.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// Close clears the deadline first. A net.Pipe deadline is a timer that
// keeps the pipe reachable until it fires, minutes after Close; a TCP
// connection's deadline goes with its descriptor. Without this, every
// shipped execution would pin its buffers for the router's two-minute
// write timeout.
func (c countingConn) Close() error {
	c.Conn.SetDeadline(time.Time{}) // cannot fail on a pipe
	return c.Conn.Close()
}

func (f *fleetBench) pass(_ bool, rec *recorder) (*passResult, error) {
	res := &passResult{}
	if rec != nil {
		res.layers = layers{}
	}
	from := rec.mark()
	h := sha256.New()
	found, top := 0, 0
	for _, p := range f.progs {
		rank, err := f.round(p, rec, res, h)
		if err != nil {
			return nil, err
		}
		if rank > 0 {
			found++
		}
		if rank == 1 {
			top++
		}
	}
	n := float64(len(f.progs))
	res.quality, res.top1 = float64(found)/n, float64(top)/n
	res.digest = hex.EncodeToString(h.Sum(nil))
	if rec != nil {
		res.layers.addSelf(rec.selfTimes(from), map[string]string{
			"act.deploy":         "act.deploy_s",
			"core.replay":        "core.replay_s",
			"shard.router_new":   "shard.router_new_s",
			"shard.flush":        "shard.flush_s",
			"shard.close":        "shard.close_s",
			"fleet.export_state": "fleet.export_s",
			"shard.rollup":       "shard.rollup_s",
		})
	}
	return res, nil
}

// round ships every execution of p through a fresh ring of collectors,
// rolls the shards up, and returns the rank of p's root cause in the
// fleet-wide report.
func (f *fleetBench) round(p *fleetProgram, rec *recorder, res *passResult, h io.Writer) (int, error) {
	nShards := runtime.NumCPU()
	colls := make(map[string]*fleet.Collector, nShards)
	shards := make(map[string]string, nShards)
	names := make([]string, nShards)
	for i := range names {
		names[i] = fmt.Sprintf("shard%d", i)
		colls[names[i]] = fleet.NewCollector(fleet.CollectorConfig{})
		shards[names[i]] = names[i]
	}
	var ingestHists []*obs.Histogram
	if rec != nil {
		for _, name := range names {
			reg := obs.NewRegistry()
			colls[name].RegisterMetrics(reg)
			ingestHists = append(ingestHists, reg.Histogram("act_collector_ingest_ns", ""))
		}
	}
	var wireBytes atomic.Int64

	var entriesBefore uint64
	for i, ex := range p.execs {
		op := res.ops
		res.ops++
		root := rec.begin("fleet.execution", -1, op)
		s := rec.begin("act.deploy", root, op)
		mon := act.Deploy(p.model, p.threads)
		rec.end(s)
		s = rec.begin("core.replay", root, op)
		mon.Replay(ex.trace)
		rec.end(s)
		if rec != nil {
			res.layers.addCore(mon.Stats(), len(mon.DebugBuffer()))
		}

		// Every connection the router dials is served by one collector
		// goroutine; Close ends the streams, and the wait below returns
		// once each has been ingested in full.
		var wg sync.WaitGroup
		var errMu sync.Mutex
		var ingestErr error // guarded by errMu
		dial := func(addr string) (net.Conn, error) {
			near, far := net.Pipe()
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := rec.begin("fleet.ingest_stream", root, op)
				_, err := colls[addr].IngestStream(far)
				rec.end(s)
				far.Close()
				if err != nil {
					errMu.Lock()
					ingestErr = err
					errMu.Unlock()
				}
			}()
			return countingConn{Conn: near, n: &wireBytes}, nil
		}
		s = rec.begin("shard.router_new", root, op)
		rt, err := shard.NewRouter(monSource{mon}, shard.RouterConfig{
			Shards: shards, Name: p.name, Run: uint64(i + 1), Dial: dial,
		})
		rec.end(s)
		if err != nil {
			rec.end(root)
			return 0, err
		}
		rt.SetOutcome(ex.outcome)
		s = rec.begin("shard.flush", root, op)
		ferr := rt.Flush()
		rec.end(s)
		s = rec.begin("shard.close", root, op)
		cerr := rt.Close()
		rec.end(s)
		wg.Wait()
		rec.end(root)

		st := rt.Stats()
		var entries uint64
		for _, c := range colls {
			entries += c.Stats().Entries
		}
		switch {
		case ferr != nil || cerr != nil:
			res.fail("%s run %d: shipping: flush %v, close %v", p.name, i+1, ferr, cerr)
		case ingestErr != nil: // every writer has returned
			res.fail("%s run %d: ingest: %v", p.name, i+1, ingestErr)
		case entries-entriesBefore != st.Drained:
			res.fail("%s run %d: collectors counted %d entries, the router drained %d",
				p.name, i+1, entries-entriesBefore, st.Drained)
		}
		entriesBefore = entries
		if rec != nil {
			res.layers["shard.batches"] += float64(st.Batches)
			res.layers["shard.shipped"] += float64(st.Shipped)
			res.layers["shard.ship_attempts"] += float64(st.ShipAttempts)
			res.layers["shard.dials"] += float64(st.Dials)
			res.layers["shard.reroutes"] += float64(st.Reroutes)
		}
		res.work++
	}

	// End of round: every shard exports its state to the rollup.
	states := make([][]byte, len(names))
	for i, name := range names {
		s := rec.begin("fleet.export_state", -1, -1)
		states[i] = colls[name].ExportState()
		rec.end(s)
	}
	s := rec.begin("shard.rollup", -1, -1)
	rollup := shard.NewRollup(shard.RollupConfig{Expected: names})
	for i, name := range names {
		if err := rollup.AddState(name, states[i]); err != nil {
			rec.end(s)
			return 0, err
		}
	}
	rep := rollup.Report()
	rec.end(s)
	if rep.Completeness != 1 {
		res.fail("%s: rollup completeness %v", p.name, rep.Completeness)
	}
	rank := rep.Report.RankOf(p.match)
	fmt.Fprintf(h, "%s rank=%d\n", p.name, rank)
	h.Write(rep.Report.AppendReport(nil))

	if rec != nil {
		res.layers["wire.bytes"] += float64(wireBytes.Load())
		for i, name := range names {
			cs := colls[name].Stats()
			res.layers["fleet.batches"] += float64(cs.Batches)
			res.layers["fleet.entries"] += float64(cs.Entries)
			res.layers["fleet.dup_batches"] += float64(cs.DupBatches)
			res.layers["fleet.state_bytes"] += float64(len(states[i]))
			res.layers["fleet.ingest_s"] += float64(ingestHists[i].Snapshot().Sum) / 1e9
		}
	}
	return rank, nil
}

func (*fleetBench) rate() rateRule { return rateRule{q: 0.9} }

func (f *fleetBench) describe(first *passResult, rate float64) []string {
	return []string{
		fmt.Sprintf("fleet_runs_per_s %.6g (%d programs, %.0f executions per pass, rollups included)",
			rate, len(f.progs), first.work),
		fmt.Sprintf("fleet_found %.6g", first.quality),
		fmt.Sprintf("fleet_top1 %.6g", first.top1),
	}
}
