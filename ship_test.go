package act

import (
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"act/internal/fleet"
	"act/internal/loader"
	"act/internal/workloads"
)

// TestShipToFleetDiagnosis is the fleet acceptance path: several agents
// replay failing production runs and ship their Debug Buffers to one
// in-process collector, correct runs ship theirs as pruning evidence,
// and the collector's cross-run ranked report places the bug's
// sequence at rank 1.
func TestShipToFleetDiagnosis(t *testing.T) {
	b, err := workloads.BugByName("apache")
	if err != nil {
		t.Fatal(err)
	}
	correct, err := workloads.CollectOutcome(b, false, 12, 0)
	if err != nil {
		t.Fatal(err)
	}
	var trainTr, testTr []*Trace
	for i, r := range correct {
		if i < 9 {
			trainTr = append(trainTr, r.Trace)
		} else {
			testTr = append(testTr, r.Trace)
		}
	}
	model, err := Train(trainTr, testTr)
	if err != nil {
		t.Fatal(err)
	}

	fails, err := workloads.CollectOutcome(b, true, 3, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	prune, err := workloads.CollectOutcome(b, false, 10, 50_000)
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coll := fleet.NewCollector(fleet.CollectorConfig{})
	go coll.Serve(ln)
	defer coll.Shutdown()
	addr := ln.Addr().String()

	var wantEntries uint64
	ship := func(run uint64, tr *Trace, threads int, failing bool) {
		mon := Deploy(model, threads)
		mon.Replay(tr)
		sh, err := ShipTo(addr, mon,
			WithShipIdentity("prod", run),
			WithShipInterval(time.Hour)) // test drives Flush/Close itself
		if err != nil {
			t.Fatal(err)
		}
		if failing {
			sh.MarkFailing()
		} else {
			sh.MarkCorrect()
		}
		if err := sh.Close(); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		wantEntries += sh.ShipStats().Drained
	}
	for i, r := range fails {
		ship(uint64(1+i), r.Trace, r.Program.NumThreads(), true)
	}
	for i, r := range prune {
		ship(uint64(100+i), r.Trace, r.Program.NumThreads(), false)
	}

	deadline := time.Now().Add(5 * time.Second)
	for coll.Stats().Entries < wantEntries {
		if time.Now().After(deadline) {
			t.Fatalf("collector ingested %d/%d entries", coll.Stats().Entries, wantEntries)
		}
		time.Sleep(5 * time.Millisecond)
	}

	rep := coll.Report()
	match := b.Matcher(fails[0].Program)
	if rank := rep.RankOf(match); rank != 1 {
		t.Fatalf("fleet diagnosis ranked the root cause #%d, want #1 (candidates %d)",
			rank, len(rep.Ranked))
	}
	if rep.Ranked[0].Runs != len(fails) {
		t.Fatalf("root cause seen in %d failing runs, want %d", rep.Ranked[0].Runs, len(fails))
	}
	if st := coll.Stats(); st.DupBatches != 0 || st.BadSpans != 0 {
		t.Fatalf("clean loopback reported damage: %+v", st)
	}
}

// TestShipToSpoolsThenRecovers: with the collector down, Flush spools
// the run into a spool directory that does not exist yet; once the
// collector is back on the same address, Flush replays the spool, and
// the collector counts every drained entry exactly once.
func TestShipToSpoolsThenRecovers(t *testing.T) {
	model, err := Train(kernelTraces(t, "mcf", 6, 0), kernelTraces(t, "mcf", 3, 10_000))
	if err != nil {
		t.Fatal(err)
	}
	mon := Deploy(model, 1, WithThreshold(NeverTrain), WithDebugBuffer(256))
	for i := uint64(0); i < 64; i++ { // unseen dependences: flagged and logged
		mon.OnStore(0, 0xF000_0000+i*8, 0x2000_0000+i*8)
		mon.OnLoad(0, 0xF100_0000+i*8, 0x2000_0000+i*8)
	}

	// An address nobody listens on: the collector is down.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	spoolDir := filepath.Join(t.TempDir(), "spool")
	sh, err := ShipTo(addr, mon,
		WithShipIdentity("spooler", 1),
		WithShipInterval(time.Hour), // the test drives Flush itself
		WithShipSpoolDir(spoolDir),
		WithShipRetry(loader.RetryConfig{Attempts: 2, Sleep: func(time.Duration) {}}))
	if err != nil {
		t.Fatal(err)
	}
	sh.MarkFailing()
	if err := sh.Flush(); err == nil {
		t.Fatal("flush succeeded with the collector down")
	}
	st := sh.ShipStats()
	if st.Drained == 0 {
		t.Fatal("the monitor logged nothing to ship")
	}
	if st.Spooled != st.Batches || st.Shipped != 0 {
		t.Fatalf("outage did not spool every batch: %+v", st)
	}

	ln, err = net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	coll := fleet.NewCollector(fleet.CollectorConfig{})
	go coll.Serve(ln)
	defer coll.Shutdown()
	if err := sh.Flush(); err != nil {
		t.Fatalf("flush after the collector came back: %v", err)
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	st = sh.ShipStats()
	if st.Replayed != st.Spooled {
		t.Fatalf("replayed %d of %d spooled batches", st.Replayed, st.Spooled)
	}
	if left, _ := os.ReadDir(spoolDir); len(left) != 0 {
		t.Fatalf("spool directory not emptied by the replay: %v", left)
	}

	deadline := time.Now().Add(5 * time.Second)
	for coll.Stats().Batches < st.Replayed+st.Shipped {
		if time.Now().After(deadline) {
			t.Fatalf("collector ingested %d/%d batches", coll.Stats().Batches, st.Replayed+st.Shipped)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if cst := coll.Stats(); cst.Entries != st.Drained || cst.DupBatches != 0 {
		t.Fatalf("collector counted %d entries (%d duplicate batches), want %d once each",
			cst.Entries, cst.DupBatches, st.Drained)
	}
}
