package frame_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"act/internal/core"
	"act/internal/deps"
	"act/internal/fleet"
	"act/internal/pipeline"
	"act/internal/pipeline/stages"
	"act/internal/ranking"
	"act/internal/rca"
	"act/internal/trace"
	"act/internal/wire"
)

// Golden encodings of every framed format. Each fixed input below is
// encoded and compared with its checked-in golden under testdata/, and
// each golden is decoded and re-encoded byte for byte, so a refactor of
// the codecs cannot change a single on-disk byte unnoticed. The legacy
// trace v2 golden has no writer any more; it is only decoded.
//
// After a deliberate format change, regenerate with
//
//	go test ./internal/frame -run TestGolden -update
var update = flag.Bool("update", false, "rewrite the golden files from the fixed inputs")

func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: encoding (%d bytes) differs from golden (%d bytes)", name, len(got), len(want))
	}
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func goldenTrace() *trace.Trace {
	tr := &trace.Trace{Program: "golden", Seed: 7, Steps: 1234}
	for i := 0; i < 12; i++ {
		tr.Records = append(tr.Records, trace.Record{
			Seq: uint64(3 * i), PC: 0x400000 + uint64(i%5)*4, Addr: 0x10000 + uint64(i%3)*8,
			Tid: uint16(i % 3), Store: i%2 == 0, Stack: i%4 == 3,
		})
	}
	return tr
}

func goldenSeq(base uint64) deps.Sequence {
	return deps.Sequence{
		{S: base + 0x10, L: base + 0x20},
		{S: base + 0x30, L: base + 0x40, Inter: true},
		{S: base + 0x50, L: base + 0x60, Inter: true},
	}
}

func goldenReport() *ranking.Report {
	return &ranking.Report{Total: 9, Pruned: 4, Ranked: []ranking.Candidate{
		{Matches: 2, Runs: 3, Entry: core.DebugEntry{Seq: goldenSeq(0x400000), Output: 0.125, At: 17, Proc: 1}},
		{Matches: 1, Runs: 1, Entry: core.DebugEntry{Seq: goldenSeq(0x400100), Output: 0.25, At: 40, Mode: core.Training, Proc: 2}},
		{Entry: core.DebugEntry{Seq: deps.Sequence{{}, {S: 7, L: 9}}, Output: 0.375}},
	}}
}

func goldenVerdicts() *rca.Report {
	rep := goldenReport()
	return &rca.Report{
		Bug: "golden", CorrectRuns: 5, Ranked: rep, Total: rep.Total, Pruned: rep.Pruned,
		Verdicts: []rca.Verdict{
			{
				Rank: 1, Kind: rca.KindAtomicity, KindName: rca.KindAtomicity.String(),
				Scope: rca.ScopeInter, ScopeName: rca.ScopeInter.String(), LockAdjacent: true,
				Site:       rca.Site{Proc: 1, Thread: 2, StorePC: 0x400050, LoadPC: 0x400060, StoreSym: "inc", LoadSym: "check+2"},
				Confidence: 0.875,
				Evidence:   rca.Evidence{Trajectory: []float64{0.75, 0.5, 0.125}, Matched: 2, Runs: 3, PrunedNeighbors: 4},
			},
			{
				Rank: 3, Kind: rca.KindSequential, KindName: rca.KindSequential.String(),
				Scope: rca.ScopeIntra, ScopeName: rca.ScopeIntra.String(),
				Site:       rca.Site{StorePC: 7, LoadPC: 9},
				Confidence: 0.5,
			},
		},
	}
}

func goldenBatch(agent string, run uint64, outcome wire.Outcome, base uint64) *wire.Batch {
	return &wire.Batch{
		Agent: agent, Run: run, Seq: 0, Outcome: outcome,
		Stats: core.Stats{Deps: 100 + base, Sequences: 90, PredictedInvalid: 3, Updates: 2,
			ModeSwitches: 1, TrainingDeps: 10, Snapshots: 1},
		Entries: []core.DebugEntry{
			{Seq: goldenSeq(base), Output: 0.125, At: 5, Proc: 1},
			{Seq: goldenSeq(base + 0x1000), Output: 0.25, At: 9, Proc: 2},
		},
	}
}

func TestGoldenTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTrace().Write(&buf); err != nil {
		t.Fatal(err)
	}
	golden(t, "trace_v3.golden", buf.Bytes())

	for _, name := range []string{"trace_v3.golden", "trace_v2.golden"} {
		got, rep, err := trace.ReadReport(bytes.NewReader(readGolden(t, name)))
		if err != nil || rep.Corrupt() {
			t.Fatalf("%s: err %v, report %v", name, err, rep)
		}
		if !reflect.DeepEqual(got, goldenTrace()) {
			t.Fatalf("%s decodes to %+v", name, got)
		}
	}
	tr, err := trace.Read(bytes.NewReader(readGolden(t, "trace_v3.golden")))
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	golden(t, "trace_v3.golden", buf.Bytes())
}

// goldenShardState is the opaque state carried by the wire golden's
// MsgState frame; the wire layer does not interpret it.
var goldenShardState = []byte("opaque shard state")

func writeWire(t *testing.T, b *wire.Batch, shard string, state []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	if err := w.WriteBatch(b); err != nil {
		t.Fatal(err)
	}
	msg, err := wire.EncodeStateMsg(nil, shard, state)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFrame(wire.MsgState, msg); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestGoldenWire(t *testing.T) {
	in := goldenBatch("agent-7", 42, wire.OutcomeFailing, 0x400000)
	golden(t, "wire.golden", writeWire(t, in, "shard-a", goldenShardState))

	rd := wire.NewReader(bytes.NewReader(readGolden(t, "wire.golden")), 0)
	typ, p, err := rd.NextFrame()
	if err != nil || typ != wire.MsgBatch {
		t.Fatalf("first frame: type %v, err %v", typ, err)
	}
	b, err := wire.DecodeBatch(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b, in) {
		t.Fatalf("batch decodes to %+v", b)
	}
	typ, p, err = rd.NextFrame()
	if err != nil || typ != wire.MsgState {
		t.Fatalf("second frame: type %v, err %v", typ, err)
	}
	shard, state, err := wire.DecodeStateMsg(p)
	if err != nil || shard != "shard-a" || !bytes.Equal(state, goldenShardState) {
		t.Fatalf("state frame: %q %q %v", shard, state, err)
	}
	golden(t, "wire.golden", writeWire(t, b, shard, state))
}

func TestGoldenReport(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenReport().Save(&buf); err != nil {
		t.Fatal(err)
	}
	golden(t, "report.golden", buf.Bytes())

	r, err := ranking.LoadReport(bytes.NewReader(readGolden(t, "report.golden")))
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	golden(t, "report.golden", buf.Bytes())
}

func TestGoldenVerdicts(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenVerdicts().Save(&buf); err != nil {
		t.Fatal(err)
	}
	golden(t, "verdicts.golden", buf.Bytes())

	r, err := rca.Load(bytes.NewReader(readGolden(t, "verdicts.golden")))
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	golden(t, "verdicts.golden", buf.Bytes())
}

// goldenCollector holds a failing run, a correct run and a run whose
// outcome is still unknown, so the state carries every section of
// version 2: dedup keys, outcomes, aggregates with both run sets, and
// pending attributions.
func goldenCollector() *fleet.Collector {
	c := fleet.NewCollector(fleet.CollectorConfig{})
	c.Ingest(goldenBatch("agent-1", 1, wire.OutcomeFailing, 0x400000))
	c.Ingest(goldenBatch("agent-2", 2, wire.OutcomeCorrect, 0x400000))
	c.Ingest(goldenBatch("agent-3", 3, wire.OutcomeUnknown, 0x500000))
	return c
}

func TestGoldenCollectorState(t *testing.T) {
	golden(t, "state_v2.golden", goldenCollector().ExportState())

	c := fleet.NewCollector(fleet.CollectorConfig{})
	if _, err := c.MergeState(readGolden(t, "state_v2.golden")); err != nil {
		t.Fatal(err)
	}
	golden(t, "state_v2.golden", c.ExportState())
}

// goldenTracker replays a small fixed two-thread trace so the image has
// module sections with weights, snapshots, IGB, trajectories and
// Debug Buffer entries.
func goldenTracker() (*core.Tracker, *trace.Trace) {
	tr := &trace.Trace{Program: "golden-ckpt", Seed: 5, Steps: 400}
	x := uint64(1)
	for i := 0; i < 400; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		tr.Records = append(tr.Records, trace.Record{
			Seq: uint64(i), Tid: uint16(x >> 62 & 1),
			PC: 0x400000 + (x>>40&15)*4, Addr: 0x10000 + (x>>20&7)*8, Store: x>>10&3 == 0,
		})
	}
	t := newGoldenTracker()
	t.Replay(tr)
	return t, tr
}

// newGoldenTracker is the deployment the checkpoint golden was taken
// from; seed 2 leaves entries in the Debug Buffers.
func newGoldenTracker() *core.Tracker {
	nIn := deps.InputLen(deps.EncodeDefault, 2)
	return core.NewTracker(core.NewWeightBinary(nIn, 4), core.TrackerConfig{
		Module: core.Config{N: 2, CheckInterval: 50}, Seed: 2,
	})
}

func goldenStageSections(t *testing.T) []pipeline.Section {
	t.Helper()
	var vbuf bytes.Buffer
	if err := goldenVerdicts().Save(&vbuf); err != nil {
		t.Fatal(err)
	}
	return []pipeline.Section{
		{Kind: stages.SectionRankedReport, Data: goldenReport().AppendReport(nil)},
		{Kind: stages.SectionRCA, Data: vbuf.Bytes()},
	}
}

func TestGoldenCheckpoint(t *testing.T) {
	tk, tr := goldenTracker()
	img, err := tk.EncodeCheckpoint(tr, 300, goldenStageSections(t)...)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "checkpoint.golden", img)

	data := readGolden(t, "checkpoint.golden")
	secs, err := pipeline.ParseCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "checkpoint.golden", pipeline.AppendCheckpoint(nil, secs))

	fresh := newGoldenTracker()
	cursor, extra, err := fresh.RestoreCheckpoint(data, tr)
	if err != nil {
		t.Fatal(err)
	}
	img, err = fresh.EncodeCheckpoint(tr, cursor, extra...)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "checkpoint.golden", img)
}
