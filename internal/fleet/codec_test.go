package fleet_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"act/internal/fleet"
	"act/internal/frame"
	"act/internal/frame/frametest"
	"act/internal/wire"
)

// batchFrame frames one batch; outcome, when non-zero, overwrites the
// encoded outcome byte (u16 agent length | agent | u64 run | u64 seq |
// u8 outcome), producing a CRC-valid frame no writer would emit.
func batchFrame(t *testing.T, b *wire.Batch, outcome byte) []byte {
	t.Helper()
	p, err := wire.EncodeBatch(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != 0 {
		p[2+len(b.Agent)+16] = outcome
	}
	return wire.AppendFrame(nil, wire.MsgBatch, p)
}

// TestCollectorRejectsOutOfRangeOutcome: a CRC-valid batch carrying
// outcome byte 3 used to be ingested, filing its run under an outcome
// no switch handles — the run's pending evidence was dropped for good
// and its later Failing batch could not bring it back. Now the reader
// counts the frame as Unknown and the ranked report is unchanged.
func TestCollectorRejectsOutOfRangeOutcome(t *testing.T) {
	pending := batchFrame(t, mkBatch("a", 1, 0, wire.OutcomeUnknown, failingEntries(0)...), 0)
	bad := batchFrame(t, mkBatch("a", 1, 1, wire.OutcomeFailing), 3)
	failing := batchFrame(t, mkBatch("a", 1, 2, wire.OutcomeFailing), 0)
	stream := func(frames ...[]byte) *bytes.Reader {
		return bytes.NewReader(bytes.Join(append([][]byte{wire.AppendPrologue(nil)}, frames...), nil))
	}

	clean := fleet.NewCollector(fleet.CollectorConfig{})
	if _, err := clean.IngestStream(stream(pending, failing)); err != nil {
		t.Fatal(err)
	}
	c := fleet.NewCollector(fleet.CollectorConfig{})
	rep, err := c.IngestStream(stream(pending, bad, failing))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unknown != 1 {
		t.Fatalf("outcome-3 frame not counted as unknown: %+v", rep)
	}
	want, got := clean.Report(), c.Report()
	if len(want.Ranked) == 0 || want.Ranked[0].Runs != 1 {
		t.Fatalf("clean stream ranked %+v", want.Ranked)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("outcome-3 frame changed the report:\nwant %+v\ngot  %+v", want.Ranked, got.Ranked)
	}
}

// TestMergeStateRejectsOutOfRangeOutcome: collector state carries run
// outcomes too; a sealed state with outcome byte 3 is refused whole.
func TestMergeStateRejectsOutOfRangeOutcome(t *testing.T) {
	c := fleet.NewCollector(fleet.CollectorConfig{})
	c.Ingest(mkBatch("a", 1, 0, wire.OutcomeFailing, failingEntries(0)...))
	_, body, err := frame.Open(c.ExportState(), "ACTS")
	if err != nil {
		t.Fatal(err)
	}
	// u32 one key | u64 key | u32 one run | u64 run | u8 outcome
	body = bytes.Clone(body)
	body[4+8+4+8] = 3
	if _, err := fleet.NewCollector(fleet.CollectorConfig{}).MergeState(frame.Seal("ACTS", 2, body)); err == nil {
		t.Fatal("state with outcome 3 merged")
	}
}

// TestSnapshotConcurrent: actd snapshots from its ticker and from its
// shutdown hook, so Snapshot must tolerate concurrent callers on one
// path. Every call succeeds, no temp file is left behind, and the file
// reloads to the collector's state.
func TestSnapshotConcurrent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "actd.snapshot")
	c := fleet.NewCollector(fleet.CollectorConfig{SnapshotPath: path})
	for i := 0; i < 3; i++ {
		c.Ingest(mkBatch("f", uint64(101+i), 0, wire.OutcomeFailing, failingEntries(i)...))
	}
	c.Ingest(mkBatch("c", 201, 0, wire.OutcomeCorrect, correctEntries()...))

	var wg sync.WaitGroup
	errs := make(chan error, 8*50)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := c.Snapshot(""); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 {
		t.Fatalf("snapshot dir holds %d entries (%v), want the snapshot alone", len(ents), err)
	}
	reloaded := fleet.NewCollector(fleet.CollectorConfig{SnapshotPath: path})
	if !bytes.Equal(reloaded.ExportState(), c.ExportState()) {
		t.Fatal("reloaded snapshot differs from the collector's state")
	}
}

// FuzzMergeState feeds arbitrary bytes to MergeState, the entry point
// for state that shards push over the network, under the shared codec
// property (frametest.Check). The decoded value is the merged
// collector's exported state, so the property says: a merge never
// panics, the state it produces merges back to itself, and it is no
// larger than the input allows.
func FuzzMergeState(f *testing.F) {
	full := fleet.NewCollector(fleet.CollectorConfig{})
	for i := 0; i < 3; i++ {
		full.Ingest(mkBatch("f", uint64(101+i), 0, wire.OutcomeFailing, failingEntries(i)...))
	}
	full.Ingest(mkBatch("c", 201, 0, wire.OutcomeCorrect, correctEntries()...))
	full.Ingest(mkBatch("u", 301, 0, wire.OutcomeUnknown, failingEntries(1)...))
	state := full.ExportState()
	f.Add(state)
	f.Add(fleet.NewCollector(fleet.CollectorConfig{}).ExportState())
	f.Add(state[:len(state)/2])
	flipped := bytes.Clone(state)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add([]byte("ACTS"))

	merge := func(data []byte) ([]byte, error) {
		c := fleet.NewCollector(fleet.CollectorConfig{})
		if _, err := c.MergeState(data); err != nil {
			return nil, err
		}
		return c.ExportState(), nil
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		frametest.Check(t, data, merge, func(state []byte) ([]byte, error) { return state, nil })
	})
}
