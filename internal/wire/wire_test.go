package wire

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"act/internal/core"
	"act/internal/deps"
	"act/internal/frame"
	"act/internal/frame/frametest"
)

func testBatch(run, seq uint64, n int) *Batch {
	rng := rand.New(rand.NewSource(int64(run*1000 + seq)))
	b := &Batch{
		Agent:   "host-7",
		Run:     run,
		Seq:     seq,
		Outcome: OutcomeFailing,
		Stats:   core.Stats{Deps: 12345, Sequences: 12000, PredictedInvalid: uint64(n), Updates: 7},
	}
	for i := 0; i < n; i++ {
		e := core.DebugEntry{
			Output: rng.Float64() / 2,
			At:     uint64(100 + i),
			Mode:   core.Testing,
			Proc:   uint16(i % 4),
			Seq: deps.Sequence{
				{S: rng.Uint64(), L: rng.Uint64(), Inter: i%2 == 0},
				{S: rng.Uint64(), L: rng.Uint64()},
				{S: rng.Uint64(), L: rng.Uint64(), Inter: true},
			},
		}
		b.Entries = append(b.Entries, e)
	}
	return b
}

func TestBatchRoundTrip(t *testing.T) {
	want := testBatch(3, 9, 17)
	p, err := EncodeBatch(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatch(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", want, got)
	}
}

func TestEmptyBatchRoundTrip(t *testing.T) {
	want := &Batch{Agent: "", Run: 1, Seq: 0, Outcome: OutcomeUnknown}
	p, err := EncodeBatch(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatch(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Run != 1 || len(got.Entries) != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	wr := NewWriter(&buf)
	var want []*Batch
	for i := 0; i < 5; i++ {
		b := testBatch(1, uint64(i), i*3)
		want = append(want, b)
		if err := wr.WriteBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	rd := NewReader(&buf, 0)
	for i, w := range want {
		got, err := rd.Next()
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if !reflect.DeepEqual(w, got) {
			t.Fatalf("batch %d mismatch", i)
		}
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
	if rep := rd.Report(); rep.Corrupt() || rep.Frames != 5 {
		t.Fatalf("clean stream reported %+v", rep)
	}
}

// encodeStream serializes batches into one wire stream.
func encodeStream(batches ...*Batch) []byte {
	var buf bytes.Buffer
	wr := NewWriter(&buf)
	for _, b := range batches {
		if err := wr.WriteBatch(b); err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}

// readAll drains a stream, returning the surviving batches.
func readAll(t *testing.T, data []byte) ([]*Batch, StreamReport) {
	t.Helper()
	rd := NewReader(bytes.NewReader(data), 0)
	var out []*Batch
	for {
		b, err := rd.Next()
		if err == io.EOF {
			return out, rd.Report()
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		out = append(out, b)
	}
}

func TestResyncAfterCorruptFrame(t *testing.T) {
	b0, b1, b2 := testBatch(1, 0, 4), testBatch(1, 1, 4), testBatch(1, 2, 4)
	data := encodeStream(b0, b1, b2)

	// Find and damage the middle frame: flip a byte well inside it.
	frames := frameOffsets(data)
	if len(frames) != 3 {
		t.Fatalf("found %d frames", len(frames))
	}
	data[frames[1]+10] ^= 0xFF

	got, rep := readAll(t, data)
	if len(got) != 2 {
		t.Fatalf("recovered %d batches, want 2", len(got))
	}
	if got[0].Seq != 0 || got[1].Seq != 2 {
		t.Fatalf("survivors %d and %d, want 0 and 2", got[0].Seq, got[1].Seq)
	}
	if rep.BadSpans == 0 || rep.SkippedBytes == 0 {
		t.Fatalf("no damage reported: %+v", rep)
	}
}

func TestTruncatedTail(t *testing.T) {
	data := encodeStream(testBatch(1, 0, 4), testBatch(1, 1, 4))
	got, rep := readAll(t, data[:len(data)-7]) // cut inside the last frame
	if len(got) != 1 || got[0].Seq != 0 {
		t.Fatalf("got %d batches", len(got))
	}
	if !rep.Truncated {
		t.Fatalf("truncation not reported: %+v", rep)
	}
}

func TestGarbagePrefixBetweenFrames(t *testing.T) {
	s0 := encodeStream(testBatch(1, 0, 2))
	s1 := encodeStream(testBatch(1, 1, 2)) // second stream minus prologue
	junk := []byte{sync0, sync1, 0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x11}
	data := append(append(append([]byte{}, s0...), junk...), s1[frame.PrologueLen:]...)
	got, rep := readAll(t, data)
	if len(got) != 2 {
		t.Fatalf("recovered %d batches, want 2", len(got))
	}
	if rep.SkippedBytes == 0 {
		t.Fatalf("junk not counted: %+v", rep)
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	huge := AppendFrame(AppendPrologue(nil), MsgBatch, make([]byte, 100))
	// Forge the declared length far past the cap; reader must not stall.
	huge[frame.PrologueLen+3] = 0xFF
	huge[frame.PrologueLen+4] = 0xFF
	huge[frame.PrologueLen+5] = 0xFF
	huge[frame.PrologueLen+6] = 0x7F
	rd := NewReader(bytes.NewReader(huge), 1<<10)
	if _, err := rd.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestUnknownFrameTypeSkipped(t *testing.T) {
	data := AppendPrologue(nil)
	data = AppendFrame(data, 42, []byte("future message"))
	var err error
	p, err := EncodeBatch(nil, testBatch(1, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	data = AppendFrame(data, MsgBatch, p)
	got, rep := readAll(t, data)
	if len(got) != 1 {
		t.Fatalf("recovered %d batches, want 1", len(got))
	}
	if rep.Unknown != 1 || rep.Corrupt() {
		t.Fatalf("report %+v", rep)
	}
}

func TestBadMagic(t *testing.T) {
	rd := NewReader(bytes.NewReader([]byte("NOTW\x01\x00\x00\x00")), 0)
	if _, err := rd.Next(); err != ErrBadMagic {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}
}

func TestBatchKeyDistinguishes(t *testing.T) {
	a := &Batch{Agent: "a", Run: 1, Seq: 2}
	keys := map[uint64]bool{a.Key(): true}
	for _, b := range []*Batch{
		{Agent: "a", Run: 1, Seq: 3},
		{Agent: "a", Run: 2, Seq: 2},
		{Agent: "b", Run: 1, Seq: 2},
	} {
		if keys[b.Key()] {
			t.Fatalf("key collision for %+v", b)
		}
		keys[b.Key()] = true
	}
	dup := &Batch{Agent: "a", Run: 1, Seq: 2, Entries: testBatch(1, 1, 1).Entries}
	if dup.Key() != a.Key() {
		t.Fatal("key must depend only on (agent, run, seq)")
	}
	if a.RunKey() != dup.RunKey() {
		t.Fatal("run key mismatch for same run")
	}
	if a.RunKey() == (&Batch{Agent: "a", Run: 2}).RunKey() {
		t.Fatal("run key must distinguish runs")
	}
}

// frameOffsets scans a clean stream for frame starts (test helper; it
// trusts the stream was produced by Writer, so sync bytes inside
// payloads do not occur at scan positions).
func frameOffsets(data []byte) []int {
	var out []int
	i := frame.PrologueLen
	for i+frameHdr <= len(data) {
		if data[i] != sync0 || data[i+1] != sync1 {
			break
		}
		out = append(out, i)
		plen := int(uint32(data[i+3]) | uint32(data[i+4])<<8 | uint32(data[i+5])<<16 | uint32(data[i+6])<<24)
		i += frameHdr + plen + frameTail
	}
	return out
}

// TestStateFrameRoundTrip: a mixed stream of MsgState and MsgBatch
// frames survives the frame-level reader — what a rollup node consumes
// when a shard daemon pushes its state alongside directly-shipped
// batches — and a damaged state frame is skipped without derailing the
// frames after it.
func TestStateFrameRoundTrip(t *testing.T) {
	state := []byte("opaque-collector-state-bytes")
	payload, err := EncodeStateMsg(nil, "shard1", state)
	if err != nil {
		t.Fatal(err)
	}
	b := testBatch(3, 0, 2)

	var buf bytes.Buffer
	wr := NewWriter(&buf)
	if err := wr.WriteFrame(MsgState, payload); err != nil {
		t.Fatal(err)
	}
	if err := wr.WriteBatch(b); err != nil {
		t.Fatal(err)
	}

	rd := NewReader(bytes.NewReader(buf.Bytes()), 0)
	typ, p, err := rd.NextFrame()
	if err != nil || typ != MsgState {
		t.Fatalf("first frame: type %v, err %v", typ, err)
	}
	shard, got, err := DecodeStateMsg(p)
	if err != nil || shard != "shard1" || !bytes.Equal(got, state) {
		t.Fatalf("state round trip: shard %q, state %q, err %v", shard, got, err)
	}
	typ, p, err = rd.NextFrame()
	if err != nil || typ != MsgBatch {
		t.Fatalf("second frame: type %v, err %v", typ, err)
	}
	rt, err := DecodeBatch(p)
	if err != nil || !reflect.DeepEqual(rt, b) {
		t.Fatalf("batch after state frame damaged: %v", err)
	}
	if _, _, err := rd.NextFrame(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}

	// A bit flip inside the state frame fails its CRC; the reader
	// resyncs and still delivers the batch behind it.
	data := append([]byte(nil), buf.Bytes()...)
	offs := frameOffsets(data)
	data[offs[0]+frameHdr+4] ^= 0x20
	rd = NewReader(bytes.NewReader(data), 0)
	typ, p, err = rd.NextFrame()
	if err != nil || typ != MsgBatch {
		t.Fatalf("frame after damaged state: type %v, err %v", typ, err)
	}
	if _, err := DecodeBatch(p); err != nil {
		t.Fatal(err)
	}
	if rep := rd.Report(); rep.BadSpans == 0 || rep.SkippedBytes == 0 {
		t.Fatalf("damage not surfaced: %+v", rep)
	}

	// Truncated payloads are decode errors, not panics or aliasing bugs.
	if _, _, err := DecodeStateMsg(payload[:1]); err == nil {
		t.Fatal("1-byte state payload accepted")
	}
	if _, _, err := DecodeStateMsg(payload[:2+3]); err == nil {
		t.Fatal("truncated shard name accepted")
	}
}

// TestDecodeRejectsOutOfRangeEnums: an outcome byte above
// OutcomeFailing, a mode byte above Training and a NaN output are
// corruption the CRC cannot catch (a peer computed it over the bad
// byte), so the decoders refuse them.
func TestDecodeRejectsOutOfRangeEnums(t *testing.T) {
	b := testBatch(1, 0, 1)
	p, err := EncodeBatch(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	outcome := 2 + len(b.Agent) + 16
	bad := bytes.Clone(p)
	bad[outcome] = byte(OutcomeFailing) + 1
	if _, err := DecodeBatch(bad); err == nil {
		t.Error("batch with outcome 3 accepted")
	}
	entry := outcome + 1 + 8*8 + 4
	bad = bytes.Clone(p)
	bad[entry+18] = byte(core.Training) + 1
	if _, err := DecodeBatch(bad); err == nil {
		t.Error("entry with mode 2 accepted")
	}
	bad = bytes.Clone(p)
	copy(bad[entry+10:], []byte{1, 0, 0, 0, 0, 0, 0xF8, 0x7F}) // a NaN
	if _, err := DecodeBatch(bad); err == nil {
		t.Error("entry with NaN output accepted")
	}
	if _, err := DecodeBatch(p); err != nil {
		t.Fatalf("unmodified batch rejected: %v", err)
	}
}

// fuzzFrame is one decoded frame of a fuzzed stream: a batch, or a
// shard-state push.
type fuzzFrame struct {
	Batch *Batch
	Shard string
	State []byte
}

// FuzzReaderNeverPanics reads arbitrary bytes as a wire stream under
// the shared codec property (frametest.Check): the reader never panics,
// the frames it accepts re-write to a stream that reads back to the
// same frames, and that stream is no larger than the input allows.
func FuzzReaderNeverPanics(f *testing.F) {
	f.Add(encodeStream(testBatch(1, 0, 3)))
	f.Add([]byte("ACTW\x01\x00\x00\x00garbage"))
	decode := func(data []byte) ([]fuzzFrame, error) {
		rd := NewReader(bytes.NewReader(data), 1<<16)
		var out []fuzzFrame
		for {
			typ, p, err := rd.NextFrame()
			if err == io.EOF {
				return out, nil
			}
			if err != nil {
				return nil, err
			}
			switch typ {
			case MsgBatch:
				if b, err := DecodeBatch(p); err == nil {
					out = append(out, fuzzFrame{Batch: b})
				}
			case MsgState:
				if shard, state, err := DecodeStateMsg(p); err == nil {
					out = append(out, fuzzFrame{Shard: shard, State: bytes.Clone(state)})
				}
			}
		}
	}
	encode := func(frames []fuzzFrame) ([]byte, error) {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, fr := range frames {
			if fr.Batch != nil {
				if err := w.WriteBatch(fr.Batch); err != nil {
					return nil, err
				}
				continue
			}
			msg, err := EncodeStateMsg(nil, fr.Shard, fr.State)
			if err == nil {
				err = w.WriteFrame(MsgState, msg)
			}
			if err != nil {
				return nil, err
			}
		}
		return buf.Bytes(), nil
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		frametest.Check(t, data, decode, encode)
	})
}
