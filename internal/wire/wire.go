// Package wire is the fleet-telemetry encoding: a versioned, CRC-framed
// binary format for shipping Debug Buffer entries and monitor statistics
// from production agents to a central collector. It reuses the
// sync-byte/skip-and-resync discipline of trace format v3 (see
// internal/trace): every frame is self-delimiting and individually
// checksummed, so a torn TCP segment, a crash mid-write, or a corrupted
// spool file costs only the damaged frames, never the stream.
//
// Stream layout:
//
//	prologue: magic "ACTW" | u16 version=1 | u16 reserved
//	frames:   sync 0xB7 0x7B | u8 type | u32 payload length | payload |
//	          u32 crc32(type | length | payload)
//
// The prologue and everything after the sync pair are internal/frame's
// prologue and section: all integers are little-endian, CRCs are IEEE
// CRC32, and the CRC covers the type and length bytes too, so a
// corrupted length cannot trick the reader into swallowing a valid
// successor frame.
//
// The only payload type today is a Batch (type 1): one agent's drained
// Debug Buffer entries plus a monitor-stats snapshot, tagged with the
// agent's identity, a run id, a per-run batch sequence number (the
// collector's dedup key) and the run's outcome. Unknown frame types are
// skipped whole, so the format can grow without breaking old collectors.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"act/internal/core"
	"act/internal/deps"
	"act/internal/frame"
)

// Format constants.
const (
	Magic   = "ACTW"
	Version = 1

	sync0, sync1 = 0xB7, 0x7B

	frameHdr  = 2 + frame.SectionHeader // sync pair, type byte, payload length
	frameTail = frame.SectionTail       // crc32

	// DefaultMaxPayload caps a frame's payload. The reader rejects
	// larger declared lengths outright (a corrupted length field would
	// otherwise stall resynchronization behind a bogus multi-gigabyte
	// read), and writers split their entries so no batch exceeds it.
	DefaultMaxPayload = 256 << 10

	// maxSeqLen bounds a serialized sequence; real sequences are N<=5.
	maxSeqLen = 255
)

// MsgType discriminates frame payloads. The type is annotated
// //act:exhaustive: actlint requires every switch over it to either
// cover all declared frame types or carry an explicit default, so a
// new frame type cannot be added without every dispatch site taking a
// position on it.
//
//act:exhaustive
type MsgType byte

// Frame types.
const (
	// MsgBatch is a drained Debug Buffer batch plus a stats snapshot.
	MsgBatch MsgType = 1
	// MsgState is one collector shard's exported aggregate state,
	// forwarded up the rollup tier: u16 shard-name length | name |
	// state bytes (the fleet collector's snapshot encoding). Collectors
	// that predate the rollup tier skip it as an unknown frame.
	MsgState MsgType = 2
)

// Outcome labels the run a batch was drained from. Agents start Unknown,
// flip to Failing when the monitored program crashes or to Correct when
// it exits clean; the collector's cross-run ranking weighs entries by
// how many failing versus correct runs logged them. Annotated
// //act:exhaustive: every switch over an Outcome must take a position
// on all three labels (or default explicitly).
//
//act:exhaustive
type Outcome uint8

// Run outcomes.
const (
	OutcomeUnknown Outcome = iota
	OutcomeCorrect
	OutcomeFailing
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeCorrect:
		return "correct"
	case OutcomeFailing:
		return "failing"
	default:
		return "unknown"
	}
}

// Batch is one shipment: the entries an agent drained from its Debug
// Buffers since the previous batch, plus a cumulative stats snapshot.
type Batch struct {
	Agent   string  // agent identity (host, pod, ...)
	Run     uint64  // one monitored execution; unique per agent
	Seq     uint64  // batch sequence number within the run, from 0
	Outcome Outcome // the run's outcome as known at drain time
	Stats   core.Stats
	Entries []core.DebugEntry
}

// Key returns the batch's dedup hash: FNV-1a over (agent, run, sequence
// number). An at-least-once transport re-delivers whole batches — after
// a retry, a replayed spool, a duplicated segment — and the collector
// drops every key it has already ingested.
func (b *Batch) Key() uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(b.Agent); i++ {
		h = (h ^ uint64(b.Agent[i])) * prime64
	}
	var tmp [16]byte
	binary.LittleEndian.PutUint64(tmp[0:], b.Run)
	binary.LittleEndian.PutUint64(tmp[8:], b.Seq)
	for _, c := range tmp {
		h = (h ^ uint64(c)) * prime64
	}
	return h
}

// RunKey hashes (agent, run) alone — the collector's per-run identity
// for cross-run occurrence counting.
func (b *Batch) RunKey() uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(b.Agent); i++ {
		h = (h ^ uint64(b.Agent[i])) * prime64
	}
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], b.Run)
	for _, c := range tmp {
		h = (h ^ uint64(c)) * prime64
	}
	return h
}

// AppendEntry serializes one Debug Buffer entry:
// u16 proc | u64 at | f64 output | u8 mode | u8 seqlen | deps, each
// u64 S | u64 L | u8 flags (bit 0 = inter-thread).
func AppendEntry(dst []byte, e core.DebugEntry) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint16(tmp[:2], e.Proc)
	dst = append(dst, tmp[:2]...)
	binary.LittleEndian.PutUint64(tmp[:], e.At)
	dst = append(dst, tmp[:]...)
	binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(e.Output))
	dst = append(dst, tmp[:]...)
	dst = append(dst, byte(e.Mode), byte(len(e.Seq)))
	for _, d := range e.Seq {
		binary.LittleEndian.PutUint64(tmp[:], d.S)
		dst = append(dst, tmp[:]...)
		binary.LittleEndian.PutUint64(tmp[:], d.L)
		dst = append(dst, tmp[:]...)
		var flags byte
		if d.Inter {
			flags |= 1
		}
		dst = append(dst, flags)
	}
	return dst
}

// entryFixed is the encoded size of an entry before its dependences.
const entryFixed = 2 + 8 + 8 + 1 + 1

// depSize is the encoded size of one dependence.
const depSize = 8 + 8 + 1

// DecodeEntry reads one entry from b, returning it and the bytes
// consumed. The decoded entry shares nothing with b.
func DecodeEntry(b []byte) (core.DebugEntry, int, error) {
	var e core.DebugEntry
	if len(b) < entryFixed {
		return e, 0, fmt.Errorf("wire: entry truncated at %d bytes", len(b))
	}
	e.Proc = binary.LittleEndian.Uint16(b[0:])
	e.At = binary.LittleEndian.Uint64(b[2:])
	e.Output = math.Float64frombits(binary.LittleEndian.Uint64(b[10:]))
	e.Mode = core.Mode(b[18])
	// An output is a network probability and a mode one of two states:
	// anything else is corruption, and NaN would also break exact
	// round trips (it compares unequal to itself).
	if math.IsNaN(e.Output) || (e.Mode != core.Testing && e.Mode != core.Training) {
		return e, 0, fmt.Errorf("wire: entry with output %v, mode %d", e.Output, b[18])
	}
	n := int(b[19])
	if len(b) < entryFixed+n*depSize {
		return e, 0, fmt.Errorf("wire: entry with %d deps truncated at %d bytes", n, len(b))
	}
	e.Seq = make(deps.Sequence, n)
	off := entryFixed
	for i := 0; i < n; i++ {
		e.Seq[i] = deps.Dep{
			S:     binary.LittleEndian.Uint64(b[off:]),
			L:     binary.LittleEndian.Uint64(b[off+8:]),
			Inter: b[off+16]&1 != 0,
		}
		off += depSize
	}
	return e, off, nil
}

// EntrySize returns the encoded size of an entry.
func EntrySize(e core.DebugEntry) int { return entryFixed + len(e.Seq)*depSize }

// EntryMinSize is the smallest encoded entry (no dependences), the
// per-element bound for frame.Dec.Count over entries.
const EntryMinSize = entryFixed

// ReadEntry decodes one entry at d's cursor into e, failing d on
// damage — the DecodeEntry form for formats that embed entries in a
// frame.Dec body. Decoding in place spares a copy of the entry per call.
func ReadEntry(d *frame.Dec, e *core.DebugEntry) {
	var n int
	var err error
	if *e, n, err = DecodeEntry(d.Rest()); err != nil {
		d.Fail("%v", err)
	}
	d.Take(n)
}

// putStats appends the stats snapshot as eight u64 counters.
func putStats(e *frame.Enc, s core.Stats) {
	for _, v := range [...]uint64{s.Deps, s.Sequences, s.PredictedInvalid,
		s.Updates, s.ModeSwitches, s.TrainingDeps, s.Snapshots, s.Recoveries} {
		e.U64(v)
	}
}

// readStats reads a snapshot written by putStats.
func readStats(d *frame.Dec) core.Stats {
	return core.Stats{
		Deps: d.U64(), Sequences: d.U64(), PredictedInvalid: d.U64(), Updates: d.U64(),
		ModeSwitches: d.U64(), TrainingDeps: d.U64(), Snapshots: d.U64(), Recoveries: d.U64(),
	}
}

// EncodeBatch serializes a batch payload:
// u16 agent length | agent | u64 run | u64 seq | u8 outcome | stats |
// u32 entry count | entries.
func EncodeBatch(dst []byte, b *Batch) ([]byte, error) {
	if len(b.Agent) > math.MaxUint16 {
		return nil, fmt.Errorf("wire: agent name %d bytes long", len(b.Agent))
	}
	for i, e := range b.Entries {
		if len(e.Seq) > maxSeqLen {
			return nil, fmt.Errorf("wire: entry %d sequence length %d exceeds %d", i, len(e.Seq), maxSeqLen)
		}
	}
	enc := frame.Enc{B: dst}
	enc.U16(uint16(len(b.Agent)))
	enc.B = append(enc.B, b.Agent...)
	enc.U64(b.Run)
	enc.U64(b.Seq)
	enc.U8(byte(b.Outcome))
	putStats(&enc, b.Stats)
	enc.U32(uint32(len(b.Entries)))
	for _, e := range b.Entries {
		enc.B = AppendEntry(enc.B, e)
	}
	return enc.B, nil
}

// DecodeBatch parses a batch payload. The result shares no memory with
// the input, so callers may decode out of a transient read buffer. An
// outcome byte outside the three labels is corruption: filing a run
// under it would drop the run's pending evidence.
func DecodeBatch(p []byte) (*Batch, error) {
	d := frame.NewDec(p, "wire: batch")
	b := &Batch{Agent: string(d.Take(int(d.U16()))), Run: d.U64(), Seq: d.U64(), Outcome: Outcome(d.U8())}
	if b.Outcome > OutcomeFailing {
		d.Fail("outcome %d", b.Outcome)
	}
	b.Stats = readStats(d)
	if count := d.Count(entryFixed); count > 0 {
		b.Entries = make([]core.DebugEntry, count)
		for i := 0; i < count && d.Err() == nil; i++ {
			ReadEntry(d, &b.Entries[i])
		}
	}
	if err := d.End(); err != nil {
		return nil, err
	}
	return b, nil
}

// AppendFrame wraps a payload in a checksummed frame: the sync pair,
// then the payload as a frame section of kind typ.
func AppendFrame(dst []byte, typ MsgType, payload []byte) []byte {
	return frame.AppendSection(append(dst, sync0, sync1), byte(typ), payload)
}

// AppendPrologue writes the stream prologue.
func AppendPrologue(dst []byte) []byte { return frame.AppendPrologue(dst, Magic, Version) }

// EncodeStateMsg serializes a MsgState payload: a shard's name plus its
// opaque exported aggregate state (the fleet collector's snapshot
// encoding, checksummed internally).
func EncodeStateMsg(dst []byte, shard string, state []byte) ([]byte, error) {
	if len(shard) > math.MaxUint16 {
		return nil, fmt.Errorf("wire: shard name %d bytes long", len(shard))
	}
	e := frame.Enc{B: dst}
	e.U16(uint16(len(shard)))
	return append(append(e.B, shard...), state...), nil
}

// DecodeStateMsg parses a MsgState payload. The returned state aliases
// p; copy it if the frame buffer will be reused.
func DecodeStateMsg(p []byte) (shard string, state []byte, err error) {
	d := frame.NewDec(p, "wire: state payload")
	shard = string(d.Take(int(d.U16())))
	return shard, d.Rest(), d.Err()
}
