package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"act/internal/frame"
)

// Stream errors. ErrBadMagic and ErrBadVersion mean the peer is not
// speaking this protocol at all — permanent failures no retry fixes.
var (
	ErrBadMagic   = errors.New("wire: bad magic")
	ErrBadVersion = errors.New("wire: unsupported version")
)

// IsProtocolError reports whether err marks a peer that does not speak
// this protocol — the permanent class in retry classification.
func IsProtocolError(err error) bool {
	return errors.Is(err, ErrBadMagic) || errors.Is(err, ErrBadVersion)
}

// Writer emits a wire stream: the prologue once, then one frame per
// batch. A Writer is created per connection (or per spool file); it is
// not safe for concurrent use.
type Writer struct {
	w        io.Writer
	buf      []byte
	payload  []byte
	prologue bool // already written
}

// NewWriter returns a Writer that emits the prologue before its first
// frame.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// NewRawWriter returns a Writer that emits frames only — for appending
// to a stream (e.g. a spool file) whose prologue already exists.
func NewRawWriter(w io.Writer) *Writer { return &Writer{w: w, prologue: true} }

// WriteBatch frames and writes one batch.
func (wr *Writer) WriteBatch(b *Batch) error {
	var err error
	wr.payload, err = EncodeBatch(wr.payload[:0], b)
	if err != nil {
		return err
	}
	return wr.WriteFrame(MsgBatch, wr.payload)
}

// WriteFrame frames and writes one payload of the given type — the
// generic form behind WriteBatch, used for non-batch frames (a shard's
// MsgState push). The prologue is emitted before the first frame.
func (wr *Writer) WriteFrame(typ MsgType, payload []byte) error {
	wr.buf = wr.buf[:0]
	if !wr.prologue {
		wr.buf = AppendPrologue(wr.buf)
	}
	wr.buf = AppendFrame(wr.buf, typ, payload)
	if _, err := wr.w.Write(wr.buf); err != nil {
		return err
	}
	wr.prologue = true
	return nil
}

// StreamReport counts what a Reader survived — the transport-level
// counterpart of trace.CorruptionReport.
type StreamReport struct {
	Frames       int   // frames that decoded cleanly
	BadSpans     int   // contiguous corrupt byte runs skipped during resync
	SkippedBytes int64 // bytes discarded while resynchronizing
	Unknown      int   // well-formed frames of unknown type (skipped)
	Truncated    bool  // stream ended inside a frame
}

// Corrupt reports whether any damage was observed.
func (r *StreamReport) Corrupt() bool {
	return r.BadSpans > 0 || r.SkippedBytes > 0 || r.Truncated
}

// String summarizes the report for logs.
func (r *StreamReport) String() string {
	s := fmt.Sprintf("%d frames", r.Frames)
	if r.Corrupt() {
		s += fmt.Sprintf(", %d corrupt spans, %d bytes skipped", r.BadSpans, r.SkippedBytes)
		if r.Truncated {
			s += ", truncated"
		}
	}
	return s
}

// Reader consumes a wire stream with skip-and-resync recovery: a frame
// that fails its CRC costs one resynchronization scan, not the
// connection. Frames larger than the payload cap are treated as
// corruption — the cap is the per-connection memory bound.
type Reader struct {
	br         *bufio.Reader
	maxPayload int
	rep        StreamReport
	payload    []byte // NextFrame's reusable payload copy
	prologue   bool   // already consumed
	inBad      bool
}

// NewReader wraps r. maxPayload caps accepted frame payloads; 0 means
// DefaultMaxPayload.
func NewReader(r io.Reader, maxPayload int) *Reader {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	return &Reader{
		// The buffer must hold a whole frame: resync peeks at full
		// frames before consuming them.
		br:         bufio.NewReaderSize(r, maxPayload+frameHdr+frameTail),
		maxPayload: maxPayload,
	}
}

// Report returns the damage counters accumulated so far.
func (rd *Reader) Report() StreamReport { return rd.rep }

// skip discards n bytes as corruption.
func (rd *Reader) skip(n int) {
	rd.br.Discard(n)
	rd.rep.SkippedBytes += int64(n)
	if !rd.inBad {
		rd.rep.BadSpans++
		rd.inBad = true
	}
}

// Next returns the next cleanly-decoded batch. At end of stream it
// returns io.EOF; a stream ending inside a frame additionally sets
// Truncated in the report. Corrupt spans are skipped silently (they are
// counted in the report); protocol-level errors (wrong magic, unknown
// version) are returned as errors. Frames of other types — including
// types this reader does not know — are skipped whole and counted as
// Unknown, so a batch-only consumer survives a newer peer.
func (rd *Reader) Next() (*Batch, error) {
	for {
		typ, payload, err := rd.NextFrame()
		if err != nil {
			return nil, err
		}
		switch typ {
		case MsgBatch:
			b, derr := DecodeBatch(payload)
			if derr != nil {
				rd.rep.Unknown++
				continue
			}
			return b, nil
		case MsgState:
			rd.rep.Unknown++
		default:
			rd.rep.Unknown++
		}
	}
}

// NextFrame returns the next CRC-valid frame: its type and payload.
// The payload is only valid until the following NextFrame (or Next)
// call — decode or copy before advancing. Dispatching consumers (a
// rollup node taking both batches and shard-state pushes) read frames
// directly; Next wraps this for batch-only consumers.
func (rd *Reader) NextFrame() (MsgType, []byte, error) {
	if !rd.prologue {
		pro := make([]byte, frame.PrologueLen)
		if _, err := io.ReadFull(rd.br, pro); err != nil {
			rd.rep.Truncated = true
			return 0, nil, eofOf(err)
		}
		v, err := frame.CheckPrologue(pro, Magic)
		if err != nil {
			return 0, nil, ErrBadMagic
		}
		if v != Version {
			return 0, nil, fmt.Errorf("%w %d", ErrBadVersion, v)
		}
		rd.prologue = true
	}
	for {
		b, err := rd.br.Peek(2)
		if err != nil {
			if len(b) > 0 {
				rd.rep.Truncated = true
				rd.rep.SkippedBytes += int64(len(b))
				rd.br.Discard(len(b))
			}
			return 0, nil, eofOf(err)
		}
		if b[0] != sync0 || b[1] != sync1 {
			rd.skip(1)
			continue
		}
		hdr, err := rd.br.Peek(frameHdr)
		if err != nil {
			rd.rep.Truncated = true
			return 0, nil, eofOf(err)
		}
		plen := int(binary.LittleEndian.Uint32(hdr[3:]))
		if plen > rd.maxPayload {
			rd.skip(1)
			continue
		}
		fr, err := rd.br.Peek(frameHdr + plen + frameTail)
		if err != nil {
			// Not enough bytes left for the declared frame: on a live
			// connection Peek blocks until they arrive, so an error here
			// is a genuine end-of-stream inside a frame.
			rd.rep.Truncated = true
			return 0, nil, eofOf(err)
		}
		typ, payload, _, err := frame.ParseSection(fr[2:], rd.maxPayload)
		if err != nil {
			rd.skip(1)
			continue
		}
		// Copy the payload out of the bufio window so it survives the
		// Discard; the buffer is reused across calls.
		rd.payload = append(rd.payload[:0], payload...)
		rd.br.Discard(len(fr))
		rd.rep.Frames++
		rd.inBad = false
		return MsgType(typ), rd.payload, nil
	}
}

// eofOf normalizes bufio's short-read errors to io.EOF; other errors
// (timeouts, resets) pass through for the caller to classify.
func eofOf(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return io.EOF
	}
	return err
}
