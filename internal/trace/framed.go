package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"act/internal/frame"
)

// Framed format (version 3), the hardened on-disk layout. Production
// traces are collected in the field, where streams get truncated by
// crashes and corrupted in transit; the framed format lets the reader
// localize damage instead of discarding the whole trace. The prologue
// is internal/frame's; the header section and the record frames stay
// local: a record frame has no kind or length, and the reader
// resynchronizes on it in memory rather than on a frame.Section.
//
//	magic "ACTT" | u16 version=3 | u16 reserved
//	header section: u32 length | bytes | u32 crc32(bytes)
//	  bytes = u64 seed | u64 steps | u32 name length | name | u64 record count
//	record frames, one per record:
//	  sync 0xA5 0x5A | 27-byte record payload | u32 crc32(payload)
//
// Record payload layout matches the plain format:
// u64 seq | u64 pc | u64 addr | u16 tid | u8 flags. All CRCs are
// IEEE CRC32 in little-endian. Frames are self-delimiting: after a bad
// span the reader scans forward for the next sync pair whose payload
// checksums correctly.
const (
	recordPayload = 27                    // bytes per encoded record
	frameSize     = 2 + recordPayload + 4 // sync + payload + crc
	fixedHeader   = 8 + 8 + 4 + 8         // header bytes besides the name
	sync0, sync1  = 0xA5, 0x5A
)

func encodeRecord(dst []byte, r Record) {
	binary.LittleEndian.PutUint64(dst[0:], r.Seq)
	binary.LittleEndian.PutUint64(dst[8:], r.PC)
	binary.LittleEndian.PutUint64(dst[16:], r.Addr)
	binary.LittleEndian.PutUint16(dst[24:], r.Tid)
	var flags byte
	if r.Store {
		flags |= 1
	}
	if r.Stack {
		flags |= 2
	}
	dst[26] = flags
}

func decodeRecord(b []byte) Record {
	return Record{
		Seq:   binary.LittleEndian.Uint64(b[0:]),
		PC:    binary.LittleEndian.Uint64(b[8:]),
		Addr:  binary.LittleEndian.Uint64(b[16:]),
		Tid:   binary.LittleEndian.Uint16(b[24:]),
		Store: b[26]&1 != 0,
		Stack: b[26]&2 != 0,
	}
}

// CorruptionReport describes the damage a framed read recovered from.
// The zero value means the stream was clean.
type CorruptionReport struct {
	HeaderDamaged bool   // header section failed its CRC or was implausible
	BadSpans      int    // contiguous corrupt byte runs skipped during resync
	SkippedBytes  int64  // total bytes discarded while resynchronizing
	TruncatedTail bool   // stream ended inside a frame or a corrupt run
	Declared      uint64 // record count promised by the header (0 if damaged)
	Recovered     int    // records that survived
	Lost          int    // max(Declared-Recovered, 0)
}

// Corrupt reports whether any damage was observed.
func (r *CorruptionReport) Corrupt() bool {
	return r.HeaderDamaged || r.BadSpans > 0 || r.SkippedBytes > 0 ||
		r.TruncatedTail || r.Lost > 0
}

// String summarizes the report for logs.
func (r *CorruptionReport) String() string {
	if !r.Corrupt() {
		return "clean"
	}
	s := fmt.Sprintf("recovered %d", r.Recovered)
	if r.Declared > 0 {
		s += fmt.Sprintf("/%d", r.Declared)
	}
	s += fmt.Sprintf(" records, %d corrupt spans, %d bytes skipped", r.BadSpans, r.SkippedBytes)
	if r.HeaderDamaged {
		s += ", header damaged"
	}
	if r.TruncatedTail {
		s += ", truncated"
	}
	return s
}

// Write serializes the trace in the framed (version 3) format.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(frame.AppendPrologue(nil, magic, versionFramed)); err != nil {
		return err
	}
	hdr := make([]byte, fixedHeader+len(t.Program))
	binary.LittleEndian.PutUint64(hdr[0:], uint64(t.Seed))
	binary.LittleEndian.PutUint64(hdr[8:], t.Steps)
	binary.LittleEndian.PutUint32(hdr[16:], uint32(len(t.Program)))
	copy(hdr[20:], t.Program)
	binary.LittleEndian.PutUint64(hdr[20+len(t.Program):], uint64(len(t.Records)))
	var u4 [4]byte
	binary.LittleEndian.PutUint32(u4[:], uint32(len(hdr)))
	if _, err := bw.Write(u4[:]); err != nil {
		return err
	}
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(u4[:], crc32.ChecksumIEEE(hdr))
	if _, err := bw.Write(u4[:]); err != nil {
		return err
	}
	frame := make([]byte, frameSize)
	frame[0], frame[1] = sync0, sync1
	for _, r := range t.Records {
		encodeRecord(frame[2:2+recordPayload], r)
		crc := crc32.ChecksumIEEE(frame[2 : 2+recordPayload])
		binary.LittleEndian.PutUint32(frame[2+recordPayload:], crc)
		if _, err := bw.Write(frame); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadReport deserializes a trace written by Write, or a plain
// (version 2) stream from older tooling. For plain streams it behaves
// exactly like the original reader (any damage is an error). For framed streams corruption is not an error: the
// reader skips damaged spans, resynchronizes on the next checksummed
// frame, and returns the partial trace together with a CorruptionReport
// saying what was lost. The error return is reserved for streams that
// are not traces at all (bad magic, unknown version, unreadable
// prologue).
func ReadReport(r io.Reader) (*Trace, *CorruptionReport, error) {
	br := bufio.NewReader(r)
	pro := make([]byte, frame.PrologueLen)
	if _, err := io.ReadFull(br, pro); err != nil {
		return nil, nil, fmt.Errorf("trace: reading header: %w", err)
	}
	v, err := frame.CheckPrologue(pro, magic)
	if err != nil {
		return nil, nil, ErrBadMagic
	}
	switch v {
	case versionPlain:
		t, err := readPlain(br)
		if err != nil {
			return nil, nil, err
		}
		return t, &CorruptionReport{Declared: uint64(len(t.Records)), Recovered: len(t.Records)}, nil
	case versionFramed:
		t, rep := readFramed(br)
		return t, rep, nil
	default:
		return nil, nil, fmt.Errorf("%w %d", ErrBadVersion, v)
	}
}

// readFramed reads a framed body after the prologue. It never fails:
// whatever survives checksum verification becomes the partial trace.
func readFramed(br *bufio.Reader) (*Trace, *CorruptionReport) {
	t := &Trace{}
	rep := &CorruptionReport{}

	// The body is consumed whole: traces in this system are in-memory
	// objects anyway, and resynchronization needs random access.
	body, err := io.ReadAll(br)
	if err != nil || len(body) == 0 {
		rep.HeaderDamaged = true
		rep.TruncatedTail = true
		return t, rep
	}

	// Header section: u32 length | bytes | u32 crc. On any damage the
	// frame scan restarts at offset 0 — header bytes cannot masquerade
	// as frames without also beating a CRC32.
	start := 0
	if len(body) >= 4 {
		hlen := int(binary.LittleEndian.Uint32(body[0:]))
		if hlen >= fixedHeader && hlen <= fixedHeader+1<<20 && 4+hlen+4 <= len(body) {
			hbytes := body[4 : 4+hlen]
			crc := binary.LittleEndian.Uint32(body[4+hlen:])
			nameLen := int(binary.LittleEndian.Uint32(hbytes[16:]))
			plausible := fixedHeader+nameLen == hlen
			if crc32.ChecksumIEEE(hbytes) != crc {
				rep.HeaderDamaged = true
			}
			// A damaged header is still salvaged when its internal
			// lengths agree; only its fields are suspect, not the
			// record stream that follows.
			if plausible {
				t.Seed = int64(binary.LittleEndian.Uint64(hbytes[0:]))
				t.Steps = binary.LittleEndian.Uint64(hbytes[8:])
				t.Program = string(hbytes[20 : 20+nameLen])
				rep.Declared = binary.LittleEndian.Uint64(hbytes[20+nameLen:])
				start = 4 + hlen + 4
			} else {
				rep.HeaderDamaged = true
			}
		} else {
			rep.HeaderDamaged = true
		}
	} else {
		rep.HeaderDamaged = true
		rep.TruncatedTail = true
		return t, rep
	}
	if rep.HeaderDamaged {
		rep.Declared = 0
	}

	capHint := min(rep.Declared, maxPreallocRecords)
	if byBytes := uint64(len(body)-start) / frameSize; capHint > byBytes {
		capHint = byBytes
	}
	t.Records = make([]Record, 0, capHint)

	inBadRun := false
	i := start
	for i < len(body) {
		if len(body)-i >= frameSize && body[i] == sync0 && body[i+1] == sync1 {
			payload := body[i+2 : i+2+recordPayload]
			crc := binary.LittleEndian.Uint32(body[i+2+recordPayload:])
			if crc32.ChecksumIEEE(payload) == crc {
				t.Records = append(t.Records, decodeRecord(payload))
				i += frameSize
				inBadRun = false
				continue
			}
		}
		// Corrupt byte: start (or continue) a bad run and resync.
		if !inBadRun {
			rep.BadSpans++
			inBadRun = true
		}
		rep.SkippedBytes++
		i++
	}
	if inBadRun {
		rep.TruncatedTail = true
	}
	rep.Recovered = len(t.Records)
	if rep.Declared > uint64(rep.Recovered) {
		rep.Lost = int(rep.Declared) - rep.Recovered
	}
	return t, rep
}
