// Package frame is the one binary framing layer of the repository's
// on-disk and on-wire artifacts: traces (ACTT), the fleet wire stream
// (ACTW), ranked reports (ACTR), RCA verdicts (ACTV), collector state
// (ACTS) and replay checkpoints (ACTK). Each format owns its magic, its
// versions and its payload layout; this package owns what they share:
//
//	prologue: magic (4 bytes) | u16 version | u16 reserved
//	seal:     prologue | body | u32 crc32(body)
//	section:  u8 kind | u32 length | payload |
//	          u32 crc32(kind | length | payload)
//
// plus a little-endian byte cursor (Enc, Dec) for the bodies and an
// atomic file writer. All integers are little-endian and every CRC is
// IEEE CRC32. A section's CRC covers its kind and length bytes, so a
// corrupted length cannot smuggle garbage past the check.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
)

// Framing errors. Formats translate them into their own exported
// sentinels, which callers match with errors.Is.
var (
	// ErrMagic: the data does not start with the expected magic (or is
	// too short to hold a prologue, or a seal).
	ErrMagic = errors.New("frame: bad magic")
	// ErrCRC: a seal or section fails its checksum.
	ErrCRC = errors.New("frame: checksum mismatch")
)

// PrologueLen is the encoded size of a prologue.
const PrologueLen = 4 + 2 + 2

// AppendPrologue appends magic, version and a zero reserved field.
func AppendPrologue(dst []byte, magic string, version uint16) []byte {
	dst = binary.LittleEndian.AppendUint16(append(dst, magic...), version)
	return append(dst, 0, 0)
}

// CheckPrologue returns the version of a prologue at the start of data,
// or ErrMagic when data does not start with one carrying magic.
func CheckPrologue(data []byte, magic string) (uint16, error) {
	if len(data) < PrologueLen || string(data[:4]) != magic {
		return 0, ErrMagic
	}
	return binary.LittleEndian.Uint16(data[4:]), nil
}

// Seal frames body as a whole-file artifact: prologue | body |
// crc32(body).
func Seal(magic string, version uint16, body []byte) []byte {
	out := AppendPrologue(make([]byte, 0, PrologueLen+len(body)+4), magic, version)
	out = append(out, body...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
}

// Open unseals data written by Seal. The version is returned even with
// ErrCRC, so a format can report an unknown version ahead of a checksum
// mismatch; the body aliases data.
func Open(data []byte, magic string) (version uint16, body []byte, err error) {
	version, err = CheckPrologue(data, magic)
	if err != nil || len(data) < PrologueLen+4 {
		return 0, nil, ErrMagic
	}
	body = data[PrologueLen : len(data)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return version, nil, ErrCRC
	}
	return version, body, nil
}

// Section framing sizes.
const (
	SectionHeader = 1 + 4 // kind byte, payload length
	SectionTail   = 4     // crc32
)

// AppendSection frames one typed, checksummed section.
func AppendSection(dst []byte, kind byte, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, kind)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// ParseSection reads the section at the start of data, returning its
// kind, its payload (aliasing data) and the bytes it occupies. A
// declared length above maxLen, or past the end of data, is an error,
// checked before the length is trusted for anything else.
func ParseSection(data []byte, maxLen int) (kind byte, payload []byte, n int, err error) {
	if len(data) < SectionHeader+SectionTail {
		return 0, nil, 0, fmt.Errorf("frame: truncated section (%d bytes)", len(data))
	}
	kind = data[0]
	plen := int(binary.LittleEndian.Uint32(data[1:]))
	n = SectionHeader + plen + SectionTail
	if plen < 0 || plen > maxLen || len(data) < n { // plen < 0 where int is 32 bits
		return kind, nil, 0, fmt.Errorf("frame: section kind %d declares %d bytes", kind, plen)
	}
	if crc32.ChecksumIEEE(data[:n-SectionTail]) != binary.LittleEndian.Uint32(data[n-SectionTail:]) {
		return kind, nil, 0, fmt.Errorf("%w in section kind %d", ErrCRC, kind)
	}
	return kind, data[SectionHeader : n-SectionTail], n, nil
}

// Enc appends little-endian primitives to B.
type Enc struct{ B []byte }

func (e *Enc) U8(v byte)     { e.B = append(e.B, v) }
func (e *Enc) U16(v uint16)  { e.B = binary.LittleEndian.AppendUint16(e.B, v) }
func (e *Enc) U32(v uint32)  { e.B = binary.LittleEndian.AppendUint32(e.B, v) }
func (e *Enc) U64(v uint64)  { e.B = binary.LittleEndian.AppendUint64(e.B, v) }
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }
func (e *Enc) Bool(v bool)   { e.U8(b2u8(v)) }

func b2u8(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// Dec consumes little-endian primitives with a sticky error: after the
// first failure every read returns zero and the error surfaces once, at
// Err or End. Every read is bounds-checked, so arbitrary (fuzzed) input
// never indexes out of range.
type Dec struct {
	b      []byte
	off    int
	err    error
	prefix string
}

// NewDec reads data; prefix names the format in error messages.
func NewDec(data []byte, prefix string) *Dec { return &Dec{b: data, prefix: prefix} }

// Fail records the first error; later failures are dropped.
func (d *Dec) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(d.prefix+": "+format, args...)
	}
}

// Err returns the first failure, or nil.
func (d *Dec) Err() error { return d.err }

// Off returns the bytes consumed so far.
func (d *Dec) Off() int { return d.off }

// Rest returns the unconsumed input (nil after a failure).
func (d *Dec) Rest() []byte {
	if d.err != nil {
		return nil
	}
	return d.b[d.off:]
}

// Take consumes n bytes, returning them aliased (nil on failure).
func (d *Dec) Take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.b)-d.off < n {
		d.Fail("truncated at byte %d (want %d more)", d.off, n)
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

var zeros [8]byte

// fixed consumes n <= 8 bytes, or yields zeros once d has failed.
func (d *Dec) fixed(n int) []byte {
	if b := d.Take(n); b != nil {
		return b
	}
	return zeros[:n]
}

func (d *Dec) U8() byte     { return d.fixed(1)[0] }
func (d *Dec) U16() uint16  { return binary.LittleEndian.Uint16(d.fixed(2)) }
func (d *Dec) U32() uint32  { return binary.LittleEndian.Uint32(d.fixed(4)) }
func (d *Dec) U64() uint64  { return binary.LittleEndian.Uint64(d.fixed(8)) }
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Str8 reads a u8 length and that many bytes.
func (d *Dec) Str8() string { return string(d.Take(int(d.U8()))) }

// Count reads a u32 element count and bounds it: each element occupies
// at least minSize encoded bytes, so a count the remaining input cannot
// hold is corruption, caught before anything is allocated for it.
func (d *Dec) Count(minSize int) int {
	n := int(d.U32())
	if d.err == nil && n*minSize > len(d.b)-d.off {
		d.Fail("count %d exceeds remaining %d bytes", n, len(d.b)-d.off)
		return 0
	}
	return n
}

// End fails on unconsumed input and returns the first failure.
func (d *Dec) End() error {
	if d.err == nil && d.off != len(d.b) {
		d.Fail("%d trailing bytes", len(d.b)-d.off)
	}
	return d.err
}

// WriteFile replaces path with data atomically: the bytes land in a
// uniquely named temp file in the same directory, are synced, and
// replace path with one rename. A kill at any instant leaves the old
// file or the new one, never a torn one, and concurrent writers of one
// path never share a temp file.
func WriteFile(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}
