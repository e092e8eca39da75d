// CRC-framed checkpoint files (format "ACTK").
//
// A checkpoint is a flat sequence of typed sections (frame.AppendSection),
// each individually checksummed, closed by a terminator section:
//
//	prologue:   magic "ACTK" | u16 version=1 | u16 reserved
//	section:    u8 kind | u32 length | payload |
//	            u32 crc32(kind | length | payload)
//	terminator: u8 0xFF | u32 0 | u32 crc32(0xFF | 0)
//
// The terminator distinguishes a complete file from one truncated
// mid-write, and trailing bytes after it are rejected — a checkpoint is
// all-or-nothing.
//
// Section kinds are owned by the layers above: core uses the 1..63
// range for replay state (header, extractor, modules), stages uses
// 64..254 for stage results (ranked report, RCA verdicts). This package
// only frames and checksums.
//
// WriteFile is atomic (frame.WriteFile: temp file, fsync, rename): a
// crash mid-checkpoint leaves the previous complete checkpoint in
// place, never a torn one.
package pipeline

import (
	"errors"
	"fmt"

	"act/internal/frame"
)

// Checkpoint format constants.
const (
	CkptMagic   = "ACTK"
	CkptVersion = 1

	// ckptTerminator marks the end of a complete checkpoint.
	ckptTerminator = 0xFF

	// ckptMaxSection caps a declared section length; a corrupted length
	// field must not provoke a multi-gigabyte allocation.
	ckptMaxSection = 1 << 30
)

// Checkpoint parse errors. ErrCkptCorrupt covers truncation, CRC
// mismatch, oversized sections, and trailing garbage — everything a
// torn or bit-flipped file can present.
var (
	ErrCkptMagic   = errors.New("pipeline: not a checkpoint file (bad magic)")
	ErrCkptVersion = errors.New("pipeline: unsupported checkpoint version")
	ErrCkptCorrupt = errors.New("pipeline: corrupt checkpoint")
)

// Section is one typed span of a checkpoint.
type Section struct {
	Kind byte
	Data []byte
}

// AppendCheckpoint serializes a complete checkpoint (prologue, the
// sections in order, terminator) onto dst.
func AppendCheckpoint(dst []byte, sections []Section) []byte {
	dst = frame.AppendPrologue(dst, CkptMagic, CkptVersion)
	for _, s := range sections {
		dst = frame.AppendSection(dst, s.Kind, s.Data)
	}
	return frame.AppendSection(dst, ckptTerminator, nil)
}

// ParseCheckpoint validates a checkpoint image and returns its sections
// in file order. Section data aliases the input. Any structural damage
// — bad magic, wrong version, truncation, CRC mismatch, a missing
// terminator, trailing bytes — yields an error wrapping one of the
// sentinel errors above; a parsed checkpoint is therefore known whole.
func ParseCheckpoint(data []byte) ([]Section, error) {
	v, err := frame.CheckPrologue(data, CkptMagic)
	if err != nil {
		return nil, ErrCkptMagic
	}
	if v != CkptVersion {
		return nil, fmt.Errorf("%w: %d", ErrCkptVersion, v)
	}
	var out []Section
	for off := frame.PrologueLen; ; {
		kind, payload, n, err := frame.ParseSection(data[off:], ckptMaxSection)
		if err != nil {
			return nil, fmt.Errorf("%w: %v at byte %d", ErrCkptCorrupt, err, off)
		}
		off += n
		if kind == ckptTerminator {
			if off != len(data) {
				return nil, fmt.Errorf("%w: %d trailing bytes", ErrCkptCorrupt, len(data)-off)
			}
			return out, nil
		}
		out = append(out, Section{Kind: kind, Data: payload})
	}
}

// WriteFile writes a checkpoint image atomically (frame.WriteFile) and
// counts it in the act_pipeline_checkpoint_* series.
func WriteFile(path string, data []byte) error {
	if err := frame.WriteFile(path, data); err != nil {
		return err
	}
	statCkptWrites.Inc()
	statCkptBytes.Add(uint64(len(data)))
	return nil
}
