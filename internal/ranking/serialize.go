package ranking

import (
	"errors"
	"fmt"
	"io"

	"act/internal/frame"
	"act/internal/wire"
)

// Report persistence. A diagnosis report used to be print-only; fleet
// operation needs it as an artifact — saved by actdiag or actd, loaded
// later to re-rank under a different strategy or to merge with newer
// evidence. The format reuses the wire package's entry codec inside a
// frame.Seal:
//
//	magic "ACTR" | u16 version=1 | u16 reserved
//	u32 total | u32 pruned | u32 candidate count
//	per candidate: u32 matches | u32 runs | wire entry
//	u32 crc32(everything after the magic/version prologue)

const (
	reportMagic   = "ACTR"
	reportVersion = 1
)

// Report-file errors.
var (
	ErrReportMagic   = errors.New("ranking: not a report file")
	ErrReportVersion = errors.New("ranking: unsupported report version")
	ErrReportCRC     = errors.New("ranking: report body fails its checksum")
)

// AppendReport serializes the report body — counts and candidates, no
// magic, version, or checksum — to dst and returns the extended slice.
// This is the embeddable form: the RCA verdict format (internal/rca)
// wraps it inside its own framed file, and Save seals it with the
// stand-alone report prologue. Entries' output trajectories
// (DebugEntry.Traj) are provenance, not identity, and are not encoded.
func (r *Report) AppendReport(dst []byte) []byte {
	e := frame.Enc{B: dst}
	e.U32(uint32(r.Total))
	e.U32(uint32(r.Pruned))
	e.U32(uint32(len(r.Ranked)))
	for _, c := range r.Ranked {
		e.U32(uint32(c.Matches))
		e.U32(uint32(c.Runs))
		e.B = wire.AppendEntry(e.B, c.Entry)
	}
	return e.B
}

// DecodeReport parses a report body produced by AppendReport, returning
// the report and the bytes consumed. Trailing bytes are the caller's:
// an embedding format may continue after the report section.
func DecodeReport(body []byte) (*Report, int, error) {
	d := frame.NewDec(body, "ranking: report")
	r := &Report{Total: int(d.U32()), Pruned: int(d.U32())}
	count := d.Count(8 + wire.EntryMinSize)
	for i := 0; i < count && d.Err() == nil; i++ {
		c := Candidate{Matches: int(d.U32()), Runs: int(d.U32())}
		wire.ReadEntry(d, &c.Entry)
		r.Ranked = append(r.Ranked, c)
	}
	if err := d.Err(); err != nil {
		return nil, 0, err
	}
	return r, d.Off(), nil
}

// Save writes the report. The full candidate state round-trips:
// LoadReport followed by Resort reproduces any strategy's ordering
// without access to the Correct Set.
func (r *Report) Save(w io.Writer) error {
	body := r.AppendReport(make([]byte, 0, 64+len(r.Ranked)*64))
	_, err := w.Write(frame.Seal(reportMagic, reportVersion, body))
	return err
}

// LoadReport reads a report written by Save, verifying the checksum.
func LoadReport(rd io.Reader) (*Report, error) {
	data, err := io.ReadAll(rd)
	if err != nil {
		return nil, err
	}
	v, body, err := frame.Open(data, reportMagic)
	switch {
	case errors.Is(err, frame.ErrMagic):
		return nil, fmt.Errorf("%w (%d bytes)", ErrReportMagic, len(data))
	case v != reportVersion:
		return nil, fmt.Errorf("%w %d", ErrReportVersion, v)
	case err != nil:
		return nil, ErrReportCRC
	}
	r, off, err := DecodeReport(body)
	if err != nil {
		return nil, err
	}
	if off != len(body) {
		return nil, fmt.Errorf("ranking: %d trailing bytes after report", len(body)-off)
	}
	return r, nil
}
