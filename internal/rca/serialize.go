package rca

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"act/internal/frame"
	"act/internal/ranking"
)

// Verdict-file persistence. An RCA report is the artifact collectors
// ship upward, so it needs the same treatment ranking reports got: a
// sealed (frame.Seal), checksummed, versioned binary form that
// round-trips exactly.
// The ranking body embeds via ranking.AppendReport/DecodeReport; each
// verdict then references its candidate by rank, so dependence windows
// are stored once (inside the ranking body) and reconstructed on load.
//
//	magic "ACTV" | u16 version=1 | u16 reserved
//	u8 bug-name length | bug name
//	u32 correct runs
//	u32 ranking-body length | ranking body (ranking.AppendReport)
//	u32 verdict count
//	per verdict:
//	  u32 rank | u8 kind | u8 scope | u8 lock-adjacent
//	  u16 proc | u32 thread | u64 store PC | u64 load PC
//	  u8 store-sym length | store sym | u8 load-sym length | load sym
//	  f64 confidence
//	  u32 matched | u32 runs | u32 pruned neighbors
//	  u8 trajectory length | f64 per sample
//	u32 crc32(everything after the magic/version prologue)
//
// Trajectories are serialized per verdict because the embedded ranking
// body (the wire entry codec) deliberately does not carry them.

const (
	verdictMagic   = "ACTV"
	verdictVersion = 1
)

// Verdict-file errors.
var (
	ErrVerdictMagic   = errors.New("rca: not a verdict file")
	ErrVerdictVersion = errors.New("rca: unsupported verdict-file version")
	ErrVerdictCRC     = errors.New("rca: verdict body fails its checksum")
)

// appendBody serializes everything between the prologue and the CRC.
func (r *Report) appendBody(dst []byte) ([]byte, error) {
	e := frame.Enc{B: dst}
	if err := putStr8(&e, r.Bug); err != nil {
		return nil, err
	}
	e.U32(uint32(r.CorrectRuns))
	ranked := r.Ranked
	if ranked == nil {
		ranked = &ranking.Report{Total: r.Total, Pruned: r.Pruned}
	}
	body := ranked.AppendReport(nil)
	e.U32(uint32(len(body)))
	e.B = append(e.B, body...)
	e.U32(uint32(len(r.Verdicts)))
	for i, v := range r.Verdicts {
		if v.Rank < 1 || v.Rank > len(ranked.Ranked) {
			return nil, fmt.Errorf("rca: verdict %d has rank %d outside ranked set of %d", i, v.Rank, len(ranked.Ranked))
		}
		e.U32(uint32(v.Rank))
		e.U8(byte(v.Kind))
		e.U8(byte(v.Scope))
		e.Bool(v.LockAdjacent)
		e.U16(v.Site.Proc)
		e.U32(uint32(v.Site.Thread))
		e.U64(v.Site.StorePC)
		e.U64(v.Site.LoadPC)
		if err := putStr8(&e, v.Site.StoreSym); err != nil {
			return nil, err
		}
		if err := putStr8(&e, v.Site.LoadSym); err != nil {
			return nil, err
		}
		e.F64(v.Confidence)
		e.U32(uint32(v.Evidence.Matched))
		e.U32(uint32(v.Evidence.Runs))
		e.U32(uint32(v.Evidence.PrunedNeighbors))
		if len(v.Evidence.Trajectory) > 255 {
			return nil, fmt.Errorf("rca: verdict %d trajectory of %d samples exceeds 255", i, len(v.Evidence.Trajectory))
		}
		e.U8(byte(len(v.Evidence.Trajectory)))
		for _, o := range v.Evidence.Trajectory {
			e.F64(o)
		}
	}
	return e.B, nil
}

// putStr8 appends a u8-length-prefixed string.
func putStr8(e *frame.Enc, s string) error {
	if len(s) > 255 {
		return fmt.Errorf("rca: string %q exceeds 255 bytes", s[:16]+"…")
	}
	e.U8(byte(len(s)))
	e.B = append(e.B, s...)
	return nil
}

// Save writes the report in the framed verdict format. Save is
// canonical for engine-produced reports: saving, loading, and saving
// again yields byte-identical output.
func (r *Report) Save(w io.Writer) error {
	body, err := r.appendBody(make([]byte, 0, 256+len(r.Verdicts)*128))
	if err != nil {
		return err
	}
	_, err = w.Write(frame.Seal(verdictMagic, verdictVersion, body))
	return err
}

// Load reads a report written by Save, verifying the checksum and every
// enum and rank reference. Verdict windows are reconstructed from the
// embedded ranking body; trajectories come from the verdict records.
func Load(rd io.Reader) (*Report, error) {
	data, err := io.ReadAll(rd)
	if err != nil {
		return nil, err
	}
	v, body, err := frame.Open(data, verdictMagic)
	switch {
	case errors.Is(err, frame.ErrMagic):
		return nil, fmt.Errorf("%w (%d bytes)", ErrVerdictMagic, len(data))
	case v != verdictVersion:
		return nil, fmt.Errorf("%w %d", ErrVerdictVersion, v)
	case err != nil:
		return nil, ErrVerdictCRC
	}
	return decodeBody(body)
}

// verdictMinSize is the encoded size of a verdict with empty symbols
// and no trajectory.
const verdictMinSize = 4 + 3 + 2 + 4 + 8 + 8 + 1 + 1 + 8 + 12 + 1

func decodeBody(body []byte) (*Report, error) {
	d := frame.NewDec(body, "rca: verdict file")
	r := &Report{Bug: d.Str8(), CorrectRuns: int(d.U32())}
	rbody := d.Take(int(d.U32()))
	if err := d.Err(); err != nil {
		return nil, err
	}
	ranked, n, err := ranking.DecodeReport(rbody)
	if err != nil {
		return nil, err
	}
	if n != len(rbody) {
		return nil, fmt.Errorf("rca: %d trailing bytes in ranking body", len(rbody)-n)
	}
	r.Ranked = ranked
	r.Total, r.Pruned = ranked.Total, ranked.Pruned

	count := d.Count(verdictMinSize)
	for i := 0; i < count && d.Err() == nil; i++ {
		var v Verdict
		v.Rank = int(d.U32())
		v.Kind = DefectKind(d.U8())
		v.Scope = Scope(d.U8())
		la := d.U8()
		v.Site.Proc = d.U16()
		v.Site.Thread = int(d.U32())
		v.Site.StorePC = d.U64()
		v.Site.LoadPC = d.U64()
		v.Site.StoreSym = d.Str8()
		v.Site.LoadSym = d.Str8()
		v.Confidence = d.F64()
		v.Evidence.Matched = int(d.U32())
		v.Evidence.Runs = int(d.U32())
		v.Evidence.PrunedNeighbors = int(d.U32())
		for j, tn := 0, int(d.U8()); j < tn && d.Err() == nil; j++ {
			v.Evidence.Trajectory = append(v.Evidence.Trajectory, d.F64())
		}
		switch {
		case v.Rank < 1 || v.Rank > len(ranked.Ranked):
			d.Fail("verdict %d rank %d outside ranked set of %d", i, v.Rank, len(ranked.Ranked))
		case v.Kind < KindUnknown || v.Kind > KindSequential:
			d.Fail("verdict %d has invalid kind %d", i, int(v.Kind))
		case v.Scope < ScopeUnknown || v.Scope > ScopeInter:
			d.Fail("verdict %d has invalid scope %d", i, int(v.Scope))
		case la > 1:
			d.Fail("verdict %d has invalid lock-adjacent flag %d", i, la)
		case math.IsNaN(v.Confidence) || v.Confidence < 0 || v.Confidence > 1:
			d.Fail("verdict %d has confidence outside [0,1]", i)
		case slices.ContainsFunc(v.Evidence.Trajectory, math.IsNaN):
			d.Fail("verdict %d has a NaN trajectory sample", i)
		}
		if d.Err() != nil {
			break
		}
		v.KindName, v.ScopeName = v.Kind.String(), v.Scope.String()
		v.LockAdjacent = la == 1
		// The window is stored once, in the ranking body.
		v.Evidence.Window = evWindow(ranked.Ranked[v.Rank-1].Entry.Seq)
		r.Verdicts = append(r.Verdicts, v)
	}
	if err := d.End(); err != nil {
		return nil, err
	}
	return r, nil
}
