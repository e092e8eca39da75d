package ranking

import (
	"bytes"
	"testing"

	"act/internal/core"
	"act/internal/deps"
	"act/internal/frame/frametest"
)

// fuzzSeedReports builds representative reports whose Save output seeds
// the corpus: empty, single-candidate, and multi-candidate with full
// sequences.
func fuzzSeedReports() []*Report {
	seq := deps.Sequence{
		{S: 0x400100, L: 0x400200, Inter: false},
		{S: 0x400300, L: 0x400400, Inter: true},
	}
	return []*Report{
		{},
		{Total: 3, Pruned: 1, Ranked: []Candidate{
			{Matches: 2, Runs: 1, Entry: core.DebugEntry{
				Seq: seq, Output: 0.12, At: 7, Mode: core.Testing, Proc: 3,
			}},
		}},
		{Total: 10, Pruned: 4, Ranked: []Candidate{
			{Matches: 5, Runs: 2, Entry: core.DebugEntry{Seq: seq.Clone(), Output: 0.01, At: 1}},
			{Matches: 1, Runs: 1, Entry: core.DebugEntry{Seq: deps.Sequence{{S: 1, L: 2}}, Output: 0.49, At: 2, Mode: core.Training}},
			{Matches: 0, Runs: 0, Entry: core.DebugEntry{}},
		}},
	}
}

// FuzzLoad throws arbitrary bytes at LoadReport under the shared codec
// property (frametest.Check): it must never panic, and any input it
// accepts must round-trip — saving the loaded report and loading it
// again yields the same report. Corrupted or truncated inputs must come
// back as errors, not as garbage reports.
func FuzzLoad(f *testing.F) {
	for _, r := range fuzzSeedReports() {
		var buf bytes.Buffer
		if err := r.Save(&buf); err != nil {
			f.Fatalf("seed save: %v", err)
		}
		f.Add(buf.Bytes())
		// Damaged variants of a valid file exercise the CRC and
		// truncation paths from interesting starting points.
		if buf.Len() > 12 {
			flipped := append([]byte(nil), buf.Bytes()...)
			flipped[buf.Len()/2] ^= 0x40
			f.Add(flipped)
			f.Add(buf.Bytes()[:buf.Len()-5])
		}
	}
	f.Add([]byte{})
	f.Add([]byte("ACTR"))

	f.Fuzz(func(t *testing.T, data []byte) {
		frametest.Check(t, data, func(b []byte) (*Report, error) {
			return LoadReport(bytes.NewReader(b))
		}, func(r *Report) ([]byte, error) {
			var buf bytes.Buffer
			err := r.Save(&buf)
			return buf.Bytes(), err
		})
	})
}
