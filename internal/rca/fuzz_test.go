package rca

import (
	"bytes"
	"testing"

	"act/internal/frame/frametest"
)

// FuzzLoadRCA throws arbitrary bytes at the verdict-file loader under
// the shared codec property (frametest.Check): Load never panics, and
// any input it accepts must round-trip — saving the loaded report and
// loading it again yields the same report. Damaged inputs must come
// back as errors, not as garbage verdicts.
func FuzzLoadRCA(f *testing.F) {
	seeds := []*Report{
		Analyze(testReport(), Provenance{}),
		engineReport(),
		Analyze(testReport(), Provenance{Limit: 1, Bug: "x", CorrectRuns: 3}),
	}
	for _, r := range seeds {
		var buf bytes.Buffer
		if err := r.Save(&buf); err != nil {
			f.Fatalf("seed save: %v", err)
		}
		f.Add(buf.Bytes())
		if buf.Len() > 12 {
			flipped := append([]byte(nil), buf.Bytes()...)
			flipped[buf.Len()/2] ^= 0x40
			f.Add(flipped)
			f.Add(buf.Bytes()[:buf.Len()-5])
		}
	}
	f.Add([]byte{})
	f.Add([]byte("ACTV"))

	f.Fuzz(func(t *testing.T, data []byte) {
		frametest.Check(t, data, func(b []byte) (*Report, error) {
			return Load(bytes.NewReader(b))
		}, func(r *Report) ([]byte, error) {
			var buf bytes.Buffer
			err := r.Save(&buf)
			return buf.Bytes(), err
		})
	})
}
