// FuzzLoadCheckpoint: checkpoint loading must never panic on arbitrary
// bytes — a torn or hostile checkpoint file is an expected production
// input — and every image it does accept must round-trip under the
// shared codec property (frametest.Check): decode, re-encode from the
// decoded state, decode again, identical state.
package core

import (
	"testing"

	"act/internal/deps"
	"act/internal/frame/frametest"
	"act/internal/pipeline"
)

// fuzzImage builds a small valid checkpoint image for the seed corpus.
func fuzzImage(tb testing.TB, records int, extra ...pipeline.Section) []byte {
	tb.Helper()
	tr := randTrace(17, 3, records)
	nIn := deps.InputLen(deps.EncodeDefault, 2)
	t := NewTracker(NewWeightBinary(nIn, 6), TrackerConfig{Module: Config{N: 2, CheckInterval: 100}, Seed: 3})
	t.Replay(tr)
	img, err := t.EncodeCheckpoint(tr, records, extra...)
	if err != nil {
		tb.Fatalf("seed image: %v", err)
	}
	return img
}

func FuzzLoadCheckpoint(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("ACTK"))
	f.Add([]byte("ACTW\x01\x00\x00\x00"))
	full := fuzzImage(f, 2000, pipeline.Section{Kind: 64, Data: []byte("stage")})
	f.Add(full)
	f.Add(full[:len(full)/2])
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	f.Add(fuzzImage(f, 100))

	f.Fuzz(func(t *testing.T, data []byte) {
		frametest.Check(t, data, canonicalCheckpoint, func(img []byte) ([]byte, error) { return img, nil })
	})
}

// canonicalCheckpoint decodes an image and re-encodes the decoded state
// section by section: the canonical bytes of what the decoder accepted.
// Comparing canonical bytes rather than decoded states keeps NaN
// weights (a fault campaign's normal input) comparable.
func canonicalCheckpoint(data []byte) ([]byte, error) {
	hdr, st, extra, err := DecodeCheckpoint(data)
	if err != nil {
		return nil, err
	}
	sections := []pipeline.Section{
		{Kind: ckptKindHeader, Data: encodeHeader(hdr)},
		{Kind: ckptKindExtractor, Data: encodeExtractor(st.Extractor)},
	}
	for i := range st.Modules {
		sections = append(sections, pipeline.Section{Kind: ckptKindModule, Data: encodeModule(&st.Modules[i])})
	}
	return pipeline.AppendCheckpoint(nil, append(sections, extra...)), nil
}
