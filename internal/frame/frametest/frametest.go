// Package frametest holds the one fuzz property every framed codec
// instantiates, so the formats cannot drift apart in what "robust
// decoder" means.
package frametest

import (
	"reflect"
	"testing"
)

// Check applies the codec property to one fuzz input:
//
//   - decode never panics (a panic fails the fuzz target by itself);
//   - an accepted input re-encodes to bytes that decode to an equal
//     value (reflect.DeepEqual);
//   - the re-encoding is linearly bounded by the input, so no length or
//     count field was trusted to fabricate content the input lacks.
//
// decode returns an error for inputs it rejects; encode must succeed on
// every value decode accepted.
func Check[T any](t *testing.T, data []byte, decode func([]byte) (T, error), encode func(T) ([]byte, error)) {
	t.Helper()
	v, err := decode(data)
	if err != nil {
		return
	}
	enc, err := encode(v)
	if err != nil {
		t.Fatalf("re-encoding an accepted input: %v", err)
	}
	if limit := 2*len(data) + 64; len(enc) > limit {
		t.Fatalf("%d input bytes decode to a value that re-encodes to %d bytes", len(data), len(enc))
	}
	v2, err := decode(enc)
	if err != nil {
		t.Fatalf("re-encoded value rejected: %v", err)
	}
	if !reflect.DeepEqual(v, v2) {
		t.Fatalf("round trip changed the value:\nfirst:  %+v\nsecond: %+v", v, v2)
	}
}
