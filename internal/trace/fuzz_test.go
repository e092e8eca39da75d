package trace

import (
	"bytes"
	"testing"

	"act/internal/frame/frametest"
)

// FuzzRead drives ReadReport with arbitrary bytes under the shared
// codec property (frametest.Check): it must never panic, an accepted
// stream re-written in the framed format must read back to the same
// trace, and the result stays linearly bounded by the input. On top of
// that it must never over-allocate from unvalidated length fields and
// never return both a nil trace and a nil error. Seeds cover both
// formats plus the truncations and bit flips the fault injector
// produces.
func FuzzRead(f *testing.F) {
	var buf bytes.Buffer
	if err := bigTrace(16).Write(&buf); err != nil {
		f.Fatal(err)
	}
	framed := buf.Bytes()
	legacy := readGolden(f, "trace_v2.golden")
	f.Add(framed)
	f.Add(legacy)
	f.Add(framed[:len(framed)/2])
	f.Add(legacy[:len(legacy)/2])
	f.Add(framed[:9])
	f.Add([]byte("ACTT"))
	f.Add([]byte{})
	flipped := append([]byte(nil), framed...)
	flipped[40] ^= 0x10
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		decode := func(data []byte) (*Trace, error) {
			tr, rep, err := ReadReport(bytes.NewReader(data))
			if err != nil {
				if tr != nil {
					t.Fatalf("error %v with non-nil trace", err)
				}
				return nil, err
			}
			if tr == nil || rep == nil {
				t.Fatal("nil trace or report with nil error")
			}
			// Every decoded record consumed at least recordPayload input
			// bytes. A violation means a length field was trusted.
			if len(tr.Records)*recordPayload > len(data) {
				t.Fatalf("%d records from %d input bytes", len(tr.Records), len(data))
			}
			if cap(tr.Records) > maxPreallocRecords && cap(tr.Records) > 2*len(tr.Records) {
				t.Fatalf("capacity %d for %d records: unvalidated preallocation", cap(tr.Records), len(tr.Records))
			}
			if len(tr.Records) == 0 {
				tr.Records = nil // an empty stream and an empty trace are one value
			}
			return tr, nil
		}
		encode := func(tr *Trace) ([]byte, error) {
			var buf bytes.Buffer
			err := tr.Write(&buf)
			return buf.Bytes(), err
		}
		frametest.Check(t, data, decode, encode)
	})
}
