package fleet

import (
	"io"
	"net"
	"os"
	"time"

	"act/internal/core"
	"act/internal/wire"
)

// Source is what a shipping client drains: a deployed monitor
// (act.Monitor via act.ShipTo) or anything else that accumulates Debug
// Buffer entries. Drain returns the entries logged since the previous
// drain — clearing them — plus a snapshot of the cumulative counters.
type Source interface {
	Drain() ([]core.DebugEntry, core.Stats)
}

// Spool files hold undeliverable batches in wire format: a full stream
// (prologue + frames) appended to across outages, replayed and removed
// once a collector takes the evidence. One on-disk format, one damage
// model: a crash mid-append costs only the torn frame.

// SpoolSize returns the size of the spool file at path, 0 when the
// path is empty or the file is absent.
func SpoolSize(path string) int64 {
	if path == "" {
		return 0
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// AppendSpool appends batches to the spool file at path. A spool
// already past maxBytes is dropped and restarted first: under
// sustained outage the newest evidence is the evidence worth keeping.
// Returns how many batches were written (a prefix of batches — an
// error mid-append keeps the rest with the caller) and whether the
// spool was reset.
func AppendSpool(path string, maxBytes int64, batches []*wire.Batch) (written int, reset bool, err error) {
	if len(batches) == 0 {
		return 0, false, nil
	}
	if fi, err := os.Stat(path); err == nil && fi.Size() > maxBytes {
		os.Remove(path)
		reset = true
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, reset, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, reset, err
	}
	var wr *wire.Writer
	if fi.Size() == 0 {
		wr = wire.NewWriter(f) // fresh spool: full stream with prologue
	} else {
		wr = wire.NewRawWriter(f) // appending frames mid-stream
	}
	for _, b := range batches {
		if err := wr.WriteBatch(b); err != nil {
			return written, reset, err
		}
		written++
	}
	return written, reset, nil
}

// ReadSpool parses every intact batch in the spool file. Damage inside
// the spool is skipped frame-wise, exactly like damage on the wire, and
// counted in the returned report; a missing file is an empty spool, not
// an error. The file is left in place — callers remove it once the
// batches are safely delivered.
func ReadSpool(path string) ([]*wire.Batch, wire.StreamReport, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, wire.StreamReport{}, nil
		}
		return nil, wire.StreamReport{}, err
	}
	defer f.Close()
	rd := wire.NewReader(f, 0)
	var out []*wire.Batch
	for {
		b, err := rd.Next()
		if err != nil {
			break // EOF or a spool too damaged to continue; keep what decoded
		}
		out = append(out, b)
	}
	return out, rd.Report(), nil
}

// deadlineWriter arms a fresh write deadline before every write, so a
// peer that accepts but never reads fails the ship with a timeout
// instead of stalling the caller indefinitely — the write-side twin of
// the collector's deadlineReader.
type deadlineWriter struct {
	conn net.Conn
	d    time.Duration
}

// DeadlineWriter wraps conn so every write is bounded by d; d <= 0
// returns conn unchanged.
func DeadlineWriter(conn net.Conn, d time.Duration) io.Writer {
	if d <= 0 {
		return conn
	}
	return &deadlineWriter{conn: conn, d: d}
}

func (w *deadlineWriter) Write(p []byte) (int, error) {
	w.conn.SetWriteDeadline(time.Now().Add(w.d))
	return w.conn.Write(p)
}
