package fleet_test

import (
	"errors"
	"net"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"act/internal/deps"
	"act/internal/fleet"
	"act/internal/fleet/shard"
	"act/internal/obs"
	"act/internal/wire"
)

// TestFleetHealthGateFlushOnShutdown pins the SIGTERM-mid-ship fix: the
// daemons route termination through an obs.Health gate whose shutdown
// hook closes the in-flight router, so evidence the collector cannot
// take lands in the spool instead of dying with the process. This test
// runs the exact hook wiring actagent uses — an atomic current-router
// pointer, a flush hook, a Shutdown from a "signal handler" goroutine —
// against a down collector, then replays the spool into a live one and
// checks nothing was lost.
func TestFleetHealthGateFlushOnShutdown(t *testing.T) {
	dir := t.TempDir()
	spool := spoolFile(dir, "actd")

	var current atomic.Pointer[shard.Router]
	health := obs.NewHealth()
	health.SetReady("agent", true)
	health.OnShutdown("flush-current", func() {
		if rt := current.Load(); rt != nil {
			rt.Close() // idempotent; the error is the spool's to report
		}
	})

	src := &stubSource{}
	src.push(failingEntries(0)...)
	rt, err := shard.NewRouter(src, shard.RouterConfig{
		Shards:   map[string]string{"actd": "collector:0"},
		Name:     "doomed",
		Run:      31,
		SpoolDir: dir,
		Retry:    quickRetry(2),
		Dial: func(string) (net.Conn, error) {
			return nil, errors.New("injected: collector down")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.SetOutcome(wire.OutcomeFailing)
	current.Store(rt)

	// The "SIGTERM": a different goroutine drives the gate, exactly like
	// actagent's signal handler. Shutdown returns only once the hook —
	// and therefore the flush — has completed.
	done := make(chan struct{})
	go func() {
		defer close(done)
		health.Shutdown()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("health.Shutdown did not return")
	}
	if health.Ready() {
		t.Fatal("gate still ready after shutdown")
	}

	if st := rt.Stats(); st.Spooled == 0 || st.Shipped != 0 {
		t.Fatalf("evidence not spooled by the shutdown hook: %+v", st)
	}
	if fi, err := os.Stat(spool); err != nil || fi.Size() == 0 {
		t.Fatalf("spool file missing or empty after shutdown: %v", err)
	}

	// Close after the hook already closed must stay safe (main's deferred
	// Close races the signal path in the daemon). It may re-report the
	// down collector; what matters is the spool survives untouched.
	rt.Close()
	if st := rt.Stats(); st.SpoolDrops != 0 {
		t.Fatalf("second Close dropped the spool: %+v", st)
	}
	if fi, err := os.Stat(spool); err != nil || fi.Size() == 0 {
		t.Fatalf("spool file gone after second Close: %v", err)
	}

	// A later invocation with the same spool and a live collector
	// replays the evidence: the interrupted run lost nothing.
	c, addr := startCollector(t, fleet.CollectorConfig{})
	rt2, err := shard.NewRouter(&stubSource{}, shard.RouterConfig{
		Shards: map[string]string{"actd": addr}, Name: "revived", Run: 32, SpoolDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt2.Flush(); err != nil {
		t.Fatalf("replay flush: %v", err)
	}
	if err := rt2.Close(); err != nil {
		t.Fatal(err)
	}
	if st := rt2.Stats(); st.Replayed == 0 {
		t.Fatalf("spool not replayed: %+v", st)
	}
	waitFor(t, "spooled evidence ingested", func() bool { return c.Stats().Batches >= 1 })
	rep := c.Report()
	if rep.RankOf(func(s deps.Sequence) bool { return s.Key() == bugSeq.Key() }) == 0 {
		t.Fatal("evidence from the interrupted run missing from report")
	}
}
