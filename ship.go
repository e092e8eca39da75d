package act

import (
	"errors"
	"sync"
	"time"

	"act/internal/core"
	"act/internal/fleet/shard"
	"act/internal/loader"
	"act/internal/wire"
)

// Fleet shipping: a deployed Monitor's Debug Buffer and statistics can
// be shipped to an actd collector, which merges evidence across the
// whole fleet and ranks sequences seen in many failing runs but few
// correct ones first. See DESIGN.md §9 for the protocol.

// DrainDebugBuffer returns every module's logged suspicious sequences
// (as DebugBuffer does) and clears the buffers, so successive drains
// see only new evidence. This is what fleet shipping uses; a harness
// feeding the Monitor from several goroutines must hold the same lock
// around this call as around OnLoad/OnStore.
func (mo *Monitor) DrainDebugBuffer() []DebugEntry {
	buf := mo.tracker.DebugBuffers()
	mo.tracker.ResetDebug()
	return buf
}

// ShipOption adjusts fleet shipping.
type ShipOption func(*shipCfg)

type shipCfg struct {
	router shard.RouterConfig
	mu     sync.Locker
}

// WithShipIdentity names the agent and its current run in shipped
// batches. The run id must be unique per monitored execution of this
// agent — the collector counts evidence per (agent, run).
func WithShipIdentity(name string, run uint64) ShipOption {
	return func(c *shipCfg) { c.router.Name = name; c.router.Run = run }
}

// WithShipInterval sets the background drain-and-ship cadence
// (default 2s).
func WithShipInterval(d time.Duration) ShipOption {
	return func(c *shipCfg) { c.router.Interval = d }
}

// WithShipSpoolDir stores undeliverable batches in a spool file inside
// dir (created if missing) and replays them when the collector comes
// back — a collector outage then loses nothing.
func WithShipSpoolDir(dir string) ShipOption {
	return func(c *shipCfg) { c.router.SpoolDir = dir }
}

// WithShipRetry overrides the per-ship retry policy (default: 4
// attempts, 10ms base delay, 250ms cap).
func WithShipRetry(cfg loader.RetryConfig) ShipOption {
	return func(c *shipCfg) { c.router.Retry = cfg }
}

// WithShipLock makes the shipper take mu around every drain of the
// Monitor. Pass the same mutex that guards your OnLoad/OnStore calls
// when the Monitor is fed from goroutines.
func WithShipLock(mu sync.Locker) ShipOption {
	return func(c *shipCfg) { c.mu = mu }
}

// Shipper periodically drains a Monitor's Debug Buffer and ships it to
// an actd collector, retrying, spooling, and redelivering as needed;
// delivery is at-least-once and the collector deduplicates. It is a
// shard.Router over a one-entry ring, so the collector sits behind a
// circuit breaker: after 3 failed deliveries in a row, Flush spools
// without dialing until a backoff (100ms, doubling to 30s) admits a
// probe.
type Shipper struct {
	router *shard.Router
}

// monitorSource adapts a Monitor to the router's Source.
type monitorSource struct {
	mon *Monitor
	mu  sync.Locker
}

func (s *monitorSource) Drain() ([]DebugEntry, core.Stats) {
	if s.mu != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	return s.mon.DrainDebugBuffer(), s.mon.Stats()
}

// ShipTo starts shipping mon's evidence to the collector at addr
// (host:port) in the background. Call MarkFailing or MarkCorrect when
// the monitored program's fate is known, and Close on the way out.
func ShipTo(addr string, mon *Monitor, opts ...ShipOption) (*Shipper, error) {
	if addr == "" {
		return nil, errors.New("act: ShipTo needs a collector address")
	}
	cfg := shipCfg{}
	cfg.router.Shards = map[string]string{addr: addr}
	for _, o := range opts {
		o(&cfg)
	}
	rt, err := shard.NewRouter(&monitorSource{mon: mon, mu: cfg.mu}, cfg.router)
	if err != nil {
		return nil, err
	}
	rt.Start()
	return &Shipper{router: rt}, nil
}

// MarkFailing labels this run's evidence as coming from a failing
// execution — call it from your crash handler, then Close (or Flush).
func (s *Shipper) MarkFailing() { s.router.SetOutcome(wire.OutcomeFailing) }

// MarkCorrect labels this run's evidence as coming from a correct
// execution; the collector uses such runs to prune false positives
// fleet-wide.
func (s *Shipper) MarkCorrect() { s.router.SetOutcome(wire.OutcomeCorrect) }

// Flush drains and ships synchronously, returning the delivery error
// if the collector could not be reached; the error says whether the
// evidence went to the spool instead.
func (s *Shipper) Flush() error { return s.router.Flush() }

// Close performs a final flush and stops the background loop.
func (s *Shipper) Close() error { return s.router.Close() }

// ShipStats reports the shipper's activity counters.
func (s *Shipper) ShipStats() shard.RouterStats { return s.router.Stats() }
