package shard

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"act/internal/core"
	"act/internal/fleet"
	"act/internal/loader"
	"act/internal/wire"
)

// RouterConfig parameterizes a Router.
type RouterConfig struct {
	// Shards maps shard name to collector address (host:port);
	// required, at least one entry. Names are the ring identity — every
	// router and the rollup must agree on them.
	Shards map[string]string

	Name string // agent identity in batches; default "agent"
	Run  uint64 // run id, unique per monitored execution; default 1

	// Replicas is the ring's virtual-node count per shard; default
	// DefaultReplicas.
	Replicas int

	// Interval is the drain cadence of the background loop started by
	// Start; default 2s. Flush drains on demand regardless.
	Interval time.Duration
	// MaxBatchEntries caps entries per batch; default 256.
	MaxBatchEntries int
	// MaxQueue bounds each shard lane's in-memory batch queue under
	// drop-oldest backpressure; default 64.
	MaxQueue int

	// SpoolDir, when set, holds one spool file per shard
	// (<dir>/<shard>.spool) for batches no reachable shard would take.
	// NewRouter creates it, parents included, when it is missing.
	SpoolDir string
	// SpoolMaxBytes caps each spool file; default 8 MiB.
	SpoolMaxBytes int64

	// Retry governs one delivery attempt against one shard; zero value
	// = loader defaults. Wire protocol errors are classified permanent
	// on top of the given policy. Failover to the ring successor happens
	// after this per-shard policy is exhausted.
	Retry loader.RetryConfig

	// Breaker parameterizes the per-shard circuit breakers.
	Breaker BreakerConfig

	// DialTimeout bounds one connection attempt; default 5s.
	DialTimeout time.Duration
	// WriteTimeout is the per-write deadline, matching the collector's
	// ReadTimeout; default 2 minutes.
	WriteTimeout time.Duration

	// Dial replaces the TCP dialer (tests, chaos campaigns re-pointing
	// logical shards at restarted listeners).
	Dial func(addr string) (net.Conn, error)
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.Name == "" {
		c.Name = "agent"
	}
	if c.Run == 0 {
		c.Run = 1
	}
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	if c.MaxBatchEntries <= 0 {
		c.MaxBatchEntries = 256
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.SpoolMaxBytes <= 0 {
		c.SpoolMaxBytes = 8 << 20
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 2 * time.Minute
	}
	if c.Dial == nil {
		timeout := c.DialTimeout
		c.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	base := c.Retry.Transient
	if base == nil {
		base = loader.TransientDefault
	}
	c.Retry.Transient = func(err error) bool {
		return base(err) && !wire.IsProtocolError(err)
	}
	return c
}

// RouterStats counts a router's activity.
type RouterStats struct {
	Drained        uint64 // entries taken from the source
	Batches        uint64 // batches formed across all lanes
	Shipped        uint64 // batches written to some shard
	Spooled        uint64 // batches written to spool files
	Replayed       uint64 // spooled batches re-shipped
	DroppedBatches uint64 // batches lost to lane backpressure
	SpoolDrops     uint64 // spool resets after exceeding the size cap
	Dials          uint64 // shard connection (re)establishments
	ShipAttempts   uint64 // delivery attempts, retries included

	// Failover accounting.
	Reroutes     uint64 // lane deliveries that landed on a ring successor
	Unrouted     uint64 // lane deliveries that found no reachable shard
	DialFailures uint64 // attempts that failed connecting
	TimeoutFails uint64 // attempts that failed on a deadline
	WriteFails   uint64 // attempts that failed mid-write

	// Spool damage observed during replay (per replay attempt).
	SpoolBadSpans     uint64
	SpoolSkippedBytes uint64
}

// lane is the per-shard delivery state: the queue of batches whose
// sequences hash to this shard, the live connection, and the breaker
// gating attempts against it.
type lane struct {
	name  string
	addr  string
	spool string // spool file path; "" when spooling is off

	// queue, conn, wr and sentMark are all accessed under the owning
	// Router's mu (a cross-struct guard the `// guarded by` annotation
	// cannot express); lanes never escape their Router.
	queue    []*wire.Batch
	conn     net.Conn
	wr       *wire.Writer
	sentMark bool // current outcome label batched at least once

	breaker *Breaker // internally locked
}

// Router is the shipping client: it drains a fleet.Source and
// partitions entries by consistent hashing of their sequence hash
// across N collector shards, so each shard aggregates a disjoint slice
// of the sequence space and the rollup's merge is cheap. A one-entry
// ring is the single-collector client (act.ShipTo, actagent
// -collector): every entry routes to its one lane.
//
// One global (agent, run, seq) counter spans all lanes, so batch dedup
// keys never collide across shards and any batch may be redelivered to
// any shard — which is exactly what failover does: when a shard is
// down (breaker open after dial/write/timeout failures), its lane's
// queue and spool are shipped to the ring successor unchanged, and
// when no shard is reachable they spool to disk for replay later.
// All methods are safe for concurrent use.
type Router struct {
	cfg  RouterConfig
	src  fleet.Source
	ring *Ring

	mu      sync.Mutex
	lanes   []*lane      // ring index order; the slice itself is immutable
	seq     uint64       // guarded by mu; global batch counter across lanes
	outcome wire.Outcome // guarded by mu
	stats   RouterStats  // guarded by mu

	started  bool // guarded by mu
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewRouter creates a router shipping src's entries across cfg.Shards.
// Passive until Start or Flush. A SpoolDir that cannot be created is
// an error: a router that could not spool would lose the evidence of
// every outage.
func NewRouter(src fleet.Source, cfg RouterConfig) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("shard: router needs at least one shard")
	}
	if cfg.SpoolDir != "" {
		if err := os.MkdirAll(cfg.SpoolDir, 0o755); err != nil {
			return nil, fmt.Errorf("shard: spool directory: %w", err)
		}
	}
	cfg = cfg.withDefaults()
	names := make([]string, 0, len(cfg.Shards))
	for name := range cfg.Shards {
		names = append(names, name)
	}
	ring := NewRing(names, cfg.Replicas)
	r := &Router{
		cfg:  cfg,
		src:  src,
		ring: ring,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	for _, name := range ring.Shards() {
		ln := &lane{
			name:    name,
			addr:    cfg.Shards[name],
			breaker: NewBreaker(cfg.Breaker),
		}
		if cfg.SpoolDir != "" {
			ln.spool = filepath.Join(cfg.SpoolDir, name+".spool")
		}
		r.lanes = append(r.lanes, ln)
	}
	return r, nil
}

// Ring returns the router's ring (shared, immutable).
func (r *Router) Ring() *Ring { return r.ring }

// SetOutcome labels batches drained from now on. A flip re-announces
// the run to every shard (each lane's next drain emits a batch even
// when empty), so all shards learn the outcome and can re-file their
// pending evidence.
func (r *Router) SetOutcome(o wire.Outcome) {
	r.mu.Lock()
	if r.outcome != o {
		r.outcome = o
		for _, ln := range r.lanes {
			ln.sentMark = false
		}
	}
	r.mu.Unlock()
}

// Stats returns a copy of the activity counters.
func (r *Router) Stats() RouterStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// QueueDepth returns the number of batches waiting across all lanes.
func (r *Router) QueueDepth() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, ln := range r.lanes {
		n += len(ln.queue)
	}
	return n
}

// SpoolBytes returns the total size of all lane spool files.
func (r *Router) SpoolBytes() int64 {
	var n int64
	for _, ln := range r.lanes {
		n += fleet.SpoolSize(ln.spool)
	}
	return n
}

// BreakerStates returns each shard's breaker position, keyed by shard
// name — the ring-state view actagent exposes.
func (r *Router) BreakerStates() map[string]BreakerState {
	out := make(map[string]BreakerState, len(r.lanes))
	for _, ln := range r.lanes {
		out[ln.name] = ln.breaker.State()
	}
	return out
}

// DropConnections closes every lane's connection; the next delivery
// redials. Chaos campaigns call it at round boundaries to model
// long-lived agents reconnecting, so a shard killed between rounds is
// discovered by a failed dial rather than a half-written frame.
func (r *Router) DropConnections() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ln := range r.lanes {
		r.dropLaneConnLocked(ln)
	}
}

// Tick drains the source into the lane queues without shipping.
func (r *Router) Tick() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.drainLocked()
}

// drainLocked pulls entries from the source, partitions them by ring
// route of each entry's sequence hash, and forms per-lane batches with
// globally unique sequence numbers.
//
//act:locked mu
func (r *Router) drainLocked() {
	entries, stats := r.src.Drain()
	r.stats.Drained += uint64(len(entries))
	perLane := make([][]core.DebugEntry, len(r.lanes))
	for _, e := range entries {
		i := r.ring.Route(e.Seq.Hash())
		perLane[i] = append(perLane[i], e)
	}
	for i, ln := range r.lanes {
		es := perLane[i]
		if len(es) == 0 && ln.sentMark {
			continue
		}
		ln.sentMark = true
		for first := true; first || len(es) > 0; first = false {
			n := len(es)
			if n > r.cfg.MaxBatchEntries {
				n = r.cfg.MaxBatchEntries
			}
			b := &wire.Batch{
				Agent:   r.cfg.Name,
				Run:     r.cfg.Run,
				Seq:     r.seq,
				Outcome: r.outcome,
				Stats:   stats,
				Entries: es[:n:n],
			}
			es = es[n:]
			r.seq++
			r.stats.Batches++
			if len(ln.queue) >= r.cfg.MaxQueue {
				ln.queue = ln.queue[1:]
				r.stats.DroppedBatches++
			}
			ln.queue = append(ln.queue, b)
		}
	}
}

// Flush drains the source and delivers every lane's queue (and spool),
// synchronously. Lanes whose primary shard is down fail over to ring
// successors; what no shard takes is spooled. The returned error is
// the first delivery failure (nil when everything landed somewhere).
func (r *Router) Flush() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.drainLocked()
	return r.shipAllLocked()
}

// Start runs the periodic drain-and-ship loop until Close.
func (r *Router) Start() {
	r.mu.Lock()
	if r.started {
		r.mu.Unlock()
		return
	}
	r.started = true
	r.mu.Unlock()
	go func() {
		defer close(r.done)
		t := time.NewTicker(r.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-t.C:
				r.mu.Lock()
				r.drainLocked()
				r.shipAllLocked() // errors already counted; spools hold the rest
				r.mu.Unlock()
			}
		}
	}()
}

// Close stops the loop, attempts a final flush, and closes all shard
// connections. The returned error is the final flush's.
func (r *Router) Close() error {
	r.stopOnce.Do(func() { close(r.stop) })
	r.mu.Lock()
	started := r.started
	r.mu.Unlock()
	if started {
		<-r.done
	}
	err := r.Flush()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ln := range r.lanes {
		r.dropLaneConnLocked(ln)
	}
	return err
}

// shipAllLocked delivers every lane with pending work.
//
//act:locked mu
func (r *Router) shipAllLocked() error {
	var firstErr error
	for i := range r.lanes {
		if err := r.deliverLocked(i); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// deliverLocked lands lane i's queue and spool on some shard: the
// primary first, then ring successors, skipping shards whose breaker
// refuses. A delivery through a successor counts as a re-route; when
// no shard is reachable the lane spools to its own file and the first
// error is returned.
//
//act:locked mu
func (r *Router) deliverLocked(i int) error {
	ln := r.lanes[i]
	if len(ln.queue) == 0 && fleet.SpoolSize(ln.spool) == 0 {
		return nil
	}
	var firstErr error
	n := len(r.lanes)
	for off := 0; off < n; off++ {
		j := (i + off) % n
		tgt := r.lanes[j]
		if !tgt.breaker.Allow() {
			continue
		}
		err := r.shipLaneViaLocked(ln, tgt)
		if err == nil {
			tgt.breaker.Success()
			if off != 0 {
				r.stats.Reroutes++
			}
			return nil
		}
		tgt.breaker.Failure()
		r.classifyFailureLocked(err)
		if firstErr == nil {
			firstErr = err
		}
	}
	r.stats.Unrouted++
	if firstErr == nil {
		firstErr = fmt.Errorf("shard: no shard admitted by breakers for lane %s", ln.name)
	}
	if ln.spool == "" {
		return firstErr
	}
	if serr := r.spoolLaneLocked(ln); serr != nil {
		return fmt.Errorf("shard: lane %s undeliverable and spool failed (%v): %w",
			ln.name, serr, firstErr)
	}
	return fmt.Errorf("shard: no shard reachable for lane %s, batches spooled: %w",
		ln.name, firstErr)
}

// shipLaneViaLocked ships src's spool and queue over tgt's connection
// under the per-shard retry policy. On a fresh dial, tgt's own spool is
// replayed first — the recovered-shard path: a shard coming back gets
// its spooled backlog before new traffic. Partial failure leaves the
// undelivered remainder with src (queue and/or spool); anything that
// did reach a collector is deduplicated there.
//
//act:locked mu
func (r *Router) shipLaneViaLocked(src, tgt *lane) error {
	return loader.Do(r.cfg.Retry, func() error {
		r.stats.ShipAttempts++
		if tgt.conn == nil {
			conn, err := r.cfg.Dial(tgt.addr)
			if err != nil {
				return err
			}
			tgt.conn = conn
			tgt.wr = wire.NewWriter(fleet.DeadlineWriter(conn, r.cfg.WriteTimeout))
			r.stats.Dials++
			if src != tgt {
				if err := r.replaySpoolLocked(tgt, tgt); err != nil {
					r.dropLaneConnLocked(tgt)
					return err
				}
			}
		}
		if err := r.replaySpoolLocked(src, tgt); err != nil {
			r.dropLaneConnLocked(tgt)
			return err
		}
		for len(src.queue) > 0 {
			if err := tgt.wr.WriteBatch(src.queue[0]); err != nil {
				r.dropLaneConnLocked(tgt)
				return err
			}
			src.queue = src.queue[1:]
			r.stats.Shipped++
		}
		return nil
	})
}

// replaySpoolLocked re-ships every batch in from's spool file over
// via's connection, then removes the file. Damage inside the spool
// costs only the damaged frames and is counted; a write failure keeps
// the file for the next attempt (redelivery is deduplicated).
//
//act:locked mu
func (r *Router) replaySpoolLocked(from, via *lane) error {
	if from.spool == "" || fleet.SpoolSize(from.spool) == 0 {
		return nil
	}
	batches, rep, err := fleet.ReadSpool(from.spool)
	r.stats.SpoolBadSpans += uint64(rep.BadSpans)
	r.stats.SpoolSkippedBytes += uint64(rep.SkippedBytes)
	if err != nil {
		return err
	}
	for _, b := range batches {
		if err := via.wr.WriteBatch(b); err != nil {
			return err
		}
		r.stats.Replayed++
	}
	return os.Remove(from.spool)
}

// spoolLaneLocked appends the lane's queued batches to its spool file.
//
//act:locked mu
func (r *Router) spoolLaneLocked(ln *lane) error {
	if len(ln.queue) == 0 {
		return nil
	}
	written, reset, err := fleet.AppendSpool(ln.spool, r.cfg.SpoolMaxBytes, ln.queue)
	if reset {
		r.stats.SpoolDrops++
	}
	ln.queue = ln.queue[written:]
	r.stats.Spooled += uint64(written)
	return err
}

// dropLaneConnLocked abandons a lane's connection after an error; the
// next attempt redials.
//
//act:locked mu
func (r *Router) dropLaneConnLocked(ln *lane) {
	if ln.conn != nil {
		ln.conn.Close()
	}
	ln.conn = nil
	ln.wr = nil
}

// classifyFailureLocked buckets a delivery failure the way an operator
// triages one: could not connect (shard process dead or unreachable),
// deadline expired (shard wedged or partitioned), or failed mid-write
// (shard died under us).
//
//act:locked mu
func (r *Router) classifyFailureLocked(err error) {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		r.stats.TimeoutFails++
		return
	}
	var oe *net.OpError
	if errors.As(err, &oe) && oe.Op == "dial" {
		r.stats.DialFailures++
		return
	}
	r.stats.WriteFails++
}
