package shard

import (
	"math/rand"
	"sync"
	"time"
)

// BreakerState is a circuit breaker's position.
//
//act:exhaustive
type BreakerState uint8

const (
	// BreakerClosed passes traffic; consecutive failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen refuses traffic until the backoff interval elapses.
	BreakerOpen
	// BreakerHalfOpen admits exactly one probe; its outcome decides
	// between closing again and re-opening with doubled backoff.
	BreakerHalfOpen
)

// String names the state for logs and metrics labels.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerConfig parameterizes a Breaker.
type BreakerConfig struct {
	// Threshold is the number of consecutive failures that opens the
	// breaker; default 3.
	Threshold int
	// BaseDelay is the first open interval; default 100ms. Each
	// consecutive re-open doubles it.
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff; default 30s.
	MaxDelay time.Duration
	// Jitter is the fraction of the delay randomized on top (0..1), so
	// a fleet of routers does not probe a recovering shard in lockstep.
	// The zero value adds none; a value outside 0..1 falls back to 0.2.
	Jitter float64

	// Now and Rand are injectable for deterministic tests and chaos
	// campaigns; defaults are time.Now and the global math/rand.
	Now  func() time.Time
	Rand func() float64
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold <= 0 {
		c.Threshold = 3
	}
	if c.BaseDelay <= 0 {
		c.BaseDelay = 100 * time.Millisecond
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 30 * time.Second
	}
	if c.Jitter < 0 || c.Jitter > 1 {
		c.Jitter = 0.2
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Rand == nil {
		c.Rand = rand.Float64
	}
	return c
}

// Breaker is a per-shard circuit breaker. The Router consults Allow
// before attempting a delivery to a shard and reports the attempt's
// outcome with Success or Failure; an unreachable shard therefore costs
// one failed dial per backoff interval instead of one per batch, and a
// recovering shard is eased back in through a single half-open probe.
// All methods are safe for concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu      sync.Mutex
	state   BreakerState // guarded by mu
	fails   int          // guarded by mu; consecutive failures while closed
	opens   int          // guarded by mu; consecutive opens, exponent of the backoff
	until   time.Time    // guarded by mu; when open, earliest half-open probe
	probing bool         // guarded by mu; the half-open probe is in flight
}

// NewBreaker returns a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// Allow reports whether a delivery attempt may proceed. While open it
// returns false until the backoff interval elapses, then admits exactly
// one probe (half-open); concurrent callers during the probe are
// refused.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.cfg.Now().Before(b.until) {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true
	case BreakerHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
	return false
}

// Success records a successful delivery: the breaker closes and the
// backoff resets.
func (b *Breaker) Success() {
	b.mu.Lock()
	b.state = BreakerClosed
	b.fails = 0
	b.opens = 0
	b.probing = false
	b.mu.Unlock()
}

// Failure records a failed delivery. Reaching the threshold while
// closed — or failing the half-open probe — opens the breaker for the
// next backoff interval (doubled per consecutive open, capped,
// jittered).
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.fails++
		if b.fails >= b.cfg.Threshold {
			b.openLocked()
		}
	case BreakerHalfOpen:
		b.openLocked()
	case BreakerOpen:
		// A late failure from an attempt admitted before the open;
		// the breaker is already refusing traffic.
	}
}

// openLocked transitions to open and arms the next probe time.
//
//act:locked mu
func (b *Breaker) openLocked() {
	b.state = BreakerOpen
	b.fails = 0
	b.probing = false
	d := b.cfg.BaseDelay << uint(b.opens)
	if d > b.cfg.MaxDelay || d <= 0 {
		d = b.cfg.MaxDelay
	}
	if b.cfg.Jitter > 0 {
		d += time.Duration(float64(d) * b.cfg.Jitter * b.cfg.Rand())
	}
	if b.opens < 62 {
		b.opens++
	}
	b.until = b.cfg.Now().Add(d)
}

// State returns the breaker's current position, advancing open to
// half-open eligibility lazily (an open breaker past its interval still
// reads open until the next Allow).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
