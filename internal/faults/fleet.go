package faults

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"act/internal/core"
	"act/internal/deps"
	"act/internal/fleet"
	"act/internal/fleet/shard"
	"act/internal/loader"
	"act/internal/ranking"
	"act/internal/wire"
)

// Fleet-topology campaign: the sharded tier's counterpart of the
// network campaign. Traffic flows through real routers and real shard
// collectors on loopback TCP, in rounds; between rounds the campaign
// waits for every shipped batch to be ingested and drops all router
// connections, then injects one topology fault at a seeded round
// boundary — kill a shard (state snapshotted, like a crash with its
// disk intact), partition it (alive but unreachable for a window),
// restart it (down one round, back with its snapshot reloaded), or
// lose it outright (dead, disk gone). The invariant checker asserts
// the merged rollup report is byte-identical to a never-failed
// single-collector run over the same traffic — except for the lossy
// arm, whose contract is graceful degradation: a report still comes
// out, annotated with exactly whose evidence is missing.

// FleetKind enumerates the injectable fleet-topology fault classes.
//
//act:exhaustive
type FleetKind int

const (
	// FleetKill stops a shard for good after snapshotting its state —
	// a crashed process whose disk survives. The rollup merges the
	// snapshot; nothing may be lost.
	FleetKill FleetKind = iota
	// FleetPartition makes a shard unreachable (dials time out) for a
	// window of rounds, then heals it. Nothing may be lost.
	FleetPartition
	// FleetRestart kills a shard and brings it back one round later on
	// a new listener, reloading its snapshot. Nothing may be lost.
	FleetRestart
	// FleetLose kills a shard and destroys its state — disk and all.
	// Evidence it alone held is gone; the contract is that the rollup
	// still produces a report and the completeness annotations say
	// exactly which shard's evidence is missing.
	FleetLose
)

var fleetKindNames = map[FleetKind]string{
	FleetKill:      "shard-kill",
	FleetPartition: "shard-partition",
	FleetRestart:   "shard-restart",
	FleetLose:      "shard-lose",
}

// String names the kind as the campaign tables print it.
func (k FleetKind) String() string {
	if s, ok := fleetKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("fleetkind(%d)", int(k))
}

// AllFleetKinds lists every fleet fault class in table order.
func AllFleetKinds() []FleetKind {
	return []FleetKind{FleetKill, FleetPartition, FleetRestart, FleetLose}
}

// ParseFleetKinds resolves a comma-separated kind list ("all" for all).
func ParseFleetKinds(s string) ([]FleetKind, error) {
	if s == "" || s == "all" {
		return AllFleetKinds(), nil
	}
	var out []FleetKind
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		found := false
		for k, n := range fleetKindNames {
			if n == name {
				out = append(out, k)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("faults: unknown fleet kind %q", name)
		}
	}
	return out, nil
}

// FleetRow is one experimental arm: the fleet under one topology fault.
type FleetRow struct {
	Kind         FleetKind
	Victim       string // shard that took the fault
	Round        int    // round boundary where it was injected
	Reroutes     uint64 // lane deliveries that failed over
	Spooled      uint64 // batches that had to spool (no shard reachable)
	Replayed     uint64 // spooled batches replayed
	DialFails    uint64 // classified dial failures across routers
	TimeoutFails uint64 // classified timeout failures across routers
	Merged       int    // shards whose state reached the rollup
	Completeness float64
	Produced     bool // a rollup report came out
	Identical    bool // report bytes == never-failed single-collector run
	Violated     bool // the arm's invariant did not hold
}

// FleetResult is a full fleet-topology campaign.
type FleetResult struct {
	Baseline *ranking.Report
	Shards   int
	Rows     []FleetRow
}

// Violations counts arms whose invariant did not hold — the campaign's
// pass/fail line.
func (r *FleetResult) Violations() int {
	n := 0
	for _, row := range r.Rows {
		if row.Violated {
			n++
		}
	}
	return n
}

// Render formats the campaign as a fixed-width table.
func (r *FleetResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-15s %-8s %5s | %8s %7s %8s %5s %5s | %6s %5s %9s %8s\n",
		"fault", "victim", "round", "reroutes", "spooled", "replayed", "dialf", "tmof",
		"merged", "compl", "identical", "violated")
	sb.WriteString(strings.Repeat("-", 112) + "\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-15s %-8s %5d | %8d %7d %8d %5d %5d | %6d %5.2f %9v %8v\n",
			row.Kind, row.Victim, row.Round, row.Reroutes, row.Spooled, row.Replayed,
			row.DialFails, row.TimeoutFails, row.Merged, row.Completeness,
			row.Identical, row.Violated)
	}
	return sb.String()
}

// FleetCampaignConfig parameterizes a fleet campaign.
type FleetCampaignConfig struct {
	Kinds       []FleetKind // default AllFleetKinds()
	Seed        int64       // default 1
	Shards      int         // shard collectors per arm; default 3
	Rounds      int         // traffic rounds per arm; default 3
	FailRuns    int         // failing runs in the traffic; default 3
	CorrectRuns int         // correct runs in the traffic; default 2
	Dir         string      // scratch dir for snapshots and spools; default a temp dir
}

func (c FleetCampaignConfig) withDefaults() FleetCampaignConfig {
	if len(c.Kinds) == 0 {
		c.Kinds = AllFleetKinds()
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Shards <= 0 {
		c.Shards = 3
	}
	if c.Rounds < 2 {
		c.Rounds = 3
	}
	if c.FailRuns <= 0 {
		c.FailRuns = 3
	}
	if c.CorrectRuns <= 0 {
		c.CorrectRuns = 2
	}
	return c
}

// fleetRun is one monitored execution's worth of traffic.
type fleetRun struct {
	name    string
	run     uint64
	outcome wire.Outcome
	entries []core.DebugEntry
}

// fleetRunsTraffic mirrors SyntheticFleetTraffic's scenario as per-run
// entry streams: every failing run logs the bug sequence, shared noise,
// and one unique sequence (more negative than the bug, so only
// cross-run weighting ranks the bug first); correct runs log the noise,
// which cross-run pruning then removes.
func fleetRunsTraffic(failRuns, correctRuns int) []fleetRun {
	seq := func(ids ...uint64) deps.Sequence {
		s := make(deps.Sequence, len(ids))
		for i, id := range ids {
			s[i] = deps.Dep{S: id << 4, L: id<<4 + 1, Inter: true}
		}
		return s
	}
	entry := func(s deps.Sequence, out float64) core.DebugEntry {
		return core.DebugEntry{Seq: s, Output: out, Mode: core.Testing}
	}
	bug, noise := seq(1, 2, 3), seq(4, 5, 6)
	var runs []fleetRun
	for i := 0; i < failRuns; i++ {
		u := uint64(i)
		runs = append(runs, fleetRun{
			name: fmt.Sprintf("f%d", i), run: 101 + u, outcome: wire.OutcomeFailing,
			entries: []core.DebugEntry{
				entry(bug, -1.5),
				entry(noise, -0.5),
				entry(seq(10+u, 20+u, 30+u), -2.0),
			},
		})
	}
	for i := 0; i < correctRuns; i++ {
		runs = append(runs, fleetRun{
			name: fmt.Sprintf("c%d", i), run: 201 + uint64(i), outcome: wire.OutcomeCorrect,
			entries: []core.DebugEntry{entry(noise, -0.5)},
		})
	}
	return runs
}

// shardSlot is one logical shard's mutable topology state: where it
// currently listens and whether the network lets routers reach it.
// Router dials resolve through the slot, so a campaign can kill,
// partition and re-home a shard without the routers knowing.
type shardSlot struct {
	mu        sync.Mutex
	addr      string // guarded by mu
	reachable bool   // guarded by mu
	timeouts  bool   // guarded by mu; unreachable dials report a timeout, not a refusal
}

func (s *shardSlot) set(addr string, reachable, timeouts bool) {
	s.mu.Lock()
	s.addr, s.reachable, s.timeouts = addr, reachable, timeouts
	s.mu.Unlock()
}

func (s *shardSlot) dial() (net.Conn, error) {
	s.mu.Lock()
	addr, reachable, timeouts := s.addr, s.reachable, s.timeouts
	s.mu.Unlock()
	if !reachable {
		if timeouts {
			return nil, &timeoutError{}
		}
		return nil, &net.OpError{Op: "dial", Net: "tcp",
			Err: errors.New("connection refused (injected)")}
	}
	return net.DialTimeout("tcp", addr, 5*time.Second)
}

// timeoutError models a dial that hit a partition: net.Error with
// Timeout() true, which loader.TransientDefault retries and the
// router classifies as a timeout failure.
type timeoutError struct{}

func (*timeoutError) Error() string   { return "dial timeout (injected partition)" }
func (*timeoutError) Timeout() bool   { return true }
func (*timeoutError) Temporary() bool { return true }

// liveShard is one running shard collector.
type liveShard struct {
	name      string
	collector *fleet.Collector
	listener  net.Listener
	snapPath  string
	slot      *shardSlot
	dead      bool
}

func startFleetShard(name, snapPath string) (*liveShard, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c := fleet.NewCollector(fleet.CollectorConfig{SnapshotPath: snapPath})
	go c.Serve(ln)
	return &liveShard{
		name: name, collector: c, listener: ln, snapPath: snapPath,
		slot: &shardSlot{},
	}, nil
}

func (s *liveShard) stop() {
	s.collector.Shutdown()
	s.listener.Close()
	s.dead = true
}

// RunFleetCampaign runs the traffic through the sharded tier once per
// fault kind and checks each arm's invariant. It is deterministic for
// a given seed: victims and injection rounds come from the seeded rng,
// faults land only at quiescent round boundaries, and the rollup merge
// is order-independent, so the final report does not depend on
// scheduling.
func RunFleetCampaign(cfg FleetCampaignConfig) (*FleetResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		dir, err := os.MkdirTemp("", "actfleet")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.Dir = dir
	}

	runs := fleetRunsTraffic(cfg.FailRuns, cfg.CorrectRuns)

	// The never-failed reference: every run's full traffic into one
	// collector.
	base := fleet.NewCollector(fleet.CollectorConfig{})
	for _, r := range runs {
		base.Ingest(&wire.Batch{Agent: r.name, Run: r.run, Outcome: r.outcome, Entries: r.entries})
	}
	res := &FleetResult{Baseline: base.Report(), Shards: cfg.Shards}
	var want bytes.Buffer
	if err := res.Baseline.Save(&want); err != nil {
		return nil, err
	}

	for ki, kind := range cfg.Kinds {
		in := New(cfg.Seed + int64(ki)*10_000)
		row, err := runFleetArm(kind, in, runs, cfg, ki, want.Bytes())
		if err != nil {
			return nil, fmt.Errorf("faults: %s arm: %w", kind, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func runFleetArm(kind FleetKind, in *Injector, runs []fleetRun, cfg FleetCampaignConfig, arm int, want []byte) (FleetRow, error) {
	armDir := filepath.Join(cfg.Dir, fmt.Sprintf("arm%d", arm))
	if err := os.MkdirAll(armDir, 0o755); err != nil {
		return FleetRow{}, err
	}

	// Start the shard tier.
	shards := make([]*liveShard, cfg.Shards)
	names := make(map[string]string, cfg.Shards)
	for i := range shards {
		name := fmt.Sprintf("shard%d", i)
		s, err := startFleetShard(name, filepath.Join(armDir, name+".snap"))
		if err != nil {
			return FleetRow{}, err
		}
		s.slot.set(s.listener.Addr().String(), true, false)
		shards[i] = s
		// The router hands its configured address to Dial; the campaign
		// dials through the slot table, so the "address" is the name.
		names[name] = name
		defer s.stop()
	}
	slotOf := make(map[string]*shardSlot, len(shards))
	for _, s := range shards {
		slotOf[s.name] = s.slot
	}

	victim := shards[in.rng.Intn(len(shards))]
	injectAt := 1 + in.rng.Intn(cfg.Rounds-1) // some traffic before and after
	row := FleetRow{Kind: kind, Victim: victim.name, Round: injectAt}

	// One router (and source) per run, alive across all rounds so the
	// global batch counter keeps dedup keys unique.
	type runner struct {
		src    *campaignSource
		router *shard.Router
	}
	runners := make([]runner, len(runs))
	for i, r := range runs {
		src := &campaignSource{}
		rt, err := shard.NewRouter(src, shard.RouterConfig{
			Shards:   names,
			Name:     r.name,
			Run:      r.run,
			Retry:    loader.RetryConfig{Attempts: 2, Sleep: func(time.Duration) {}},
			SpoolDir: filepath.Join(armDir, "spool-"+r.name),
			Breaker: shard.BreakerConfig{
				Threshold: 1,
				BaseDelay: time.Microsecond,
				MaxDelay:  time.Millisecond,
				Rand:      func() float64 { return 0.5 },
			},
			Dial: dialBySlot(slotOf),
		})
		if err != nil {
			return FleetRow{}, err
		}
		rt.SetOutcome(r.outcome)
		runners[i] = runner{src: src, router: rt}
	}
	// delivered counts the batches the routers believe some shard has —
	// the quiesce target.
	delivered := func() uint64 {
		var n uint64
		for i := range runners {
			st := runners[i].router.Stats()
			n += st.Shipped + st.Replayed
		}
		return n
	}

	healAt := -1 // round at which a partition heals / a restart returns

	for round := 0; round < cfg.Rounds; round++ {
		if round == injectAt {
			switch kind {
			case FleetKill:
				if err := victim.collector.Snapshot(""); err != nil {
					return FleetRow{}, err
				}
				victim.stop()
				victim.slot.set("", false, false)
			case FleetPartition:
				victim.slot.set(victim.listener.Addr().String(), false, true)
				healAt = injectAt + 1
			case FleetRestart:
				if err := victim.collector.Snapshot(""); err != nil {
					return FleetRow{}, err
				}
				victim.stop()
				victim.slot.set("", false, false)
				healAt = injectAt + 1
			case FleetLose:
				victim.stop()
				os.Remove(victim.snapPath)
				victim.slot.set("", false, false)
			}
		}
		if round == healAt {
			switch kind {
			case FleetPartition:
				victim.slot.set(victim.listener.Addr().String(), true, false)
			case FleetRestart:
				// Back from the crash: a fresh listener, the snapshot
				// reloaded from disk.
				s, err := startFleetShard(victim.name, victim.snapPath)
				if err != nil {
					return FleetRow{}, err
				}
				reborn := *s
				reborn.slot = victim.slot
				*victim = reborn // the arm-end defer now stops the reborn shard
				victim.slot.set(victim.listener.Addr().String(), true, false)
			case FleetKill, FleetLose:
				// Never heal.
			}
		}

		// Feed this round's slice of every run and flush.
		for i, r := range runs {
			runners[i].src.push(roundSlice(r.entries, round, cfg.Rounds)...)
			runners[i].router.Flush() // failures spool or fail over; checked at the end
		}
		// Quiesce: every batch a router believes delivered must be in
		// some shard before the next fault lands.
		if err := waitFleetQuiesce(shards, delivered()); err != nil {
			return FleetRow{}, err
		}
		for i := range runners {
			runners[i].router.DropConnections()
		}
	}

	for i := range runners {
		runners[i].router.Close()
	}
	if err := waitFleetQuiesce(shards, delivered()); err != nil {
		return FleetRow{}, err
	}
	for i := range runners {
		st := runners[i].router.Stats()
		row.Reroutes += st.Reroutes
		row.Spooled += st.Spooled
		row.Replayed += st.Replayed
		row.DialFails += st.DialFailures
		row.TimeoutFails += st.TimeoutFails
	}

	// Roll up: live shards export state directly; a killed shard's
	// snapshot is read off disk; a lost shard has nothing.
	expected := make([]string, len(shards))
	for i, s := range shards {
		expected[i] = s.name
	}
	ru := shard.NewRollup(shard.RollupConfig{Expected: expected})
	for _, s := range shards {
		if !s.dead {
			if err := ru.AddState(s.name, s.collector.ExportState()); err != nil {
				return FleetRow{}, err
			}
			continue
		}
		state, err := os.ReadFile(s.snapPath)
		if err != nil {
			ru.MarkUnreachable(s.name, "dead, no snapshot")
			continue
		}
		if err := ru.AddState(s.name, state); err != nil {
			return FleetRow{}, err
		}
	}

	rr := ru.Report()
	row.Produced = rr != nil && rr.Report != nil
	row.Merged = ru.MergedShards()
	row.Completeness = rr.Completeness
	var got bytes.Buffer
	if row.Produced {
		if err := rr.Report.Save(&got); err != nil {
			return FleetRow{}, err
		}
	}
	row.Identical = bytes.Equal(got.Bytes(), want)

	switch kind {
	case FleetKill, FleetPartition, FleetRestart:
		// Lossless arms: the merged report must be byte-identical and
		// every shard's state accounted for.
		row.Violated = !row.Identical || row.Completeness != 1
	case FleetLose:
		// Lossy arm: graceful degradation — a report still comes out
		// and the annotations blame exactly the lost shard.
		wantCompl := float64(len(shards)-1) / float64(len(shards))
		row.Violated = !row.Produced || row.Completeness != wantCompl
	}
	return row, nil
}

// dialBySlot resolves a logical shard name through the campaign's slot
// table. The router passes the configured address; the campaign keys
// slots by shard name, so addresses are the names themselves.
func dialBySlot(slots map[string]*shardSlot) func(string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		slot, ok := slots[addr]
		if !ok {
			return nil, &net.OpError{Op: "dial", Net: "tcp",
				Err: fmt.Errorf("unknown shard %q", addr)}
		}
		return slot.dial()
	}
}

// roundSlice returns round r's contiguous share of entries.
func roundSlice(entries []core.DebugEntry, r, rounds int) []core.DebugEntry {
	n := len(entries)
	lo, hi := r*n/rounds, (r+1)*n/rounds
	return entries[lo:hi]
}

// campaignSource is a push-fed fleet.Source.
type campaignSource struct {
	mu      sync.Mutex
	pending []core.DebugEntry
	stats   core.Stats
}

func (s *campaignSource) push(es ...core.DebugEntry) {
	if len(es) == 0 {
		return
	}
	s.mu.Lock()
	s.pending = append(s.pending, es...)
	s.stats.PredictedInvalid += uint64(len(es))
	s.mu.Unlock()
}

func (s *campaignSource) Drain() ([]core.DebugEntry, core.Stats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.pending
	s.pending = nil
	return out, s.stats
}

// waitFleetQuiesce blocks until the shards have ingested (or deduped)
// every batch the routers shipped, bounded by a generous deadline.
func waitFleetQuiesce(shards []*liveShard, delivered uint64) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var got uint64
		for _, s := range shards {
			st := s.collector.Stats()
			got += st.Batches + st.DupBatches
		}
		if got >= delivered {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("faults: fleet quiesce timed out (delivered %d)", delivered)
}
