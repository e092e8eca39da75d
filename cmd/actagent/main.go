// Command actagent replays recorded traces through a deployed monitor
// and ships the resulting Debug Buffers to actd collectors — the
// standalone form of what act.ShipTo does inside an instrumented
// program.
//
// Usage:
//
//	actagent -collector host:7077 -model m.act -outcome failing fail1.trace fail2.trace
//	actagent -collector host:7077 -model m.act -outcome correct -spool /tmp/spools ok.trace
//	actagent -collector host:7077 -model m.act -metrics-listen :9091 ...
//	actagent -collectors shard0=h0:7077,shard1=h1:7077,shard2=h2:7077 -spool /tmp/spools ...
//
// Each trace file is shipped as its own run, so the collector's
// cross-run counting sees one occurrence per file.
//
// Batches route to a ring of actd shards by consistent hashing of each
// sequence; -collector ADDR is a ring of one. A dead shard's traffic
// fails over to its ring successor behind a per-shard circuit breaker,
// and what no shard takes lands in -spool, a directory holding one
// spool file per shard (created if missing). A later invocation with
// the same ring and -spool replays it.
//
// SIGINT/SIGTERM mid-ship routes through a readiness gate that closes
// the in-flight router first — flushing its queue to the collectors or
// the spool — so an interrupted invocation loses no evidence a clean
// exit would have kept.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"act"
	"act/internal/core"
	"act/internal/fleet/shard"
	"act/internal/obs"
	"act/internal/wire"
)

// current is the router shipping right now, published for the
// shutdown hook: closing it flushes queued batches to the collectors
// or the spool.
var current atomic.Pointer[shard.Router]

func main() {
	var (
		collector  = flag.String("collector", "", "actd address (host:port)")
		collectors = flag.String("collectors", "", "comma-separated name=addr actd shards; batches route by sequence hash (overrides -collector)")
		modelPath  = flag.String("model", "", "trained model file (acttrain output); required")
		outcome    = flag.String("outcome", "unknown", "run outcome label: failing, correct, unknown")
		name       = flag.String("name", "", "agent identity in batches; default hostname")
		runBase    = flag.Uint64("run", 0, "base run id; default derived from time")
		spool      = flag.String("spool", "", "directory for per-shard spool files holding batches while collectors are down")
		dialTO     = flag.Duration("dial-timeout", 0, "collector connect timeout (0: the 5s default)")
		metrics    = flag.String("metrics-listen", "", "address to serve /metrics, /healthz and /debug/pprof on (empty disables)")
	)
	flag.Parse()
	if (*collector == "" && *collectors == "") || *modelPath == "" || flag.NArg() == 0 {
		fatal(fmt.Errorf("need -collector ADDR (or -collectors NAME=ADDR,...), -model FILE, and at least one trace file"))
	}
	shards, err := parseCollectors(*collectors)
	if err != nil {
		fatal(err)
	}
	if shards == nil {
		shards = map[string]string{*collector: *collector}
	}
	o, err := parseOutcome(*outcome)
	if err != nil {
		fatal(err)
	}
	if *name == "" {
		if h, err := os.Hostname(); err == nil {
			*name = h
		} else {
			*name = "actagent"
		}
	}
	if *runBase == 0 {
		*runBase = uint64(time.Now().UnixNano())
	}

	mf, err := os.Open(*modelPath)
	if err != nil {
		fatal(err)
	}
	model, err := act.LoadModel(mf)
	mf.Close()
	if err != nil {
		fatal(err)
	}

	health := obs.NewHealth()
	health.SetReady("agent", true)
	health.OnShutdown("flush-current", func() {
		// Close is idempotent and flushes queue and spool; evidence
		// the collector cannot take lands on disk when -spool is set.
		if rt := current.Load(); rt != nil {
			if err := rt.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "actagent: shutdown flush:", err)
			}
		}
	})
	if *metrics != "" {
		reg := obs.NewRegistry()
		reg.GaugeFunc("act_up", "1 while the process is shipping.", func() float64 { return 1 })
		shard.RegisterRouterMetrics(reg, current.Load)
		srv, err := obs.StartServer(*metrics, health, reg, obs.Default)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("actagent: metrics on http://%s/metrics\n", srv.Addr())
		defer srv.Close()
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		health.Shutdown()
		os.Exit(130)
	}()

	ship := shipConfig{
		shards: shards, name: *name,
		spool: *spool, dialTimeout: *dialTO,
	}
	for i, path := range flag.Args() {
		if err := shipTrace(model, path, ship, *runBase+uint64(i), o); err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
	}
	health.Shutdown()
}

// shipConfig is the per-invocation transport setup shared by every run.
type shipConfig struct {
	shards      map[string]string // ring: shard name → collector address
	name        string
	spool       string // spool directory; "" disables spooling
	dialTimeout time.Duration
}

// shipTrace replays one trace through a fresh monitor and ships its
// Debug Buffer as one run across the shard ring.
func shipTrace(model *act.Model, path string, cfg shipConfig, run uint64, o wire.Outcome) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	tr, rep, err := act.ReadTraceReport(f)
	f.Close()
	if err != nil {
		return err
	}
	if rep.Corrupt() {
		fmt.Fprintf(os.Stderr, "actagent: %s: recovered from corruption: %s\n", path, rep)
	}
	mon := act.Deploy(model, threadsOf(tr))
	mon.Replay(tr)

	rt, err := shard.NewRouter(&monSource{mon: mon}, shard.RouterConfig{
		Shards: cfg.shards, Name: cfg.name, Run: run,
		SpoolDir: cfg.spool, DialTimeout: cfg.dialTimeout,
	})
	if err != nil {
		return err
	}
	current.Store(rt)
	defer current.CompareAndSwap(rt, nil)
	rt.SetOutcome(o)
	ferr := rt.Flush()
	if cerr := rt.Close(); ferr == nil {
		ferr = cerr
	}
	st := rt.Stats()
	fmt.Printf("actagent: %s: run %d, %d entries drained, %d batch(es) shipped across %d shard(s), %d rerouted, %d spooled\n",
		path, run, st.Drained, st.Shipped, rt.Ring().Len(), st.Reroutes, st.Spooled)
	if ferr != nil && st.Spooled > 0 {
		// The evidence is safe on disk; the next invocation replays it.
		fmt.Fprintln(os.Stderr, "actagent:", ferr)
		return nil
	}
	return ferr
}

// parseCollectors parses the -collectors list: name=addr pairs, comma
// separated. Empty input returns a nil map.
func parseCollectors(s string) (map[string]string, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]string)
	for _, pair := range strings.Split(s, ",") {
		pair = strings.TrimSpace(pair)
		i := strings.IndexByte(pair, '=')
		if i <= 0 || i == len(pair)-1 {
			return nil, fmt.Errorf("bad -collectors entry %q (want name=addr)", pair)
		}
		out[pair[:i]] = pair[i+1:]
	}
	return out, nil
}

// monSource adapts the replayed monitor to the router.
type monSource struct{ mon *act.Monitor }

func (s *monSource) Drain() ([]act.DebugEntry, core.Stats) {
	return s.mon.DrainDebugBuffer(), s.mon.Stats()
}

func threadsOf(t *act.Trace) int {
	max := 0
	for _, r := range t.Records {
		if int(r.Tid) > max {
			max = int(r.Tid)
		}
	}
	return max + 1
}

func parseOutcome(s string) (wire.Outcome, error) {
	switch s {
	case "failing":
		return wire.OutcomeFailing, nil
	case "correct":
		return wire.OutcomeCorrect, nil
	case "unknown":
		return wire.OutcomeUnknown, nil
	}
	return 0, fmt.Errorf("unknown outcome %q", s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "actagent:", err)
	os.Exit(1)
}
