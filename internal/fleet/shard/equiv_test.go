package shard

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"act/internal/core"
	"act/internal/wire"
)

// equivRun is one run of the equivalence scenario: entries are pushed
// and flushed in steps, and an outcome set before a step applies to it.
type equivRun struct {
	name  string
	run   uint64
	steps []equivStep
}

type equivStep struct {
	outcome wire.Outcome
	entries []core.DebugEntry
}

// equivRuns: one run whose outcome flips from unknown to failing
// after its first flush (the flip is announced by an empty batch), one
// failing run with more entries than one batch holds, and a correct
// run sharing noise with the failing ones.
func equivRuns() []equivRun {
	var many []core.DebugEntry
	for i := 0; i < 300; i++ {
		many = append(many, entryOf(seqOf(1000+uint64(i), 1, 2), -0.01*float64(i%50)))
	}
	return []equivRun{
		{"flip", 101, []equivStep{
			{wire.OutcomeUnknown, failingEntries(0)},
			{wire.OutcomeFailing, nil},
			{wire.OutcomeFailing, failingEntries(1)[3:]},
		}},
		{"bulk", 102, []equivStep{{wire.OutcomeFailing, append(failingEntries(2), many...)}}},
		{"ok", 201, []equivStep{{wire.OutcomeCorrect, correctEntries()}}},
	}
}

// agentStateSHA256 is the digest of the collector state the
// equivalence scenario left when shipped through the single-collector
// agent that a one-shard Router replaced (26765 bytes, identical to
// the one-shard Router's in 20 of 20 -race runs).
const agentStateSHA256 = "1b0443cb370ec463690607dd51ad14b31e5fbc2b3cf4b26e732b8c77b541cb2e"

// TestOneShardRouterMatchesAgent: runs with an outcome flip and more
// entries than one batch holds, shipped through a Router over a
// one-entry ring, leave the collector state the retired single-
// collector agent left, byte for byte.
func TestOneShardRouterMatchesAgent(t *testing.T) {
	sf := startShards(t, 1)
	var shipped uint64
	for _, r := range equivRuns() {
		src := &stubSource{}
		rt, err := NewRouter(src, RouterConfig{
			Shards: sf.addrs, Name: r.name, Run: r.run, Retry: quickRetry(4),
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range r.steps {
			rt.SetOutcome(st.outcome)
			src.push(st.entries...)
			if err := rt.Flush(); err != nil {
				t.Fatalf("%s flush: %v", r.name, err)
			}
		}
		if err := rt.Close(); err != nil {
			t.Fatalf("%s close: %v", r.name, err)
		}
		shipped += rt.Stats().Shipped
	}
	sf.waitIngested(t, shipped)
	state := sf.collectors[sf.names[0]].ExportState()
	if got := fmt.Sprintf("%x", sha256.Sum256(state)); got != agentStateSHA256 {
		t.Fatalf("one-shard router left %d B of collector state with sha256 %s, want the agent's %s",
			len(state), got, agentStateSHA256)
	}
}
