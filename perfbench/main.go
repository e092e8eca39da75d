// Command perfbench is the repository's benchmark: it times ACT's units
// of work — one diagnosis of the Table V bugs, the deployed monitor in
// steady state, and one fleet round — checks their outputs, and, in a
// separate traced run, breaks the time down per layer. See README.md.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload diagnose --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the run's
// verdict and metrics.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Each run repeats its set-up at least minSetupReps times, and more
// while the repetitions together take under minSetupTime, so that a
// set-up of milliseconds is timed as steadily as one of seconds. setup_s
// is the median.
const (
	minSetupReps = 3
	minSetupTime = time.Second
)

// minPasses is the fewest untraced passes a run makes, however long they
// take: a diagnosis pass outlasts a typical run budget, and each of its
// ops is read at its median over the passes (see rateRule).
const minPasses = 3

// A bench is one workload: inputs built by setup, consumed pass by pass.
type bench interface {
	// setup builds the workload's inputs (programs, traces, trained
	// models) from the seed. Each call replaces the previous inputs.
	setup() error
	// pass runs one pass over the inputs. fresh starts from newly
	// deployed state; otherwise long-lived state carries over from the
	// previous pass. With rec non-nil the pass is traced and reports
	// per-layer metrics.
	pass(fresh bool, rec *recorder) (*passResult, error)
	// describe returns the workload's own end-to-end figures, in the
	// names the workload's users know them by.
	// rate is the run's work_per_s.
	describe(first *passResult, rate float64) []string
	// rate says how work_per_s is read from the passes.
	rate() rateRule
}

// rateRule says how a workload's work_per_s is read from its untraced
// passes, all of which repeat the same work. On a shared machine
// co-tenants slow whole seconds of a run by a third or more, so a plain
// mean or median mixes fast and slow stretches in a proportion that
// changes from run to run.
//
//   - perOp: each op counts at quantile q of its times over the passes,
//     and the rate is the pass's work over the sum. diagnose (q 0.5):
//     its ops last seconds and a run makes three passes, so one slowed
//     pass does not move a bug's median. monitor (q 0): each
//     execution's replay at its fastest over the passes. Its replays
//     take tens of microseconds and their times are bimodal on a shared
//     host: the fastest fifth or so run about 1.7 times faster than the
//     rest, and that share drifts from run to run, so any quantile near
//     it jumps between the modes. The fastest of a hundred-odd replays
//     lands in the fast mode whenever it is there at all. The monitors'
//     online training, the one cost that comes and goes with their own
//     state, is about one dependence in a hundred in steady state.
//   - otherwise the rate is quantile q of the pass rates. fleet (q 0.9):
//     its garbage collections, driven by the per-connection buffers,
//     land on a few ops of every pass, so it is read per pass, where they
//     stay counted.
type rateRule struct {
	perOp bool
	q     float64
}

// passResult is what one pass reports.
type passResult struct {
	ops, failed int
	work        float64   // work units: records (monitor), executions (fleet), bugs (diagnose)
	opSecs      []float64 // each op's time, in op order, for workloads read per op
	quality     float64   // share of outputs that are right; see README.md
	top1        float64   // share of root causes ranked first (diagnose, fleet)
	digest      string    // hash of the pass's outputs
	layers      layers    // traced passes only
	problems    []string
}

func (p *passResult) fail(format string, args ...any) {
	p.failed++
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// metric is one entry of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// layerMetric describes one per-layer metric. Counts must repeat exactly
// across runs of one seed.
type layerMetric struct {
	name, unit string
	count      bool
}

var layerMetrics = []layerMetric{
	{"nn.fit_s", "s", false},
	{"nn.fits", "count", true},
	{"nn.backprop_samples", "count", true},
	{"nn.forward", "count", true},
	{"train.dataset_s", "s", false},
	{"workloads.collect_s", "s", false},
	{"workloads.runs", "count", true},
	{"deps.correct_set_s", "s", false},
	{"deps.correct_set_seqs", "count", true},
	{"pipeline.replay_s", "s", false},
	{"pipeline.rank_s", "s", false},
	{"pipeline.rca_s", "s", false},
	{"act.deploy_s", "s", false},
	{"core.replay_s", "s", false},
	{"core.ns_per_dep", "ns", false},
	{"core.deps", "count", true},
	{"core.sequences", "count", true},
	{"core.predicted_invalid", "count", true},
	{"core.training_deps", "count", true},
	{"core.updates", "count", true},
	{"core.mode_switches", "count", true},
	{"core.snapshots", "count", true},
	{"core.recoveries", "count", true},
	{"core.cache_hits", "count", true},
	{"core.cache_misses", "count", true},
	{"core.debug_entries", "count", true},
	{"core.training_share", "ratio", true},
	{"shard.router_new_s", "s", false},
	{"shard.flush_s", "s", false},
	{"shard.close_s", "s", false},
	{"shard.batches", "count", true},
	{"shard.shipped", "count", true},
	{"shard.ship_attempts", "count", true},
	{"shard.dials", "count", true},
	{"shard.reroutes", "count", true},
	{"shard.shipped_per_attempt", "ratio", true},
	{"shard.rollup_s", "s", false},
	{"wire.bytes", "bytes", true},
	{"fleet.ingest_s", "s", false},
	{"fleet.batches", "count", true},
	{"fleet.entries", "count", true},
	{"fleet.dup_batches", "count", true},
	{"fleet.export_s", "s", false},
	{"fleet.state_bytes", "bytes", true},
	{"runtime.alloc_mb", "MB", false},
	{"runtime.gc_cycles", "count", false},
	{"trace.spans", "count", true},
	{"trace.untraced_pass_s", "s", false},
	{"trace.traced_pass_s", "s", false},
	{"trace.overhead_s", "s", false},
	{"trace.overhead_pct", "%", false},
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: diagnose, monitor or fleet")
		seed    = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Int("seconds", 15, "how long the timed loop runs")
		traced  = flag.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end run")
		outDir  = flag.String("out", ".bench_build/perfbench", "directory for span files and output digests")
	)
	flag.Parse()
	if *seed < 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seed >= 0, --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	var b bench
	switch *name {
	case "diagnose":
		b = &diagnoseBench{seed: *seed}
	case "monitor":
		b = &monitorBench{seed: *seed}
	case "fleet":
		b = &fleetBench{seed: *seed}
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want diagnose, monitor or fleet)\n", *name)
		return 2
	}

	tree, err := treeHash(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: hashing sources:", err)
		return 1
	}
	printHeader(*name, *seed, *traced == 1, tree)

	res, lines, err := measure(b, *name, time.Duration(*seconds)*time.Second, *traced == 1, *outDir, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	key := fmt.Sprintf("%s-%s-seed%d", tree[:16], *name, *seed)
	if problems := checkDigests(filepath.Join(*outDir, "digests"), key, lines); len(problems) > 0 {
		res.Correct = false
		for _, p := range problems {
			fmt.Println("FAIL", p)
		}
	}
	fmt.Printf("# ops: attempted %d, failed %d\n", res.Attempted, res.Failed)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure sets the workload up repeatedly and then runs its timed
// loop: untraced passes for the end-to-end metrics, or alternating
// untraced and traced fresh passes for the per-layer metrics and the
// tracing overhead.
func measure(b bench, name string, budget time.Duration, traced bool, outDir string, seed int64) (*result, []string, error) {
	var setupS []float64
	for t := time.Now(); len(setupS) < minSetupReps || time.Since(t) < minSetupTime; {
		t0 := time.Now()
		if err := b.setup(); err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	res := &result{Correct: true, Metrics: make(map[string]metric)}
	var lines []string
	var first *passResult
	var untracedS, tracedS []float64
	var untraced []*passResult
	perLayer := make(map[string][]float64)
	var counts string
	note := func(r *passResult) {
		res.Attempted += r.ops
		res.Failed += r.failed
		for _, p := range r.problems {
			lines = append(lines, "FAIL "+p)
		}
		if first == nil {
			first = r
		}
	}
	timed := func(fresh bool, rec *recorder) (*passResult, float64, error) {
		t0 := time.Now()
		r, err := b.pass(fresh, rec)
		return r, time.Since(t0).Seconds(), err
	}

	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < budget || (!traced && i < minPasses); i++ {
		if !traced {
			r, s, err := timed(i == 0, nil)
			if err != nil {
				return nil, nil, err
			}
			note(r)
			untracedS = append(untracedS, s)
			untraced = append(untraced, r)
			continue
		}
		// A pair of identical fresh passes, the first untraced.
		r, s, err := timed(true, nil)
		if err != nil {
			return nil, nil, err
		}
		note(r)
		untracedS = append(untracedS, s)
		untraced = append(untraced, r)
		from := rec.mark()
		g0 := readGlobals()
		r, s, err = timed(true, rec)
		if err != nil {
			return nil, nil, err
		}
		g1 := readGlobals()
		note(r)
		tracedS = append(tracedS, s)
		r.layers.addGlobals(g0, g1)
		r.layers["trace.spans"] = float64(rec.mark() - from)
		r.layers.finishRatios()
		c := countLine(r.layers)
		if counts == "" {
			counts = c
		} else if c != counts {
			res.Correct = false
			lines = append(lines, "FAIL traced passes disagree on counts:\n  "+counts+"\n  "+c)
		}
		for k, v := range r.layers {
			perLayer[k] = append(perLayer[k], v)
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}

	passS := median(untracedS)
	rate := workRate(b.rate(), untraced, untracedS)
	if _, ok := b.(*diagnoseBench); ok {
		var sb strings.Builder
		for op := range first.opSecs {
			for _, p := range untraced {
				fmt.Fprintf(&sb, " %.3g", p.opSecs[op])
			}
			sb.WriteString(" |")
		}
		lines = append(lines, "# op seconds per pass, op by op:"+sb.String())
	}
	lines = append(lines, b.describe(first, rate)...)
	lines = append(lines, "digest outputs "+first.digest)
	if !traced {
		lines = append(lines, fmt.Sprintf("# %d passes, median %.6g s per pass, setup median %.6g s over %d repetitions",
			len(untracedS), passS, median(setupS), len(setupS)))
		res.Metrics["setup_s"] = metric{median(setupS), "s"}
		res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
		res.Metrics["work_per_s"] = metric{rate, "1/s"}
		return res, lines, nil
	}

	lines = append(lines, "counts "+counts)
	tracedMed := median(tracedS)
	perLayer["trace.untraced_pass_s"] = []float64{passS}
	perLayer["trace.traced_pass_s"] = []float64{tracedMed}
	perLayer["trace.overhead_s"] = []float64{tracedMed - passS}
	perLayer["trace.overhead_pct"] = []float64{100 * ratio(tracedMed-passS, passS)}
	for _, m := range layerMetrics {
		res.Metrics[m.name] = metric{median(perLayer[m.name]), m.unit}
	}
	lines = append(lines, fmt.Sprintf("# %d traced passes; tracing overhead %.6g s per pass (%.3g%%) over %.6g s untraced",
		len(tracedS), tracedMed-passS, 100*ratio(tracedMed-passS, passS), passS))
	lines = append(lines, layerTable(res.Metrics)...)
	if err := rec.write(filepath.Join(outDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", name, seed))); err != nil {
		return nil, nil, fmt.Errorf("writing spans: %w", err)
	}
	return res, lines, nil
}

// workRate is the run's work_per_s under rule r.
func workRate(r rateRule, passes []*passResult, secs []float64) float64 {
	if r.perOp {
		var total float64
		for op := range passes[0].opSecs {
			times := make([]float64, len(passes))
			for i, p := range passes {
				times[i] = p.opSecs[op]
			}
			total += quantile(times, r.q)
		}
		return passes[0].work / total
	}
	rates := make([]float64, len(passes))
	for i, p := range passes {
		rates[i] = p.work / secs[i]
	}
	return quantile(rates, r.q)
}

// countLine renders the count-type metrics in a fixed order.
func countLine(l layers) string {
	var sb strings.Builder
	for _, m := range layerMetrics {
		if m.count {
			fmt.Fprintf(&sb, "%s=%.9g ", m.name, l[m.name])
		}
	}
	return strings.TrimSpace(sb.String())
}

func layerTable(ms map[string]metric) []string {
	out := []string{"# per-layer metrics (median over traced passes):"}
	for _, m := range layerMetrics {
		out = append(out, fmt.Sprintf("#   %-28s %14.6g %s", m.name, ms[m.name].Value, m.unit))
	}
	return out
}

// checkDigests compares this run's output digest and counts with those
// an earlier run of the same sources, workload and seed stored, and
// stores them when none exist. It returns the disagreements.
func checkDigests(dir, key string, lines []string) []string {
	var problems []string
	for _, kind := range []string{"digest outputs ", "counts "} {
		var got string
		for _, l := range lines {
			if strings.HasPrefix(l, kind) {
				got = strings.TrimPrefix(l, kind)
			}
		}
		if got == "" {
			continue
		}
		path := filepath.Join(dir, key+"."+strings.Fields(kind)[0])
		prev, err := os.ReadFile(path)
		switch {
		case err == nil && string(prev) != got:
			problems = append(problems, fmt.Sprintf("%s differ from an earlier run of this seed:\n  before %s\n  now    %s",
				strings.TrimSpace(kind), prev, got))
		case errors.Is(err, fs.ErrNotExist):
			if err := os.MkdirAll(dir, 0o755); err != nil {
				problems = append(problems, "storing digest: "+err.Error())
			} else if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				problems = append(problems, "storing digest: "+err.Error())
			}
		case err != nil:
			problems = append(problems, "reading digest: "+err.Error())
		}
	}
	return problems
}

func printHeader(name string, seed int64, traced bool, tree string) {
	fmt.Printf("# perfbench workload=%s seed=%d trace=%v\n", name, seed, traced)
	fmt.Printf("# nproc=%d GOMAXPROCS=%d cpu=%q go=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version())
	fmt.Printf("# commit=%s tree=%s\n", commit(), tree)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the checked-out commit, or "none" when the working
// directory is not the top of a git work tree (the benchmark also runs
// from exported source trees, which git must not look beyond).
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// treeHash hashes the Go sources and module files under root, so digests
// from different code are never compared.
func treeHash(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
