// Command perfbench is the repository's benchmark: one single-process
// load generator per workload, driving the real stack through its public
// APIs, checking every output, and printing one JSON result line.
//
//	go run . --workload serve_chained --seed 1 --seconds 45 --trace 0
//
// Run from the repository root (perfbench/run.py builds and runs it
// there). Workloads:
//
//   - serve_chained: 16 EMSS E_{2,1} streams (n=8), 64 B payloads, one
//     subscriber. Roots are batch-signed, so the per-packet path (hash
//     chaining, shard handoff, mux framing, receiver bookkeeping)
//     dominates.
//   - serve_signed_fanout: 16 streams alternating Wong–Lam authtree and
//     signeach (n=8), 512 B payloads, two subscribers on two connections
//     sharing one verifier.SharedCache and one crypto.SigCache. Crypto and
//     cache work dominate. It is not in BENCHMARK.json: on two CPUs its
//     closed-loop throughput lands anywhere from about 3000 to 4900 msg/s
//     from one run to the next, too wide for a regression bound; run it by
//     hand with --trace 1 to study the crypto and cache layers.
//   - sim_sweep: the six conformance schemes at n=128, p=0.1 through the
//     analytic evaluator, a depgraph Monte-Carlo and netsim at 10^4
//     receivers, plus one overlay cell. It never touches server or
//     transport: the control for serving-path work.
//
// A serving run warms up until every stream's receiver holds its full
// 64-block window, then runs an open loop at 1250 msg/s for half the
// seconds and a closed loop (at most 4096 messages published but not yet
// authenticated everywhere) for the other half. An untraced serving run
// is split across four processes run one after another, each measuring a
// quarter of the seconds on the same inputs, and reports the median of
// their figures (see serveParts).
//
// End-to-end metrics, printed with --trace 0:
//
//   - auth_msgs_per_s: serving, closed loop: messages authenticated per
//     second at each subscriber, median over windows of about 2 s that
//     start and end at a burst of authentications. sim_sweep:
//     receiver-messages the simulators authenticated per second of
//     simulation wall time, median over sweeps.
//   - pub_auth_p50_ms, pub_auth_p99_ms: serving, open loop: from when a
//     message was due to be published until it authenticated, per
//     subscriber; the median over the open loop's 2 s windows of each
//     window's p50 and p99 (each window holds the samples a p99 needs).
//     sim_sweep: the simulated receiver delay (arrival to
//     authentication, the paper's delay metric) of every 16th
//     authentication of the first sweep.
//   - wire_bytes_per_msg: serving, closed loop: mux bytes written per
//     message authenticated. sim_sweep: bytes of the packets simulated
//     receivers got per message they authenticated.
//   - sweep_s: sim_sweep: wall time of one sweep, from its input to its
//     checked result, median over sweeps. Serving: the closed loop's time
//     to authenticate a chunk of 4096 messages everywhere, at the median
//     window rate.
//   - setup_s: median of 41 set-ups (keys, schemes, server, streams and
//     subscribers; or the sweep's signed blocks and models), each after
//     a garbage collection.
//   - peak_rss_mb: the process's peak resident set.
//
// With --trace 1 the run makes an untraced and a traced pass of half the
// seconds each and prints every per-layer metric: call costs timed around
// public calls, counters read from public APIs, each layer's self time
// from the benchmark-side spans, the stage reconciliation, and the tracing
// overhead (traced over untraced e2e value, minus one). A message's spans
// include the waits between calls (server hold, wire, read to
// authentication), so a layer's self time counts the time messages spent
// queued in it as well as the time its calls ran. The spans are written as
// JSONL under .bench_build/perfbench/.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
)

// spanDir holds the traced runs' span JSONL, relative to the repository
// root, under the directory run.py builds into.
var spanDir = filepath.Join(".bench_build", "perfbench")

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

var e2eMetrics = []metricDef{
	{"auth_msgs_per_s", "msg/s"},
	{"pub_auth_p50_ms", "ms"},
	{"pub_auth_p99_ms", "ms"},
	{"wire_bytes_per_msg", "B/msg"},
	{"sweep_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// overheadMetrics are the e2e metrics the traced run compares against its
// untraced pass.
var overheadMetrics = []string{"auth_msgs_per_s", "pub_auth_p50_ms", "pub_auth_p99_ms", "wire_bytes_per_msg", "sweep_s"}

// layerMetrics is every per-layer metric. A layer a workload does not
// exercise reads 0.
var layerMetrics = func() []metricDef {
	defs := []metricDef{
		{"server.publish_us_p50", "us"},
		{"server.publish_us_p99", "us"},
		{"server.hold_ms_p50", "ms"},
		{"server.hold_ms_p99", "ms"},
		{"server.root_hold_ms_p99", "ms"},
		{"server.sub_queue_depth_p99", "count"},
		{"server.sig_amortization", "ratio"},
		{"server.dropped", "count"},
		{"transport.write_us_p50", "us"},
		{"transport.write_us_p99", "us"},
		{"transport.read_us_p50", "us"},
		{"transport.read_us_p99", "us"},
		{"transport.wire_ms_p99", "ms"},
		{"transport.bytes_per_frame", "B/frame"},
		{"stream.ingest_us_p50", "us"},
		{"stream.ingest_us_p99", "us"},
		{"stream.drain_us_p50", "us"},
		{"stream.drain_us_p99", "us"},
		{"stream.busy_frac", "ratio"},
		{"stream.duplicates", "count"},
		{"stream.evicted_blocks", "count"},
		{"stream.starved_blocks", "count"},
		{"crypto.resolve_us_p50", "us"},
		{"crypto.resolve_us_p99", "us"},
		{"crypto.verify_amortization", "ratio"},
		{"crypto.sigcache_hit_frac", "ratio"},
		{"verifier.shared_cache_hit_frac", "ratio"},
		{"netsim.receivers_per_s", "1/s"},
		{"netsim.overlay_receivers_per_s", "1/s"},
		{"depgraph.mc_trials_per_s", "1/s"},
		{"analysis.eval_ms", "ms"},
		{"runtime.alloc_bytes_per_msg", "B/msg"},
		{"runtime.allocs_per_msg", "1/msg"},
		{"runtime.gc_cpu_frac", "ratio"},
		{"gen.late_p99_ms", "ms"},
		{"gen.sent", "count"},
		{"unauth_frac", "ratio"},
		{"recon.publish_ms", "ms"},
		{"recon.hold_ms", "ms"},
		{"recon.write_ms", "ms"},
		{"recon.wire_ms", "ms"},
		{"recon.ingest_to_auth_ms", "ms"},
		{"recon.sum_ms", "ms"},
		{"recon.e2e_p50_ms", "ms"},
		{"recon.remainder_ms", "ms"},
	}
	for _, l := range serveSelfLayers {
		defs = append(defs, metricDef{"self." + l + "_us_per_msg", "us/msg"})
	}
	for _, l := range simSelfLayers {
		defs = append(defs, metricDef{"self." + l + "_ms_per_sweep", "ms/sweep"})
	}
	for _, m := range overheadMetrics {
		defs = append(defs, metricDef{"overhead." + m, "ratio"})
	}
	return defs
}()

// workloadWhy is each workload's reason for being in the benchmark.
var workloadWhy = map[string]string{
	"serve_chained":       "EMSS roots batch-signed at ~1 signature per 64 blocks, so the per-packet path dominates: hash chaining, shard handoff, mux framing, receiver bookkeeping",
	"serve_signed_fanout": "authtree+signeach: a signature per signeach packet, every packet verified, caches shared by two subscribers, each packet delivered twice: crypto and caches dominate",
	"sim_sweep":           "the six schemes through analysis, depgraph Monte-Carlo and netsim plus an overlay cell; never touches server or transport, so it is the control for serving work",
}

// pass is one measured pass of a workload.
type pass struct {
	e2e         map[string]float64
	layer       map[string]float64
	meta        map[string]any
	attempted   int64
	failed      int64
	violations  []string
	spans       []span
	closedAuths int64
}

func newPass() *pass {
	return &pass{e2e: map[string]float64{}, layer: map[string]float64{}, meta: map[string]any{}}
}

func (p *pass) violate(format string, args ...any) {
	p.violations = append(p.violations, fmt.Sprintf(format, args...))
}

func runPass(workload string, seed uint64, seconds float64, traced bool) (*pass, error) {
	if workload == "sim_sweep" {
		return runSimPass(seed, fullSweep, seconds, traced)
	}
	return runServePass(serveShapes[workload], seed, seconds, traced)
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	part     bool
}

func parseOptions(args []string) (options, error) {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	fset.StringVar(&o.workload, "workload", "", "serve_chained | serve_signed_fanout | sim_sweep")
	fset.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fset.Float64Var(&o.seconds, "seconds", 45, "measured seconds per run")
	fset.IntVar(&o.trace, "trace", 0, "1: untraced and traced passes, print per-layer metrics")
	fset.BoolVar(&o.part, "part", false, "measure in this process only (one share of a split serving run)")
	if err := fset.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloadWhy[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("seconds %g must be >= 1", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("trace %d must be 0 or 1", o.trace)
	}
	return o, nil
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// run executes one benchmark run and returns the exit code: 0 when every
// check passed, 1 on a correctness violation (the result line still
// prints, with correct false), 2 when the run could not measure at all.
func run(args []string, stdout io.Writer) (int, error) {
	o, err := parseOptions(args)
	if err != nil {
		return 2, err
	}
	res := result{Metrics: map[string]metricValue{}}
	var violations []string
	meta := runMeta(o)
	steal0, ticks0 := stealTicks()
	if o.trace == 0 && !o.part && o.workload != "sim_sweep" {
		parts, err := runParts(o)
		if err != nil {
			return 2, err
		}
		res, violations = mergeParts(parts)
		var metas []map[string]any
		for _, pt := range parts {
			metas = append(metas, pt.meta)
		}
		meta["parts"] = metas
	} else if o.trace == 0 {
		p, err := runPass(o.workload, o.seed, o.seconds, false)
		if err != nil {
			return 2, err
		}
		p.e2e["peak_rss_mb"] = peakRSSMiB()
		for _, m := range e2eMetrics {
			res.Metrics[m.name] = metricValue{p.e2e[m.name], m.unit}
		}
		res.Attempted, res.Failed, violations = p.attempted, p.failed, p.violations
		meta["pass"] = p.meta
	} else {
		half := o.seconds / 2
		base, err := runPass(o.workload, o.seed, half, false)
		if err != nil {
			return 2, err
		}
		tp, err := runPass(o.workload, o.seed, half, true)
		if err != nil {
			return 2, err
		}
		for _, m := range overheadMetrics {
			tp.layer["overhead."+m] = ratio(tp.e2e[m], base.e2e[m]) - 1
		}
		for _, m := range layerMetrics {
			res.Metrics[m.name] = metricValue{tp.layer[m.name], m.unit}
		}
		res.Attempted = base.attempted + tp.attempted
		res.Failed = base.failed + tp.failed
		violations = append(base.violations, tp.violations...)
		path := filepath.Join(spanDir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
		n, err := writeSpans(path, tp.spans)
		if err != nil {
			return 2, err
		}
		meta["untraced"], meta["traced"] = base.meta, tp.meta
		meta["untraced_e2e"], meta["traced_e2e"] = base.e2e, tp.e2e
		meta["spans"] = map[string]any{"recorded": len(tp.spans), "written": n, "sampled_one_trace_in": traceSampleMod, "path": path}
	}
	res.Correct = len(violations) == 0
	meta["violations"] = violations
	steal1, ticks1 := stealTicks()
	meta["host_steal_frac"] = ratio(float64(steal1-steal0), float64(ticks1-ticks0))
	if err := report(stdout, o, res, meta); err != nil {
		return 2, err
	}
	if !res.Correct {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "perfbench: violation:", v)
		}
		return 1, nil
	}
	return 0, nil
}

// serveParts is how many processes an untraced serving run is split
// across, one after another, each measuring an equal share of the seconds
// on the same inputs. Closed-loop throughput settles at a level that
// differs from process to process more than within one (six 14 s
// processes of serve_chained: 2910-4607 msg/s; six passes in one process:
// 3775-4323), so a run reports each metric's median over its processes.
const serveParts = 4

// partResult is what one process of a split run printed.
type partResult struct {
	res  result
	meta map[string]any
}

// runParts runs a serving workload's share in serveParts processes of
// this program, one at a time, and returns what each printed. A process
// that could not measure fails the run; one that found a violation still
// counts, with correct false.
func runParts(o options) ([]partResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var parts []partResult
	for i := 0; i < serveParts; i++ {
		cmd := exec.Command(exe, "--workload", o.workload, "--seed", strconv.FormatUint(o.seed, 10),
			"--seconds", strconv.FormatFloat(o.seconds/serveParts, 'g', -1, 64), "--trace", "0", "--part")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		var exit *exec.ExitError
		if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
			return nil, fmt.Errorf("part %d: %w", i, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var pt partResult
		if len(lines) < 2 || !strings.HasPrefix(lines[len(lines)-2], "meta ") {
			return nil, fmt.Errorf("part %d printed no result", i)
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &pt.res); err != nil {
			return nil, fmt.Errorf("part %d result: %w", i, err)
		}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(lines[len(lines)-2], "meta ")), &pt.meta); err != nil {
			return nil, fmt.Errorf("part %d meta: %w", i, err)
		}
		parts = append(parts, pt)
	}
	return parts, nil
}

// mergeParts combines the processes of a split run: each metric is the
// median of the processes' values, attempts and failures add up, and the
// run is correct only if every process was.
func mergeParts(parts []partResult) (result, []string) {
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	var violations []string
	vals := map[string][]float64{}
	for i, pt := range parts {
		res.Correct = res.Correct && pt.res.Correct
		res.Attempted += pt.res.Attempted
		res.Failed += pt.res.Failed
		for name, m := range pt.res.Metrics {
			vals[name] = append(vals[name], m.Value)
		}
		if vs, ok := pt.meta["violations"].([]any); ok {
			for _, v := range vs {
				violations = append(violations, fmt.Sprintf("part %d: %v", i, v))
			}
		}
	}
	for _, m := range e2eMetrics {
		res.Metrics[m.name] = metricValue{medianFloat(vals[m.name]), m.unit}
	}
	if !res.Correct && len(violations) == 0 {
		violations = append(violations, "a part reported correct false")
	}
	return res, violations
}

// runMeta records what the run measured and on what.
func runMeta(o options) map[string]any {
	commit, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	return map[string]any{
		"workload":      o.workload,
		"why":           workloadWhy[o.workload],
		"seed":          o.seed,
		"seconds":       o.seconds,
		"trace":         o.trace,
		"commit":        commit,
		"vcs_modified":  modified,
		"source_sha256": sourceDigest("."),
		"go":            runtime.Version(),
		"cpus":          runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
	}
}

// sourceDigest hashes the module's Go sources and go.mod files under
// root, identifying the code measured where no git metadata exists.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	slices.Sort(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// report prints the human-readable table, the metadata line and, last,
// the JSON result line.
func report(w io.Writer, o options, res result, meta map[string]any) error {
	fmt.Fprintf(w, "perfbench %s seed %d, %g s, trace %d\n", o.workload, o.seed, o.seconds, o.trace)
	defs := e2eMetrics
	if o.trace == 1 {
		defs = layerMetrics
	}
	for _, m := range defs {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", m.name, res.Metrics[m.name].Value, m.unit)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
	if o.trace == 1 {
		traced, _ := meta["traced"].(map[string]any)
		reconTable(w, res, traced)
	}
	mb, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("meta: %w", err)
	}
	fmt.Fprintf(w, "meta %s\n", mb)
	rb, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", rb)
	return err
}

// reconTable prints the stage reconciliation and where the receiver
// goroutine's closed-loop time goes, by the call it was in.
func reconTable(w io.Writer, res result, traced map[string]any) {
	v := func(name string) float64 { return res.Metrics[name].Value }
	if v("recon.e2e_p50_ms") == 0 {
		return
	}
	fmt.Fprintln(w, "stage reconciliation (median per message, open loop):")
	for _, row := range []string{"publish", "hold", "write", "wire", "ingest_to_auth", "sum", "remainder", "e2e_p50"} {
		fmt.Fprintf(w, "  %-16s %10.4f ms\n", row, v("recon."+row+"_ms"))
	}
	perMsg, _ := traced["receiver_us_per_msg"].(map[string]float64)
	names := make([]string, 0, len(perMsg))
	for k := range perMsg {
		names = append(names, k)
	}
	slices.SortFunc(names, func(a, b string) int {
		switch {
		case perMsg[a] > perMsg[b]:
			return -1
		case perMsg[a] < perMsg[b]:
			return 1
		}
		return strings.Compare(a, b)
	})
	fmt.Fprint(w, "receiver time per authenticated message (closed loop):")
	for _, k := range names {
		fmt.Fprintf(w, " %s %.2f us;", k, perMsg[k])
	}
	if len(names) > 0 {
		fmt.Fprintf(w, " most in %s", names[0])
	}
	fmt.Fprintf(w, "\nreceiver busy in stream+crypto calls: %.1f%% of wall\n", 100*v("stream.busy_frac"))
}
