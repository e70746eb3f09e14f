package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"mcauth/internal/conformance"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(i + 1)
		}
		return out
	}
	if v, err := percentile(seq(1000), 0.99); err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %d, %v; want 990 with exactly 10 beyond", v, err)
	}
	if _, err := percentile(seq(999), 0.99); err == nil {
		t.Fatal("p99 of 999 samples leaves 9 beyond it and must be refused")
	}
	if v, err := percentile(seq(21), 0.50); err != nil || v != 11 {
		t.Fatalf("p50 of 1..21 = %d, %v; want 11", v, err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("a percentile of no samples must be refused")
	}
	if v := loosePercentile(seq(5), 0.99); v != 5 {
		t.Fatalf("loose p99 of 1..5 = %d, want 5", v)
	}
}

func TestOpenLoopLatencyCountsFromDue(t *testing.T) {
	gen := &generator{}
	r := &subReader{}
	// Message 0 was due at 100, published late at 150, authenticated at
	// 160: its latency is 60, not the 10 since it was sent.
	gen.due.set(0, 100)
	gen.pubStart.set(0, 150)
	r.authAt.set(0, 160)
	got := openLatencies(gen, []*subReader{r}, 0, 1)
	if len(got) != 1 || got[0] != 60 {
		t.Fatalf("latencies %v, want [60]", got)
	}
}

func TestLatencyWindowsKeepTheP99Rule(t *testing.T) {
	gen := &generator{}
	r := &subReader{}
	// Message g is due at g+1 and waits g%10, plus 1000 from message 1000
	// on.
	for g := uint64(0); g < 2000; g++ {
		gen.due.set(g, int64(g)+1)
		r.authAt.set(g, int64(g)+1+int64(g/1000)*1000+int64(g%10))
	}
	// Two windows of 750 latencies leave too few beyond a p99, so the
	// phase becomes one window.
	w, err := latencyWindows(gen, []*subReader{r}, 0, 1500, 2)
	if err != nil || len(w) != 1 || w[0].samples != 1500 {
		t.Fatalf("windows %+v, %v; want one of 1500 samples", w, err)
	}
	w, err = latencyWindows(gen, []*subReader{r}, 0, 2000, 2)
	if err != nil || len(w) != 2 {
		t.Fatalf("windows %+v, %v; want two", w, err)
	}
	if w[0].p50 != 4 || w[0].p99 != 9 || w[1].p50 != 1004 || w[1].p99 != 1009 {
		t.Fatalf("windows %+v: want p50/p99 4/9 then 1004/1009", w)
	}
	if _, err := latencyWindows(gen, []*subReader{r}, 0, 500, 1); err == nil {
		t.Fatal("500 latencies cannot give a p99 and must be refused")
	}
}

func TestBurstRatesCountWholeBursts(t *testing.T) {
	// Bursts of 10 authentications sharing a timestamp every 100 ns.
	var at []int64
	for b := int64(0); b < 10; b++ {
		for i := 0; i < 10; i++ {
			at = append(at, 100*b)
		}
	}
	// The grid points 250, 500 and 750 cut inside gaps; each window still
	// starts and ends on a burst, so every rate is exactly 10 per 100 ns.
	rates := burstRates(at, 0, 1000, 4)
	if len(rates) != 3 {
		t.Fatalf("rates %v, want 3 windows", rates)
	}
	for _, r := range rates {
		if r != 1e8 {
			t.Fatalf("rates %v, want 1e8/s each", rates)
		}
	}
	// Grid points inside one burst merge their windows.
	if rates := burstRates(at, 0, 1000, 40); len(rates) != 9 {
		t.Fatalf("%d windows at 40 grid points over 10 bursts, want 9", len(rates))
	}
}

func TestMergePartsTakesMediansAndSums(t *testing.T) {
	part := func(correct bool, failed int64, rate float64, violations ...any) partResult {
		return partResult{
			res:  result{Correct: correct, Attempted: 100, Failed: failed, Metrics: map[string]metricValue{"auth_msgs_per_s": {rate, "msg/s"}}},
			meta: map[string]any{"violations": violations},
		}
	}
	res, v := mergeParts([]partResult{part(true, 0, 30), part(true, 0, 10), part(true, 0, 20), part(true, 0, 1000)})
	if !res.Correct || res.Attempted != 400 || res.Failed != 0 || len(v) != 0 {
		t.Fatalf("merged %+v, violations %v", res, v)
	}
	if got := res.Metrics["auth_msgs_per_s"]; got.Value != 25 || got.Unit != "msg/s" {
		t.Fatalf("auth_msgs_per_s %+v, want the median 25 msg/s", got)
	}
	if len(res.Metrics) != len(e2eMetrics) {
		t.Fatalf("%d metrics, want every e2e metric", len(res.Metrics))
	}
	res, v = mergeParts([]partResult{part(true, 0, 1), part(false, 3, 1, "message 7 authenticated twice")})
	if res.Correct || res.Failed != 3 || len(v) != 1 {
		t.Fatalf("a failing part must fail the run: %+v, %v", res, v)
	}
}

func TestWaitBelowHoldsTheWindow(t *testing.T) {
	r := &subReader{}
	st := &stack{live: &live{wake: make(chan struct{}, 1)}, readers: []*subReader{r}}
	gen := newGenerator(st)
	gen.next = 5 // five published, none authenticated
	if err := gen.waitBelow(6); err != nil {
		t.Fatal(err)
	}
	released := make(chan time.Time, 1)
	go func() {
		time.Sleep(30 * time.Millisecond)
		released <- time.Now()
		r.authCount.Store(1)
		st.live.wake <- struct{}{}
	}()
	if err := gen.waitBelow(5); err != nil {
		t.Fatal(err)
	}
	at := <-released
	if time.Now().Before(at) {
		t.Fatal("waitBelow returned before a message authenticated")
	}
	if inFlight := int64(gen.next) - gen.minAuth(); inFlight >= 5 {
		t.Fatalf("%d in flight after waitBelow(5)", inFlight)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	var rec recorder
	root := rec.add("e2e.message", 1, 0, 0, 100)
	rec.add("server.publish", 1, root, 10, 30)
	rec.add("server.hold", 1, root, 20, 50) // overlaps publish: counted once
	rec.add("stream.auth_wait", 1, root, 90, 120)
	self := selfTimes(rec.spans)
	if self["e2e"] != 100-40-10 {
		t.Fatalf("root self time %d, want 50", self["e2e"])
	}
	if self["server"] != 20+30 || self["stream"] != 30 {
		t.Fatalf("self times %v", self)
	}
}

func TestPayloadCheck(t *testing.T) {
	c := payloadChecker{seed: 9, size: 64}
	p := appendPayload(nil, 9, 1234, 64)
	if g, ok := c.check(p); !ok || g != 1234 {
		t.Fatalf("check(own payload) = %d, %v", g, ok)
	}
	p[40] ^= 1
	if _, ok := c.check(p); ok {
		t.Fatal("a flipped payload bit passed the check")
	}
	if _, ok := c.check(appendPayload(nil, 8, 1234, 64)); ok {
		t.Fatal("another seed's payload passed the check")
	}
}

func TestSmokeServe(t *testing.T) {
	for _, name := range []string{"serve_chained", "serve_signed_fanout"} {
		t.Run(name, func(t *testing.T) {
			shape := serveShapes[name]
			if raceEnabled {
				smokeServeRace(t, shape)
				return
			}
			// 1.5 s of open loop yields more than the 1000 samples a p99
			// needs.
			p, err := runServePass(shape, 7, 3, true)
			if err != nil {
				t.Fatal(err)
			}
			if len(p.violations) > 0 || p.failed != 0 || p.attempted == 0 {
				t.Fatalf("attempted %d, failed %d, violations %v", p.attempted, p.failed, p.violations)
			}
			for _, m := range e2eMetrics {
				if m.name != "peak_rss_mb" && p.e2e[m.name] <= 0 {
					t.Errorf("%s = %v, want > 0", m.name, p.e2e[m.name])
				}
			}
			if got := p.meta["closed_max_in_flight"].(int64); got > window {
				t.Errorf("closed loop had %d messages in flight, window is %d", got, window)
			}
			if p.layer["server.sig_amortization"] <= 1 || p.layer["stream.ingest_us_p50"] <= 0 || len(p.spans) == 0 {
				t.Errorf("per-layer figures missing: %v, %d spans", p.layer, len(p.spans))
			}
			if p.layer["recon.e2e_p50_ms"] <= 0 {
				t.Errorf("no reconciliation: %v", p.layer)
			}
		})
	}
}

// smokeServeRace drives the concurrent serving path under the race
// detector, which slows it about tenfold: too slow for the open loop's
// rate and for the 1000 samples a p99 needs, so it runs the closed-loop
// warm-up only and then the correctness checks.
func smokeServeRace(t *testing.T, shape serveShape) {
	st, err := newStack(shape, 7, clock{base: time.Now()}, true)
	if err != nil {
		t.Fatal(err)
	}
	gen := newGenerator(st)
	for err == nil && !gen.allWarm() {
		if err = gen.waitWindow(); err == nil {
			err = gen.publish(st.clk.now())
		}
	}
	st.close()
	if err != nil {
		t.Fatal(err)
	}
	p := newPass()
	serveCorrectness(st, gen, p)
	if len(p.violations) > 0 || p.failed != 0 {
		t.Fatalf("attempted %d, failed %d, violations %v", p.attempted, p.failed, p.violations)
	}
}

func TestSmokeSim(t *testing.T) {
	small := simSize{
		block:             32,
		receivers:         500,
		signeachReceivers: 50,
		mcTrials:          8000,
		overlayReceivers:  2000,
		tolerances:        conformance.ShortParams(),
	}
	p, err := runSimPass(3, small, 0.5, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.violations) > 0 || p.failed != 0 {
		t.Fatalf("violations %v", p.violations)
	}
	for _, m := range e2eMetrics {
		if m.name != "peak_rss_mb" && p.e2e[m.name] <= 0 {
			t.Errorf("%s = %v, want > 0", m.name, p.e2e[m.name])
		}
	}
	if p.layer["netsim.receivers_per_s"] <= 0 || p.layer["self.netsim_ms_per_sweep"] <= 0 {
		t.Errorf("per-layer figures missing: %v", p.layer)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json in step with the metrics
// and workloads the program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) < 2 {
		t.Fatalf("%d workloads, want at least 2", len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		if workloadWhy[w.Name] != w.Why {
			t.Errorf("workload %s: why %q, program says %q", w.Name, w.Why, workloadWhy[w.Name])
		}
	}
	if len(spec.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("%d end_to_end metrics, program reports %d", len(spec.EndToEnd), len(e2eMetrics))
	}
	var setupBound, maxBound float64
	for i, m := range spec.EndToEnd {
		if m.Name != e2eMetrics[i].name || m.Unit != e2eMetrics[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, program reports %s %s", i, m.Name, m.Unit, e2eMetrics[i].name, e2eMetrics[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %v out of (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per_layer metrics, program reports %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per_layer[%d] = %s %s, program reports %s %s", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
}
