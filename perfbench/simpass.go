package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"
)

// simSelfLayers are the layers a sweep trace attributes self time to;
// "sim" is the sweep and cell roots' own time (checks and bookkeeping).
var simSelfLayers = []string{"sim", "analysis", "depgraph", "netsim"}

// runSimPass sets the sweep up, then repeats it on the same inputs for
// seconds (at least once), checking every cell and that every repeat
// reproduces the first exactly.
func runSimPass(seed uint64, size simSize, seconds float64, traced bool) (*pass, error) {
	clk := clock{base: time.Now()}
	var (
		s      *simSetup
		setups []float64
	)
	for i := 0; i < setupRepeats; i++ {
		runtime.GC() // every set-up starts from the same heap, not mid-cycle
		t0 := time.Now()
		ss, err := newSimSetup(seed, size)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		s = ss
	}
	var rec *recorder
	if traced {
		rec = &recorder{}
	}
	p := newPass()
	mem0 := readMem()
	deadline := time.Now().Add(time.Duration(seconds * 1e9))
	var sweeps []*sweepOutcome
	for i := 0; len(sweeps) == 0 || time.Now().Before(deadline); i++ {
		o, err := s.runSweep(clk, rec, uint64(i), i == 0)
		if err != nil {
			return nil, err
		}
		for _, f := range o.failures {
			p.violate("sweep %d: %s", i, f)
		}
		if i > 0 && !sameResults(sweeps[0], o) {
			p.violate("sweep %d differs from sweep 0 on the same inputs", i)
		}
		p.attempted += int64(len(o.results) + 1)
		p.failed += int64(len(o.failures))
		sweeps = append(sweeps, o)
	}
	mem1 := readMem()

	first := sweeps[0]
	lat := sortedCopy(first.latencies)
	p50, err := percentile(lat, 0.50)
	if err != nil {
		return nil, fmt.Errorf("pub_auth_p50_ms: %w", err)
	}
	p99, err := percentile(lat, 0.99)
	if err != nil {
		return nil, fmt.Errorf("pub_auth_p99_ms: %w", err)
	}
	var walls, rates []float64
	var authed int64
	var flat, over, mc, eval time.Duration
	for _, o := range sweeps {
		walls = append(walls, o.wall.Seconds())
		rates = append(rates, float64(o.authed)/o.simTime.Seconds())
		authed += o.authed
		flat += o.flatTime
		over += o.overTime
		mc += o.mcTime
		eval += o.evalTime
	}
	n := float64(len(sweeps))
	p.e2e["setup_s"] = medianFloat(setups)
	p.e2e["sweep_s"] = medianFloat(walls)
	p.e2e["auth_msgs_per_s"] = medianFloat(rates)
	p.e2e["pub_auth_p50_ms"] = float64(p50) / 1e6
	p.e2e["pub_auth_p99_ms"] = float64(p99) / 1e6
	p.e2e["wire_bytes_per_msg"] = ratio(float64(first.wireBytes), float64(first.authed))
	p.meta["pub_auth_samples"] = len(lat)
	p.meta["pub_auth_beyond_p99"] = len(lat) - 1 - rankOf(len(lat), 0.99)
	p.meta["sweep_samples"] = len(sweeps)
	p.meta["setup_repeats"] = setupRepeats
	p.meta["setup_s_range"] = []float64{slices.Min(setups), slices.Max(setups)}
	cells := make([]map[string]any, 0, len(first.results)+1)
	for _, r := range first.results {
		cells = append(cells, map[string]any{"case": r.Case, "p": r.P, "analytic": r.Analytic, "monte_carlo": r.MonteCarlo, "measured": r.Measured})
	}
	cells = append(cells, map[string]any{
		"case": "overlay " + s.cells[s.ocell].c.Name, "measured": first.overlayQ, "receiver_repairs": first.repaired,
		"forged_injected": first.forged.ForgedInjected, "forged_rejected": first.forged.ForgedRejected,
		"forged_authenticated": first.forged.ForgedAuthenticated,
	})
	p.meta["cells"] = cells

	if !traced {
		return p, nil
	}
	m := p.layer
	flatReceivers := 0
	for _, c := range s.cells {
		flatReceivers += c.cfg.Receivers
	}
	m["netsim.receivers_per_s"] = float64(flatReceivers) * n / flat.Seconds()
	m["netsim.overlay_receivers_per_s"] = float64(size.overlayReceivers) * n / over.Seconds()
	m["depgraph.mc_trials_per_s"] = float64(len(s.cells)*size.mcTrials) * n / mc.Seconds()
	m["analysis.eval_ms"] = eval.Seconds() * 1e3 / n
	runtimeLayers(p, mem0, mem1, authed)
	p.spans = rec.spans
	self := selfTimes(p.spans)
	for _, l := range simSelfLayers {
		m["self."+l+"_ms_per_sweep"] = float64(self[l]) / 1e6 / n
	}
	return p, nil
}
