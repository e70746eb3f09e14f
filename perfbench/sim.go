package main

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"time"

	"mcauth/internal/conformance"
	"mcauth/internal/delay"
	"mcauth/internal/depgraph"
	"mcauth/internal/loss"
	"mcauth/internal/netsim"
	"mcauth/internal/obs"
	"mcauth/internal/stats"
)

// The sweep: the six conformance schemes at one loss rate, each through
// the analytic evaluator, a dependence-graph Monte-Carlo and the network
// simulator, plus one overlay cell under a lossy shared tree edge with
// relays serving repairs and one poisoned repair store.
const (
	simP            = 0.1
	simPayload      = 64
	overlayDepth    = 2
	overlayFanout   = 4
	overlayEdgeP    = 0.3
	overlayPoisoned = 5 // a leaf relay under the lossy edge 1
	latencyEvery    = 16
)

// simSize is the sweep's statistical effort.
type simSize struct {
	block             int
	receivers         int
	signeachReceivers int
	mcTrials          int
	overlayReceivers  int
	// tolerances are the conformance parameters sized for this effort.
	tolerances conformance.Params
}

// fullSweep is the benchmark's sweep. The signeach cell is capped: each
// of its receivers runs one Ed25519 verify per packet, 128 per block, so
// 10^4 receivers would take about a minute on two CPUs, past a run's
// budget.
var fullSweep = simSize{
	block:             128,
	receivers:         10_000,
	signeachReceivers: 200,
	mcTrials:          30_000,
	overlayReceivers:  20_000,
	tolerances:        conformance.DefaultParams(),
}

// simCell is one scheme's inputs, built at set-up.
type simCell struct {
	c        conformance.Case
	payloads [][]byte
	sizes    []int // encoded wire size by packet index
	cfg      netsim.Config
}

type simSetup struct {
	size    simSize
	cells   []simCell
	params  conformance.Params
	overlay netsim.OverlayConfig
	ocfg    netsim.Config
	ocell   int // index of the scheme the overlay cell runs
}

// newSimSetup builds and signs every scheme's block, and the loss, delay
// and tree models.
func newSimSetup(seed uint64, size simSize) (*simSetup, error) {
	cases, err := conformance.Suite(size.block)
	if err != nil {
		return nil, err
	}
	params := size.tolerances
	params.MCTrials, params.Receivers, params.Seed = size.mcTrials, size.receivers, seed
	model, err := loss.NewBernoulli(simP)
	if err != nil {
		return nil, err
	}
	// A continuous network delay keeps the simulated receiver delay from
	// landing on the send grid; 1 ms mean as in the conformance suite.
	dm, err := delay.NewGaussian(time.Millisecond, 250*time.Microsecond)
	if err != nil {
		return nil, err
	}
	s := &simSetup{size: size, params: params, ocell: -1}
	for i, c := range cases {
		payloads := make([][]byte, c.Scheme.BlockSize())
		for j := range payloads {
			payloads[j] = appendPayload(nil, seed, uint64(i)<<32|uint64(j), simPayload)
		}
		pkts, err := c.Scheme.Authenticate(1, payloads)
		if err != nil {
			return nil, fmt.Errorf("%s: sign: %w", c.Name, err)
		}
		var sizes []int
		for _, p := range pkts {
			for int(p.Index) >= len(sizes) {
				sizes = append(sizes, 0)
			}
			sizes[p.Index] = p.EncodedSize()
		}
		interval := c.SendInterval
		if interval == 0 {
			interval = 10 * time.Millisecond
		}
		receivers := size.receivers
		if c.Name == "signeach" {
			receivers = size.signeachReceivers
		}
		cfg := netsim.Config{
			Receivers:       receivers,
			Loss:            model,
			Delay:           dm,
			SendInterval:    interval,
			Start:           c.Start,
			Seed:            seed + uint64(1000*simP),
			ReliableIndices: c.ReliableIndices,
		}
		s.cells = append(s.cells, simCell{c: c, payloads: payloads, sizes: sizes, cfg: cfg})
		if c.Name == "emss(E21)" {
			s.ocell = i
		}
	}
	if s.ocell < 0 {
		return nil, fmt.Errorf("conformance suite has no emss(E21) case")
	}
	tree, err := loss.NewUniformTree(seed, overlayDepth, overlayFanout, nil, model)
	if err != nil {
		return nil, err
	}
	edge, err := loss.NewBernoulli(overlayEdgeP)
	if err != nil {
		return nil, err
	}
	if err := tree.SetEdge(1, edge); err != nil {
		return nil, err
	}
	s.overlay = netsim.OverlayConfig{Tree: tree, Relays: true, ForgeRepairs: []int{overlayPoisoned}}
	s.ocfg = s.cells[s.ocell].cfg
	s.ocfg.Receivers = size.overlayReceivers
	// Real signature loss on the last hop, so receivers NACK their relay
	// and the poisoned store gets to serve forged repairs.
	s.ocfg.SigRetransmits = 1
	return s, nil
}

// sweepOutcome is one sweep's checked results and measurements.
type sweepOutcome struct {
	results   []conformance.Result
	overlayQ  float64
	forged    netsim.FaultTotals
	repaired  int
	wall      time.Duration
	authed    int64 // receiver-messages authenticated, flat and overlay
	wireBytes int64 // bytes of the packets those receivers got
	simTime   time.Duration
	flatTime  time.Duration
	overTime  time.Duration
	mcTime    time.Duration
	evalTime  time.Duration
	latencies []int64 // a 1-in-latencyEvery sample of arrival→authentication delays
	failures  []string
	tallyTime time.Duration // the benchmark's own counting, left out of wall
	scratch   []time.Duration
}

// runSweep evaluates every cell; rec, when non-nil, receives its spans.
func (s *simSetup) runSweep(clk clock, rec *recorder, sweepIdx uint64, keepLatencies bool) (*sweepOutcome, error) {
	out := &sweepOutcome{}
	start := time.Now()
	t0 := clk.now()
	var cellSpans []span
	timed := func(fn func() error) (time.Duration, int64, int64, error) {
		a := clk.now()
		err := fn()
		b := clk.now()
		return time.Duration(b - a), a, b, err
	}
	for i, cell := range s.cells {
		c := cell.c
		tr := obs.TraceID(uint64(i+1), 1)
		cellStart := clk.now()
		var r conformance.Result
		r.Case, r.P = c.Name, simP
		d, a, b, err := timed(func() (err error) { r.Analytic, err = c.Analytic(simP); return err })
		if err != nil {
			return nil, fmt.Errorf("%s: analytic: %w", c.Name, err)
		}
		out.evalTime += d
		cellSpans = append(cellSpans, span{Name: "analysis.eval", Trace: tr, Start: a, End: b})
		d, a, b, err = timed(func() error {
			g, err := c.Scheme.Graph()
			if err != nil {
				return err
			}
			mc, err := g.MonteCarloAuthProbInto(depgraph.BernoulliPatternInto(simP), s.params.MCTrials,
				stats.NewRNG(s.params.Seed^uint64(1000*simP)^uint64(i)), depgraph.MCOptions{})
			r.MonteCarlo = mc.QMin
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s: monte-carlo: %w", c.Name, err)
		}
		out.mcTime += d
		cellSpans = append(cellSpans, span{Name: "depgraph.mc", Trace: tr, Start: a, End: b})
		var res *netsim.Result
		d, a, b, err = timed(func() (err error) { res, err = netsim.Run(c.Scheme, cell.cfg, 1, cell.payloads); return err })
		if err != nil {
			return nil, fmt.Errorf("%s: netsim: %w", c.Name, err)
		}
		out.flatTime += d
		cellSpans = append(cellSpans, span{Name: "netsim.run", Trace: tr, Start: a, End: b})
		r.Measured = res.MinAuthRatio(c.DataIndices)
		out.tally(res, cell.sizes, keepLatencies)
		if err := r.Check(s.params); err != nil {
			out.failures = append(out.failures, err.Error())
		}
		out.results = append(out.results, r)
		cellSpans = append(cellSpans, span{Name: "sim.cell", Trace: tr, Start: cellStart, End: clk.now()})
	}
	cell := s.cells[s.ocell]
	tr := obs.TraceID(uint64(s.ocell+1), 1)
	var over *netsim.OverlayResult
	d, a, b, err := timed(func() (err error) {
		over, err = netsim.RunOverlay(cell.c.Scheme, s.ocfg, s.overlay, 1, cell.payloads)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("overlay: %w", err)
	}
	out.overTime = d
	cellSpans = append(cellSpans,
		span{Name: "netsim.overlay", Trace: tr, Start: a, End: b},
		span{Name: "sim.cell", Trace: tr, Start: a, End: b})
	out.overlayQ = over.MinAuthRatio(cell.c.DataIndices)
	out.forged = over.FaultTotals()
	out.repaired = over.TotalRepaired()
	out.tally(&over.Result, cell.sizes, keepLatencies)
	if out.forged.ForgedAuthenticated != 0 {
		out.failures = append(out.failures, fmt.Sprintf("overlay: %d forged repairs authenticated", out.forged.ForgedAuthenticated))
	}
	if out.forged.ForgedInjected == 0 {
		out.failures = append(out.failures, "overlay: the poisoned relay served no forged repair, so the forgery check is vacuous")
	}
	out.simTime = out.flatTime + out.overTime
	out.wall = time.Since(start) - out.tallyTime
	if rec != nil {
		rootID := rec.add("sim.sweep", obs.TraceID(0, sweepIdx), 0, t0, clk.now())
		// Cells are children of the sweep; layer calls are children of
		// the cell recorded just after them (same trace).
		var pending []span
		for _, sp := range cellSpans {
			if sp.Name != "sim.cell" {
				pending = append(pending, sp)
				continue
			}
			id := rec.add(sp.Name, sp.Trace, rootID, sp.Start, sp.End)
			for _, ch := range pending {
				rec.add(ch.Name, ch.Trace, id, ch.Start, ch.End)
			}
			pending = pending[:0]
		}
	}
	return out, nil
}

// tally adds one simulation's authentications, received bytes and,
// when asked, a sample of receiver delays: each receiver's delays are
// sorted first (TESLA verifiers report them in map order) and every
// latencyEvery-th is kept, so the sample is a function of the inputs.
func (o *sweepOutcome) tally(res *netsim.Result, sizes []int, keepLatencies bool) {
	start := time.Now()
	defer func() {
		// Collect between cells, off the clock, so peak RSS reflects one
		// simulation's working set rather than where GC happened to run.
		runtime.GC()
		o.tallyTime += time.Since(start)
	}()
	n := 0
	for i := range res.PerReceiver {
		rep := &res.PerReceiver[i]
		for idx, got := range rep.ReceivedByIndex {
			if got && idx < len(sizes) {
				o.wireBytes += int64(sizes[idx])
			}
		}
		for _, v := range rep.VerifiedByIndex {
			if v {
				o.authed++
			}
		}
		if !keepLatencies {
			continue
		}
		o.scratch = append(o.scratch[:0], rep.AuthLatencies...)
		slices.Sort(o.scratch)
		for _, l := range o.scratch {
			if n++; n%latencyEvery == 0 {
				o.latencies = append(o.latencies, int64(l))
			}
		}
	}
}

// sameResults reports whether two sweeps of the same inputs agree exactly.
func sameResults(a, b *sweepOutcome) bool {
	return reflect.DeepEqual(a.results, b.results) && a.overlayQ == b.overlayQ &&
		(a.latencies == nil || b.latencies == nil || slices.Equal(a.latencies, b.latencies)) &&
		a.forged == b.forged && a.repaired == b.repaired && a.authed == b.authed && a.wireBytes == b.wireBytes
}
