package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/obs"
)

// generator is the single load-generating goroutine: it publishes
// messages in global index order, round-robin over the streams.
type generator struct {
	st                    *stack
	next                  uint64
	due, pubStart, pubEnd column
	timer                 *time.Timer
	lastMin               int64
	lastProgress          time.Time
}

func newGenerator(st *stack) *generator {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &generator{st: st, timer: t, lastProgress: time.Now()}
}

// publish hands message next to the server. due is when it was due to be
// published; the latency of an open-loop message counts from it.
func (gen *generator) publish(due int64) error {
	st, g := gen.st, gen.next
	payload := appendPayload(make([]byte, 0, st.shape.payload), st.seed, g, st.shape.payload)
	st.live.issued.Store(g + 1)
	start := st.clk.now()
	if err := st.srv.Publish(streamOf(g), payload); err != nil {
		return fmt.Errorf("publish message %d: %w", g, err)
	}
	gen.due.set(g, due)
	gen.pubStart.set(g, start)
	if st.traced {
		gen.pubEnd.set(g, st.clk.now())
	}
	gen.next++
	return nil
}

// minAuth is how many messages the slowest subscriber has authenticated.
func (gen *generator) minAuth() int64 {
	m := int64(math.MaxInt64)
	for _, r := range gen.st.readers {
		m = min(m, r.authCount.Load())
	}
	return m
}

// waitBelow blocks until fewer than limit published messages are still
// unauthenticated at some subscriber — the closed loop's window — and
// fails when authentication stops making progress.
func (gen *generator) waitBelow(limit int64) error {
	wb := &gen.st.live.wakeBelow
	defer wb.Store(0)
	for {
		// Publish the threshold before reading the counts, so a receiver
		// that authenticates after the read sees it and pokes.
		wb.Store(limit)
		m := gen.minAuth()
		if int64(gen.next)-m < limit {
			return nil
		}
		if m != gen.lastMin {
			gen.lastMin, gen.lastProgress = m, time.Now()
		} else if time.Since(gen.lastProgress) > stallTimeout {
			return fmt.Errorf("%d of %d published messages unauthenticated: %w", int64(gen.next)-m, gen.next, errStall)
		}
		if !gen.timer.Stop() {
			select {
			case <-gen.timer.C:
			default:
			}
		}
		gen.timer.Reset(100 * time.Millisecond)
		select {
		case <-gen.st.live.wake:
		case <-gen.timer.C:
		}
	}
}

// waitWindow holds the closed loop's window: when it is full it waits
// until refill slots are free, so the generator wakes once per batch of
// authentications rather than once per authentication.
func (gen *generator) waitWindow() error {
	if int64(gen.next)-gen.minAuth() < window {
		return nil
	}
	return gen.waitBelow(window - refill)
}

func (gen *generator) allWarm() bool {
	for _, r := range gen.st.readers {
		if !r.warm.Load() {
			return false
		}
	}
	return true
}

// snapshot holds the cumulative counters read at a phase boundary.
type snapshot struct {
	at                   int64
	bytes, frames        int64
	mem                  memSnap
	batch                crypto.BatchTotals
	verify               crypto.VerifyTotals
	sig                  crypto.SigCacheStats
	sharedHits, sharedLk int64
	rootHold             obs.HistogramData
}

func (st *stack) snapshot() snapshot {
	s := snapshot{
		at:       st.clk.now(),
		bytes:    st.reg.Counter("transport.bytes_written").Value(),
		frames:   st.reg.Counter("transport.frames_written").Value(),
		mem:      readMem(),
		batch:    st.srv.BatchTotals(),
		sig:      st.sigs.Stats(),
		rootHold: st.reg.Histogram("server.root_hold_ns").Data(),
	}
	for _, r := range st.readers {
		t := r.q.Totals()
		s.verify.Enqueued += t.Enqueued
		s.verify.Checks += t.Checks
	}
	cs := st.shared.Stats()
	s.sharedHits, s.sharedLk = cs.Hits, cs.Hits+cs.Misses
	return s
}

// phases records where each measured phase starts and ends, in message
// indices and run-clock times.
type phases struct {
	open0, open1       uint64
	tOpen0, tOpen1     int64
	closed0, closedEnd snapshot
	openSnap           snapshot
	warmup             time.Duration
	// maxInFlight is the most messages published but not authenticated
	// everywhere, counting the one about to be published, in the closed
	// loop.
	maxInFlight int64
}

// runServePass sets up a serving workload, warms it up, runs its
// open-loop and closed-loop phases for seconds in total, drains it, and
// checks and measures the result.
func runServePass(shape serveShape, seed uint64, seconds float64, traced bool) (*pass, error) {
	clk := clock{base: time.Now()}
	var (
		st     *stack
		setups []float64
	)
	for i := 0; i < setupRepeats; i++ {
		runtime.GC() // every set-up starts from the same heap, not mid-cycle
		t0 := time.Now()
		s, err := newStack(shape, seed, clk, traced)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			s.close()
		} else {
			st = s
		}
	}
	defer st.close()
	gen := newGenerator(st)
	ph, err := drive(gen, seconds)
	if err != nil {
		return nil, err
	}
	st.close()
	p := newPass()
	p.e2e["setup_s"] = medianFloat(setups)
	p.meta["warmup_s"] = ph.warmup.Seconds()
	p.meta["closed_max_in_flight"] = ph.maxInFlight
	p.meta["setup_repeats"] = setupRepeats
	p.meta["setup_s_range"] = []float64{slices.Min(setups), slices.Max(setups)}
	serveCorrectness(st, gen, p)
	if err := serveE2E(st, gen, ph, p); err != nil {
		return nil, err
	}
	if traced {
		serveLayers(st, gen, ph, p)
	}
	return p, nil
}

// drive runs warm-up, the open loop and the closed loop. It leaves the
// last messages in flight: their verdicts settle when the stack closes,
// as at the end of an mcserved receiver session.
func drive(gen *generator, seconds float64) (phases, error) {
	st := gen.st
	var ph phases
	w0 := time.Now()
	for !gen.allWarm() {
		if err := gen.waitWindow(); err != nil {
			return ph, fmt.Errorf("warm-up: %w", err)
		}
		if err := gen.publish(st.clk.now()); err != nil {
			return ph, err
		}
	}
	// Let the closed-loop backlog drain at the open-loop rate, so the
	// measured open loop starts in its own steady state.
	if err := gen.settle(); err != nil {
		return ph, fmt.Errorf("warm-up: %w", err)
	}
	ph.warmup = time.Since(w0)

	half := int64(seconds / 2 * 1e9)
	ph.openSnap = st.snapshot()
	ph.open0 = gen.next
	ph.tOpen0 = st.clk.now()
	if err := gen.openLoop(ph.tOpen0, half); err != nil {
		return ph, err
	}
	ph.open1 = gen.next
	ph.tOpen1 = st.clk.now()
	// Keep the open-loop rate a while longer: the last measured messages
	// authenticate under open-loop traffic, not behind the closed loop's
	// first window.
	if err := gen.openLoop(st.clk.now(), int64(settleTime)); err != nil {
		return ph, err
	}

	// The closed loop is measured from when its window first fills (or
	// after settleTime, should it never fill): until then bytes go out for
	// messages that cannot have authenticated yet, and at the end the
	// window is full again, so bytes, allocations and authentications over
	// the measured part describe the same messages.
	fill, measuring := st.clk.now(), false
	for {
		now := st.clk.now()
		if !measuring && (int64(gen.next)-gen.minAuth() >= window || now >= fill+int64(settleTime)) {
			ph.closed0, measuring = st.snapshot(), true
		}
		if measuring && now >= ph.closed0.at+half {
			break
		}
		if err := gen.waitWindow(); err != nil {
			return ph, fmt.Errorf("closed loop: %w", err)
		}
		ph.maxInFlight = max(ph.maxInFlight, int64(gen.next)-gen.minAuth()+1)
		if err := gen.publish(st.clk.now()); err != nil {
			return ph, err
		}
	}
	ph.closedEnd = st.snapshot()
	return ph, nil
}

// settle runs the open loop for at least settleTime and until no more
// than a quarter second of its traffic is in flight.
func (gen *generator) settle() error {
	start := time.Now()
	for {
		if err := gen.openLoop(gen.st.clk.now(), int64(settleTime)/4); err != nil {
			return err
		}
		if time.Since(start) >= settleTime && int64(gen.next)-gen.minAuth() <= openRate/4 {
			return nil
		}
		if time.Since(start) > stallTimeout {
			return fmt.Errorf("open-loop backlog still %d messages after %v", int64(gen.next)-gen.minAuth(), stallTimeout)
		}
	}
}

// openLoop publishes at openRate for dur nanoseconds from start, each
// message due on its schedule whether or not earlier ones have finished.
func (gen *generator) openLoop(start, dur int64) error {
	interval := int64(time.Second) / openRate
	for k := int64(0); ; k++ {
		due := start + k*interval
		if due >= start+dur {
			return nil
		}
		if d := due - gen.st.clk.now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		if err := gen.publish(due); err != nil {
			return err
		}
	}
}

// serveCorrectness applies the end-of-run checks: every published
// message authenticated exactly once at every subscriber, nothing
// rejected, no write failed, plus whatever the receivers flagged live.
func serveCorrectness(st *stack, gen *generator, p *pass) {
	issued := gen.next
	var badPairs, badMsgs int64
	var first string
	for g := uint64(0); g < issued; g++ {
		bad := false
		for i, r := range st.readers {
			if c := r.count.get(g); c != 1 {
				badPairs++
				bad = true
				if first == "" {
					first = fmt.Sprintf("message %d authenticated %d times at subscriber %d", g, c, i)
				}
			}
		}
		if bad {
			badMsgs++
		}
	}
	p.attempted = int64(issued) * int64(len(st.readers))
	p.failed = badPairs
	if badPairs > 0 {
		p.violate("%d of %d message deliveries not authenticated exactly once (%s)", badPairs, p.attempted, first)
	}
	var rejected, dups, evicted, starved, drops int64
	for i, r := range st.readers {
		for _, v := range r.violations {
			p.violate("subscriber %d: %s", i, v)
		}
		if extra := r.nViolations - len(r.violations); extra > 0 {
			p.violate("subscriber %d: %d more violations", i, extra)
		}
		for _, id := range r.dmx.StreamIDs() {
			rcv := r.dmx.Receiver(id)
			t := rcv.Totals()
			rejected += int64(t.Rejected)
			dups += int64(t.Duplicates)
			evicted += int64(t.EvictedBlocks)
			starved += int64(len(rcv.Starved()))
		}
	}
	for i, w := range st.writers {
		if w.err != nil {
			p.violate("subscriber %d writer: %v", i, w.err)
		}
		drops += w.sub.Drops()
	}
	if rejected != 0 {
		p.violate("receivers rejected %d packets, want 0", rejected)
	}
	p.layer["unauth_frac"] = ratio(float64(badMsgs), float64(issued))
	p.layer["stream.duplicates"] = float64(dups)
	p.layer["stream.evicted_blocks"] = float64(evicted)
	p.layer["stream.starved_blocks"] = float64(starved)
	p.layer["server.dropped"] = float64(drops)
	p.meta["messages_published"] = issued
	p.meta["rejected"] = rejected
	p.meta["shed_data"] = st.reg.Counter("server.shed_data").Value()
	p.meta["shed_sig"] = st.reg.Counter("server.shed_sig").Value()
}

// openLatencies returns, for messages [from, to) at every subscriber, the
// time from when the message was due to be published until it
// authenticated: a generator running late adds its lateness.
func openLatencies(gen *generator, readers []*subReader, from, to uint64) []int64 {
	var out []int64
	for g := from; g < to; g++ {
		due := gen.due.get(g)
		for _, r := range readers {
			if a := r.authAt.get(g); a > 0 {
				out = append(out, a-due)
			}
		}
	}
	return out
}

// serveE2E computes the end-to-end metrics of a serving pass. Latency and
// rate are medians over windows of their phase, so a few seconds in which
// the host lends the run fewer cycles move a window or two but not the
// figure.
func serveE2E(st *stack, gen *generator, ph phases, p *pass) error {
	var late []int64
	for g := ph.open0; g < ph.open1; g++ {
		late = append(late, gen.pubStart.get(g)-gen.due.get(g))
	}
	lw, err := latencyWindows(gen, st.readers, ph.open0, ph.open1, int((ph.tOpen1-ph.tOpen0)/int64(latWindow)))
	if err != nil {
		return err
	}
	var p50s, p99s []float64
	samples, beyond := 0, math.MaxInt
	for _, w := range lw {
		p50s = append(p50s, float64(w.p50)/1e6)
		p99s = append(p99s, float64(w.p99)/1e6)
		samples += w.samples
		beyond = min(beyond, w.samples-1-rankOf(w.samples, 0.99))
	}
	p.e2e["pub_auth_p50_ms"] = medianFloat(p50s)
	p.e2e["pub_auth_p99_ms"] = medianFloat(p99s)
	p.meta["pub_auth_samples"] = samples
	p.meta["pub_auth_windows"] = len(lw)
	p.meta["pub_auth_min_beyond_p99"] = beyond
	p.meta["pub_auth_p99_ms_range"] = []float64{slices.Min(p99s), slices.Max(p99s)}
	late = sortedCopy(late)
	p.layer["gen.late_p99_ms"] = float64(loosePercentile(late, 0.99)) / 1e6
	p.meta["gen_late_p99_ms"] = p.layer["gen.late_p99_ms"]
	p.layer["gen.sent"] = float64(gen.next - ph.open0)

	t0, t1 := ph.closed0.at, ph.closedEnd.at
	var closedAuths int64
	perSub := make([][]float64, len(st.readers))
	for i, r := range st.readers {
		var at []int64
		for g := uint64(0); g < gen.next; g++ {
			if a := r.authAt.get(g); a >= t0 && a < t1 {
				at = append(at, a)
			}
		}
		closedAuths += int64(len(at))
		slices.Sort(at)
		perSub[i] = burstRates(at, t0, t1, max(minRateWindows, int((t1-t0)/int64(rateWindow))))
	}
	rates := perSub[0]
	for _, rs := range perSub[1:] {
		rates = rates[:min(len(rates), len(rs))]
		for k := range rates {
			rates[k] += rs[k]
		}
	}
	for k := range rates {
		rates[k] /= float64(len(perSub))
	}
	if len(rates) == 0 {
		return fmt.Errorf("auth_msgs_per_s: the closed loop authenticated too few bursts to time")
	}
	p.e2e["auth_msgs_per_s"] = medianFloat(rates)
	// sweep_s: the closed loop's time to authenticate one chunk at every
	// subscriber. By Little's law a chunk's first publish to its last
	// authentication is the same figure plus the window ahead of it, so
	// the chunk is timed at the median window rate rather than directly,
	// where which batch signature its last message waits for would add
	// ±1 signing interval of jitter.
	p.e2e["sweep_s"] = chunkMsgs / p.e2e["auth_msgs_per_s"]
	p.meta["auth_rate_windows"] = len(rates)
	p.meta["auth_rates"] = rates
	p.meta["closed_process_cpus"] = ratio(ph.closedEnd.mem.procCPU-ph.closed0.mem.procCPU, float64(t1-t0)/1e9)
	p.e2e["wire_bytes_per_msg"] = ratio(float64(ph.closedEnd.bytes-ph.closed0.bytes), float64(closedAuths))
	p.closedAuths = closedAuths
	return nil
}

// latencyWindow is one slice of the open loop: its message latencies'
// median and p99, and how many latencies it held.
type latencyWindow struct {
	p50, p99 int64
	samples  int
}

// latencyWindows splits messages [from, to) into k contiguous runs of
// equal length — equal spans of due time, since the open loop publishes
// on a fixed schedule — and returns each run's p50 and p99 latency over
// every subscriber. k is lowered until every run holds the samples a p99
// needs.
func latencyWindows(gen *generator, readers []*subReader, from, to uint64, k int) ([]latencyWindow, error) {
	k = max(1, k)
	for ; ; k-- {
		n := (to - from) / uint64(k)
		var out []latencyWindow
		var err error
		for w := 0; w < k && err == nil; w++ {
			end := from + uint64(w+1)*n
			if w == k-1 {
				end = to
			}
			lat := sortedCopy(openLatencies(gen, readers, from+uint64(w)*n, end))
			lw := latencyWindow{samples: len(lat)}
			if lw.p50, err = percentile(lat, 0.50); err == nil {
				lw.p99, err = percentile(lat, 0.99)
			}
			out = append(out, lw)
		}
		if err == nil {
			return out, nil
		}
		if k == 1 {
			return nil, fmt.Errorf("pub_auth_p99_ms: %w", err)
		}
	}
}

// burstRates returns the authentication rate over each of the k-1
// windows between the first authentications at or after the grid points
// t0, t0+(t1-t0)/k, ... of the sorted times at, all in [t0, t1).
// Authentications land in bursts (one batch signature releases up to 64
// blocks at once) that share one timestamp, so every window starts at a
// burst and counts whole bursts, and its rate carries no error from where
// a grid point cut a burst. Grid points in the same gap between bursts
// merge their windows.
func burstRates(at []int64, t0, t1 int64, k int) []float64 {
	var ends []int
	for j := 0; j < k; j++ {
		i, _ := slices.BinarySearch(at, t0+(t1-t0)*int64(j)/int64(k))
		if i < len(at) && (len(ends) == 0 || i != ends[len(ends)-1]) {
			ends = append(ends, i)
		}
	}
	var rates []float64
	for j := 1; j < len(ends); j++ {
		a, b := ends[j-1], ends[j]
		rates = append(rates, float64(b-a)/(float64(at[b]-at[a])/1e9))
	}
	return rates
}
