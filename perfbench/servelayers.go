package main

import (
	"mcauth/internal/obs"
)

// serveLayers derives the per-layer metrics, the spans and the stage
// reconciliation of a traced serving pass. Stage and wait figures come
// from the open-loop phase (they explain pub_auth_*); per-call costs come
// from the closed-loop phase (they explain auth_msgs_per_s).
func serveLayers(st *stack, gen *generator, ph phases, p *pass) {
	to0, to1 := ph.tOpen0, ph.tOpen1
	tc0, tc1 := ph.closed0.at, ph.closedEnd.at
	inOpen := func(t int64) bool { return t >= to0 && t < to1 }
	inClosed := func(t int64) bool { return t >= tc0 && t < tc1 }
	subs := int64(len(st.readers))

	var publish, hold, write, wire, toAuth, e2e, depth []int64
	var writeC, readC, ingestC, drainC, resolveC []int64
	var busy int64
	recvTime := map[string]int64{}
	readEnd := make([]column, len(st.readers))
	for i, r := range st.readers {
		for _, it := range r.iters {
			if it.g >= 0 {
				readEnd[i].set(uint64(it.g), it.readEnd)
			}
			if !inClosed(it.readStart) {
				continue
			}
			readC = append(readC, it.readEnd-it.readStart)
			ingestC = append(ingestC, it.ingestEnd-it.readEnd)
			drainFrom := it.ingestEnd
			if it.resolveEnd > 0 {
				resolveC = append(resolveC, it.resolveEnd-it.resolveStart)
				drainFrom = it.resolveEnd
				busy += it.resolveEnd - it.resolveStart
			}
			drainC = append(drainC, it.drainEnd-drainFrom)
			busy += (it.ingestEnd - it.readEnd) + (it.drainEnd - drainFrom)
			recvTime["transport.read"] += it.readEnd - it.readStart
			recvTime["stream.ingest"] += it.ingestEnd - it.readEnd
			recvTime["crypto.resolve"] += it.resolveEnd - it.resolveStart
			recvTime["stream.drain"] += it.drainEnd - drainFrom
			recvTime["benchmark.check"] += it.checkEnd - it.drainEnd
		}
	}
	for g := ph.open0; g < ph.open1; g++ {
		publish = append(publish, gen.pubEnd.get(g)-gen.pubStart.get(g))
	}
	for i, w := range st.writers {
		for _, c := range w.calls {
			if inClosed(c.start) {
				writeC = append(writeC, c.end-c.start)
			}
			if inOpen(c.seen) {
				depth = append(depth, c.depth)
			}
			if c.g < 0 {
				continue
			}
			g := uint64(c.g)
			if g < ph.open0 || g >= ph.open1 {
				continue
			}
			re, auth := readEnd[i].get(g), st.readers[i].authAt.get(g)
			hold = append(hold, c.seen-gen.pubEnd.get(g))
			write = append(write, c.end-c.start)
			wire = append(wire, re-c.end)
			toAuth = append(toAuth, auth-re)
			e2e = append(e2e, auth-gen.due.get(g))
		}
	}

	us := func(xs []int64, q float64) float64 { return float64(loosePercentile(xs, q)) / 1e3 }
	ms := func(xs []int64, q float64) float64 { return float64(loosePercentile(xs, q)) / 1e6 }
	publish, hold, write, wire = sortedCopy(publish), sortedCopy(hold), sortedCopy(write), sortedCopy(wire)
	toAuth, e2e, depth = sortedCopy(toAuth), sortedCopy(e2e), sortedCopy(depth)
	writeC, readC, ingestC = sortedCopy(writeC), sortedCopy(readC), sortedCopy(ingestC)
	drainC, resolveC = sortedCopy(drainC), sortedCopy(resolveC)

	m := p.layer
	m["server.publish_us_p50"] = us(publish, 0.50)
	m["server.publish_us_p99"] = us(publish, 0.99)
	m["server.hold_ms_p50"] = ms(hold, 0.50)
	m["server.hold_ms_p99"] = ms(hold, 0.99)
	m["server.sub_queue_depth_p99"] = float64(loosePercentile(depth, 0.99))
	rootHold := ph.closedEnd.rootHold.DeltaFrom(ph.openSnap.rootHold)
	m["server.root_hold_ms_p99"] = rootHold.Quantile(0.99) / 1e6
	roots := ph.closedEnd.batch.SignedRoots - ph.openSnap.batch.SignedRoots
	sigs := ph.closedEnd.batch.Signatures - ph.openSnap.batch.Signatures
	m["server.sig_amortization"] = ratio(float64(roots), float64(sigs))
	m["transport.write_us_p50"] = us(writeC, 0.50)
	m["transport.write_us_p99"] = us(writeC, 0.99)
	m["transport.read_us_p50"] = us(readC, 0.50)
	m["transport.read_us_p99"] = us(readC, 0.99)
	m["transport.wire_ms_p99"] = ms(wire, 0.99)
	m["transport.bytes_per_frame"] = ratio(float64(ph.closedEnd.bytes-ph.closed0.bytes), float64(ph.closedEnd.frames-ph.closed0.frames))
	m["stream.ingest_us_p50"] = us(ingestC, 0.50)
	m["stream.ingest_us_p99"] = us(ingestC, 0.99)
	m["stream.drain_us_p50"] = us(drainC, 0.50)
	m["stream.drain_us_p99"] = us(drainC, 0.99)
	m["stream.busy_frac"] = ratio(float64(busy)/float64(subs), float64(tc1-tc0))
	m["crypto.resolve_us_p50"] = us(resolveC, 0.50)
	m["crypto.resolve_us_p99"] = us(resolveC, 0.99)
	ve := ph.closedEnd.verify.Enqueued - ph.openSnap.verify.Enqueued
	vc := ph.closedEnd.verify.Checks - ph.openSnap.verify.Checks
	m["crypto.verify_amortization"] = ratio(float64(ve), float64(vc))
	sh := ph.closedEnd.sig.Hits - ph.openSnap.sig.Hits
	sl := sh + ph.closedEnd.sig.Misses - ph.openSnap.sig.Misses
	m["crypto.sigcache_hit_frac"] = ratio(float64(sh), float64(sl))
	ch := ph.closedEnd.sharedHits - ph.openSnap.sharedHits
	cl := ph.closedEnd.sharedLk - ph.openSnap.sharedLk
	m["verifier.shared_cache_hit_frac"] = ratio(float64(ch), float64(cl))
	runtimeLayers(p, ph.closed0.mem, ph.closedEnd.mem, p.closedAuths)

	// Bases of every ratio above, for the report.
	p.meta["base.sig_amortization"] = map[string]int64{"signed_roots": roots, "signatures": sigs}
	p.meta["base.verify_amortization"] = map[string]int64{"enqueued": ve, "checks": vc}
	p.meta["base.sigcache_hit_frac"] = map[string]int64{"hits": sh, "lookups": sl}
	p.meta["base.shared_cache_hit_frac"] = map[string]int64{"hits": ch, "lookups": cl}
	p.meta["base.bytes_per_frame"] = map[string]int64{"bytes": ph.closedEnd.bytes - ph.closed0.bytes, "frames": ph.closedEnd.frames - ph.closed0.frames}
	perMsg := map[string]float64{}
	for k, v := range recvTime {
		perMsg[k] = ratio(float64(v)/1e3, float64(p.closedAuths))
	}
	p.meta["receiver_us_per_msg"] = perMsg
	p.meta["samples.stage"] = len(e2e)
	p.meta["samples.calls"] = map[string]int{"write": len(writeC), "read": len(readC), "ingest": len(ingestC), "drain": len(drainC), "resolve": len(resolveC)}

	// Stage reconciliation: median per-message stage times against the
	// median end-to-end latency; what they do not explain is its own row.
	rows := []struct {
		name string
		xs   []int64
	}{
		{"recon.publish_ms", publish},
		{"recon.hold_ms", hold},
		{"recon.write_ms", write},
		{"recon.wire_ms", wire},
		{"recon.ingest_to_auth_ms", toAuth},
	}
	var sum float64
	for _, row := range rows {
		v := ms(row.xs, 0.50)
		m[row.name] = v
		sum += v
	}
	m["recon.sum_ms"] = sum
	m["recon.e2e_p50_ms"] = ms(e2e, 0.50)
	m["recon.remainder_ms"] = m["recon.e2e_p50_ms"] - sum

	p.spans = serveSpans(st, gen, ph, readEnd)
	self := selfTimes(p.spans)
	msgs := float64(int64(gen.next-ph.open0) * subs)
	for _, l := range serveSelfLayers {
		m["self."+l+"_us_per_msg"] = ratio(float64(self[l])/1e3, msgs)
	}
}

// serveSelfLayers are the layers a serving trace attributes self time to;
// "e2e" is the message root's own time: waits no child span explains.
var serveSelfLayers = []string{"e2e", "server", "transport", "stream", "crypto", "recv"}

// serveSpans builds the span forest of the measured phases. Each message
// is a root (due → last authentication) whose children are its publish
// call and, per subscriber, server hold, mux write, wire and the wait
// from read to authentication. Each receiver-loop iteration is a root
// whose children are its read, ingest, resolve and drain calls; its self
// time is the benchmark's own checking.
func serveSpans(st *stack, gen *generator, ph phases, readEnd []column) []span {
	var rec recorder
	root := make(map[uint64]uint64)
	traceOf := func(g uint64) uint64 {
		return obs.TraceID(streamOf(g), uint64(st.readers[0].block.get(g)))
	}
	for g := ph.open0; g < gen.next; g++ {
		var last int64
		for _, r := range st.readers {
			last = max(last, r.authAt.get(g))
		}
		tr := traceOf(g)
		id := rec.add("e2e.message", tr, 0, gen.due.get(g), last)
		root[g] = id
		rec.add("server.publish", tr, id, gen.pubStart.get(g), gen.pubEnd.get(g))
	}
	for i, w := range st.writers {
		for _, c := range w.calls {
			if c.g < 0 || uint64(c.g) < ph.open0 {
				if c.start >= ph.tOpen0 {
					rec.add("transport.write", obs.TraceID(c.stream, c.block), 0, c.start, c.end)
				}
				continue
			}
			g := uint64(c.g)
			id, tr := root[g], traceOf(g)
			re, auth := readEnd[i].get(g), st.readers[i].authAt.get(g)
			rec.add("server.hold", tr, id, gen.pubEnd.get(g), c.seen)
			rec.add("transport.write", tr, id, c.start, c.end)
			rec.add("transport.wire", tr, id, c.end, re)
			rec.add("stream.auth_wait", tr, id, re, auth)
		}
	}
	for _, r := range st.readers {
		for _, it := range r.iters {
			if it.readStart < ph.tOpen0 {
				continue
			}
			tr := obs.TraceID(it.stream, it.block)
			id := rec.add("recv.iteration", tr, 0, it.readStart, it.checkEnd)
			rec.add("transport.read", tr, id, it.readStart, it.readEnd)
			rec.add("stream.ingest", tr, id, it.readEnd, it.ingestEnd)
			drainFrom := it.ingestEnd
			if it.resolveEnd > 0 {
				rec.add("crypto.resolve", tr, id, it.resolveStart, it.resolveEnd)
				drainFrom = it.resolveEnd
			}
			rec.add("stream.drain", tr, id, drainFrom, it.drainEnd)
		}
	}
	return rec.spans
}
