package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	pq "probequorum"
)

// serve-mixed: an open loop at a fixed offered rate over /v1/eval, one
// query per request, each timed from when it was due. The mix is the
// steady-state traffic of a warm server: hot exact repeats (memo hits),
// near-neighbour queries declaring a tolerance (approximate tier), and
// cold exact queries at parameters nobody asked for before (a fresh PPC
// solve each).

const (
	serveRate      = 250.0 // offered queries per second
	serveSegment   = 5.0   // seconds of schedule per latency segment
	serveBlock     = 20    // requests per stratified block of the mix
	serveHotPct    = 80
	serveNearPct   = 15 // the rest, 5%, is cold
	serveTolerance = 0.1
	serveColdSpec  = "maj:11"
	nearPerPoint   = 8 // near-neighbour parameters per hot grid point
)

var (
	serveHotSpecs = []string{"maj:11", "wheel:10", "triang:4"}
	serveHotGrid  = []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	// serveSampleStep places exact samples either side of every hot grid
	// point at set-up, so every near-neighbour parameter is bracketed
	// within serveTolerance by the approximate tier.
	serveSampleStep = 0.01
)

type reqKind int

const (
	kindHot reqKind = iota
	kindNear
	kindCold
)

func (k reqKind) String() string { return [...]string{"hot", "near", "cold"}[k] }

type serveReq struct {
	kind reqKind
	q    pq.Query
}

func ppcQuery(spec string, p, tol float64) pq.Query {
	return pq.Query{Spec: spec, Measures: []pq.Measure{pq.MeasurePPC}, Ps: []float64{p}, Tolerance: tol}
}

// exactKey names one exact PPC value.
type exactKey struct {
	spec string
	p    float64
}

// serveInputs draws the request schedule and the near-neighbour pool
// from the seed. The mix is stratified: every block of serveBlock
// requests holds exactly the 80/15/5 shares in a seed-shuffled order, so
// cold solves never bunch up beyond two in a row. With random arrivals a
// seed's chance clusters of cold solves, queued behind at most two
// connections, set the p99 more than the server did.
func serveInputs(seed uint64, n int) (reqs []serveReq, nearPool []exactKey) {
	rng := rand.New(rand.NewPCG(seed, 0x5e57e))
	taken := map[float64]bool{}
	for _, g := range serveHotGrid {
		taken[g], taken[g-serveSampleStep], taken[g+serveSampleStep] = true, true, true
	}
	pools := map[string][]float64{}
	for _, sp := range serveHotSpecs {
		for _, g := range serveHotGrid {
			for k := 0; k < nearPerPoint; k++ {
				off := serveSampleStep * (0.1 + 0.8*rng.Float64())
				if k%2 == 1 {
					off = -off
				}
				p := g + off
				pools[sp] = append(pools[sp], p)
				nearPool = append(nearPool, exactKey{sp, p})
				taken[p] = true
			}
		}
	}
	block := make([]reqKind, serveBlock)
	for i := range block {
		switch {
		case i < serveBlock*serveHotPct/100:
			block[i] = kindHot
		case i < serveBlock*(serveHotPct+serveNearPct)/100:
			block[i] = kindNear
		default:
			block[i] = kindCold
		}
	}
	for i := 0; i < n; i++ {
		if i%serveBlock == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		sp := serveHotSpecs[rng.IntN(len(serveHotSpecs))]
		switch k := block[i%serveBlock]; k {
		case kindHot:
			reqs = append(reqs, serveReq{k, ppcQuery(sp, serveHotGrid[rng.IntN(len(serveHotGrid))], 0)})
		case kindNear:
			pool := pools[sp]
			reqs = append(reqs, serveReq{k, ppcQuery(sp, pool[rng.IntN(len(pool))], serveTolerance)})
		default:
			p := 0.02 + 0.9*rng.Float64()
			for taken[p] {
				p = 0.02 + 0.9*rng.Float64()
			}
			taken[p] = true
			reqs = append(reqs, serveReq{k, ppcQuery(serveColdSpec, p, 0)})
		}
	}
	return reqs, nearPool
}

// servePrewarm is the set-up batch: exact PPC over every hot spec at the
// grid and its bracketing samples. It fills the memo with the hot keys
// and gives the approximate tier its samples.
func servePrewarm() []pq.Query {
	var qs []pq.Query
	for _, sp := range serveHotSpecs {
		var ps []float64
		for _, g := range serveHotGrid {
			ps = append(ps, g-serveSampleStep, g, g+serveSampleStep)
		}
		qs = append(qs, pq.Query{Spec: sp, Measures: []pq.Measure{pq.MeasurePPC}, Ps: ps})
	}
	return qs
}

func newServeEvaluator() *pq.Evaluator {
	return pq.NewEvaluator(pq.WithApprox(pq.NewApproxCache()))
}

func runServeMixed(cfg config) (*outcome, error) {
	o := newOutcome()
	ctx := context.Background()
	n := max(100, int(serveRate*cfg.seconds))
	reqs, nearPool := serveInputs(cfg.seed, n)
	o.params["offered_qps"] = serveRate
	o.params["requests"] = n
	o.params["workers"] = loadWorkers()

	// In-process reference at set-up: exact PPC for the hot keys and the
	// near-neighbour pool, on a plain session with no approximate tier.
	refKeys := append([]exactKey(nil), nearPool...)
	for _, sp := range serveHotSpecs {
		for _, g := range serveHotGrid {
			refKeys = append(refKeys, exactKey{sp, g})
		}
	}
	refQs := make([]pq.Query, len(refKeys))
	for i, k := range refKeys {
		refQs[i] = ppcQuery(k.spec, k.p, 0)
	}
	refRes, err := pq.NewEvaluator().DoBatch(ctx, refQs)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	if err := resultErr(refRes); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	exact := map[exactKey]float64{}
	for i, k := range refKeys {
		exact[k] = *refRes[i].Points[0].PPC
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var st *stack
	setup, setupN, err := setupMedian(func() error {
		var err error
		if st, err = startStack(newServeEvaluator(), tr); err != nil {
			return err
		}
		rs, err := st.cl.Eval(ctx, servePrewarm())
		if err == nil {
			err = resultErr(rs)
		}
		return err
	}, func() error { return st.stop() })
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	o.metrics["setup_s"] = setup
	o.samples["setup_s"] = setupN

	// The measured window.
	lat := make([]time.Duration, n)
	lag := make([]time.Duration, n)
	results := make([]*pq.Result, n)
	errs := make([]error, n)
	runtime.GC()
	resetPeakRSS()
	before := st.eval.Stats()
	rtw := startRT()
	interval := time.Duration(float64(time.Second) / serveRate)
	t0 := time.Now().Add(10 * time.Millisecond)
	var next atomic.Int64
	var lastDone atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < loadWorkers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := t0.Add(time.Duration(i) * interval)
				sleepUntil(due)
				rctx, root := ctx, (*active)(nil)
				if i%2 == 0 {
					rctx, root = tr.root(ctx, "bench.request", uint64(i)+1, due)
				}
				send := time.Now()
				_, wait := childAt(rctx, "loadgen.wait", due)
				wait.EndAt(send)
				var rs []*pq.Result
				rs, errs[i] = st.evalCall(rctx, []pq.Query{reqs[i].q})
				done := time.Now()
				root.EndAt(done)
				if errs[i] == nil {
					results[i] = rs[0]
				}
				lat[i], lag[i] = done.Sub(due), send.Sub(due)
				for {
					prev := lastDone.Load()
					if done.UnixNano() <= prev || lastDone.CompareAndSwap(prev, done.UnixNano()) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	window := time.Unix(0, lastDone.Load()).Sub(t0)
	o.metrics["peak_rss_mb"] = peakRSSMB()
	rtw.end(o.metrics)
	after := st.eval.Stats()
	shed := st.srv.AdmissionStats().Shed
	if err := st.stop(); err != nil {
		return nil, err
	}

	// p50 and p99 per segment of serveSegment seconds of schedule, median
	// over the segments: a stall of a few seconds moves one segment's p99,
	// not the run's.
	latMS := msOf(lat)
	segLen := max(1, int(serveRate*serveSegment))
	var p50s, p99s []float64
	for lo := 0; lo+segLen <= n; lo += segLen {
		p50s = append(p50s, percentile(latMS[lo:lo+segLen], 0.50))
		p99s = append(p99s, percentile(latMS[lo:lo+segLen], 0.99))
	}
	if len(p50s) == 0 {
		p50s, p99s = []float64{percentile(latMS, 0.50)}, []float64{percentile(latMS, 0.99)}
	}
	o.metrics["fast_ms"] = median(p50s)
	o.metrics["slow_ms"] = median(p99s)
	o.metrics["achieved_qps"] = float64(n) / window.Seconds()
	o.samples["fast_ms"], o.samples["slow_ms"] = n, n
	o.params["segments"] = len(p50s)
	o.metrics["loadgen.lag_p99_ms"] = percentile(msOf(lag), 0.99)
	o.samples["loadgen.lag_p99_ms"] = n
	o.attempted = n

	// Twin replay: the same request stream, in order, on a second session
	// through Evaluator.DoBatch. It is the reference for the cold answers
	// and, in a traced run, times the evaluator layer per request class.
	twin := newServeEvaluator()
	if _, err := twin.DoBatch(ctx, servePrewarm()); err != nil {
		return nil, fmt.Errorf("twin prewarm: %w", err)
	}
	twinDur := map[reqKind][]time.Duration{}
	for i, r := range reqs {
		rctx, root := ctx, (*active)(nil)
		if i%2 == 0 {
			rctx, root = tr.root(ctx, "bench.replay", uint64(i)+1, time.Now())
		}
		var rs []*pq.Result
		d, err := call(rctx, "evaluator.DoBatch", func() error {
			var err error
			rs, err = twin.DoBatch(ctx, []pq.Query{r.q})
			return err
		})
		twinDur[r.kind] = append(twinDur[r.kind], d)
		root.End()
		if err != nil {
			return nil, fmt.Errorf("twin replay: %w", err)
		}
		checkServeAnswer(o, i, r, results[i], errs[i], rs[0], exact)
	}

	if cfg.trace {
		spans := tr.snapshot()
		o.spans, o.rootName = spans, "bench.request"
		rep := attribute(spans, "bench.request")
		o.report = &rep
		clientLayer(o, tr, spans, "client.Eval", "probeserve.eval")
		o.metrics["probeserve.shed"] = float64(shed)
		o.metrics["evaluator.do_hot_p50_us"] = median(usOf(twinDur[kindHot]))
		o.metrics["evaluator.do_cold_p50_ms"] = median(msOf(twinDur[kindCold]))
		o.samples["evaluator.do_hot_p50_us"], o.samples["evaluator.do_cold_p50_ms"] = len(twinDur[kindHot]), len(twinDur[kindCold])
		evalStatsLayer(o, before, after)
		var tracedLat, plainLat []float64
		for i, l := range latMS {
			if i%2 == 0 {
				tracedLat = append(tracedLat, l)
			} else {
				plainLat = append(plainLat, l)
			}
		}
		o.metrics["trace.overhead_frac"] = median(tracedLat)/median(plainLat) - 1
	}
	return o, nil
}

// checkServeAnswer verifies one wire answer. Hot and cold answers must be
// bit-identical to the reference; a near-neighbour answer served by the
// approximate tier must carry bound <= tolerance and lie within that
// bound of the exact value, and one served exactly must equal it.
func checkServeAnswer(o *outcome, i int, r serveReq, got *pq.Result, callErr error, twin *pq.Result, exact map[exactKey]float64) {
	if callErr != nil {
		o.fail("request %d (%s): %v", i, r.kind, callErr)
		return
	}
	if got.Error != "" || len(got.Points) != 1 || got.Points[0].PPC == nil {
		o.fail("request %d (%s): bad result %+v", i, r.kind, got)
		return
	}
	pt := got.Points[0]
	key := exactKey{r.q.Spec, r.q.Ps[0]}
	switch r.kind {
	case kindHot, kindCold:
		want, ok := exact[key]
		if r.kind == kindCold {
			if twin.Error != "" || len(twin.Points) != 1 || twin.Points[0].PPC == nil {
				o.fail("request %d: twin replay failed: %s", i, twin.Error)
				return
			}
			want, ok = *twin.Points[0].PPC, true
		}
		if !ok || math.Float64bits(*pt.PPC) != math.Float64bits(want) || len(pt.Approx) != 0 {
			o.fail("request %d (%s %s p=%v): got %v (approx %v), want %v", i, r.kind, key.spec, key.p, *pt.PPC, pt.Approx, want)
		}
	case kindNear:
		want := exact[key]
		if len(pt.Approx) == 0 {
			if math.Float64bits(*pt.PPC) != math.Float64bits(want) {
				o.fail("request %d (near %s p=%v): exact answer %v, want %v", i, key.spec, key.p, *pt.PPC, want)
			}
			return
		}
		b := pt.Approx[0].Bound
		if !(b <= r.q.Tolerance) || math.Abs(*pt.PPC-want) > b+1e-12*math.Max(1, math.Abs(want)) {
			o.fail("request %d (near %s p=%v): approx %v bound %v, exact %v, tolerance %v", i, key.spec, key.p, *pt.PPC, b, want, r.q.Tolerance)
		}
	}
}

// clientLayer fills the client.* and probeserve.* span metrics from the
// traced client calls named clientName and the handler spans named
// handlerName beneath them.
func clientLayer(o *outcome, tr *tracer, spans []span, clientName, handlerName string) {
	calls := durationsOf(spans, clientName)
	o.metrics["client.call_p50_ms"] = median(msOf(calls))
	o.metrics["client.call_p99_ms"] = percentile(msOf(calls), 0.99)
	o.samples["client.call_p50_ms"], o.samples["client.call_p99_ms"] = len(calls), len(calls)
	n, retries, reqB, respB := tr.wireTotals(spans, clientName)
	o.metrics["client.retries"] = float64(retries)
	o.metrics["client.req_bytes"] = ratio(float64(reqB), float64(n))
	o.metrics["client.resp_bytes"] = ratio(float64(respB), float64(n))
	handlers := durationsOf(spans, handlerName)
	o.metrics["probeserve.handler_p50_ms"] = median(msOf(handlers))
	o.metrics["probeserve.handler_p99_ms"] = percentile(msOf(handlers), 0.99)
	o.samples["probeserve.handler_p50_ms"], o.samples["probeserve.handler_p99_ms"] = len(handlers), len(handlers)
	clientDur := map[uint64]time.Duration{}
	for _, s := range spans {
		if s.Name == clientName {
			clientDur[s.ID] = s.dur()
		}
	}
	var wire []float64
	for _, s := range spans {
		if s.Name == handlerName {
			if c, ok := clientDur[s.Parent]; ok {
				wire = append(wire, ms(c-s.dur()))
			}
		}
	}
	o.metrics["probeserve.wire_p50_ms"] = median(wire)
	o.samples["probeserve.wire_p50_ms"] = len(wire)
}

// evalStatsLayer fills the evaluator.* counters from two Stats
// snapshots of the serving session.
func evalStatsLayer(o *outcome, before, after pq.EvalStats) {
	delta := func(a, b map[string]uint64, k string) float64 { return float64(b[k] - a[k]) }
	sum := func(a, b map[string]uint64) float64 {
		var s float64
		for k := range b {
			s += delta(a, b, k)
		}
		return s
	}
	hitRatio := func(tier string) float64 {
		h := delta(before.Hits, after.Hits, tier)
		return ratio(h, h+delta(before.Misses, after.Misses, tier))
	}
	o.metrics["evaluator.memo_hit_ratio"] = hitRatio("memo")
	o.metrics["evaluator.approx_hit_ratio"] = hitRatio("approx")
	o.metrics["evaluator.builds"] = sum(before.Builds, after.Builds)
	o.metrics["evaluator.coalesced"] = sum(before.Coalesced, after.Coalesced)
}

func usOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	return out
}
