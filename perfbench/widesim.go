package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"time"

	pq "probequorum"
	"probequorum/internal/des"
)

// wide-sim: a closed loop over /v1/stream with one connection,
// alternating a timed request (the temporal engine on the wide majority,
// and a churned, hedged run on Maj(129)) and an estimate request (fixed-
// trial Monte Carlo on three wide constructions). Every request carries
// fresh seeds drawn from the workload seed, so no cache tier can answer
// it: the work is all in des and sim.

const (
	wideTTQP      = 0.2
	wideEstimateP = 0.3
	// wideCIFactor widens the 95% half-interval for the check of the
	// wide-majority estimate against its exact expectation: 2.5 half-
	// intervals is about 4.9 standard errors, so a correct estimate fails
	// the check about once in a million requests instead of once in
	// twenty.
	wideCIFactor = 2.5
)

// wideRequests draws the next cycle's timed and estimate requests.
func wideRequests(rng *rand.Rand) (timed, estimate []pq.Query) {
	seed := func() uint64 { return rng.Uint64()>>1 | 1 }
	timed = []pq.Query{
		{Spec: "maj:1025", Measures: []pq.Measure{pq.MeasureTimedTTQ}, Ps: []float64{wideTTQP},
			Trials: 64, Seed: seed(), Latency: "exp:3", Window: 4},
		{Spec: "maj:129", Measures: []pq.Measure{pq.MeasureTimedTTQ, pq.MeasureTimedInFlight}, Ps: []float64{wideEstimateP},
			Trials: 256, Seed: seed(), Latency: "exp:2", Churn: "flap:40,8", Window: 8, HedgeMS: 6},
	}
	est := func(spec string, trials int) pq.Query {
		return pq.Query{Spec: spec, Measures: []pq.Measure{pq.MeasureEstimate}, Ps: []float64{wideEstimateP}, Trials: trials, Seed: seed()}
	}
	estimate = []pq.Query{est("maj:1025", 20000), est("tree:6", 20000), est("recmaj:3x6", 20000)}
	return timed, estimate
}

func runWideSim(cfg config) (*outcome, error) {
	o := newOutcome()
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(cfg.seed, 0x51de))
	o.params["timed_request"] = "maj:1025 timed-ttq 64 trials + maj:129 churned, hedged 256 trials"
	o.params["estimate_request"] = "maj:1025, tree:6, recmaj:3x6 estimate, 20000 trials each"
	maj1025, err := pq.Parse("maj:1025")
	if err != nil {
		return nil, err
	}
	expected, err := pq.ExpectedProbes(maj1025, wideEstimateP)
	if err != nil {
		return nil, err
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	// Set-up: a fresh server, ready once it answers a small estimate and a
	// small timed query.
	warm := []pq.Query{
		{Spec: "maj:1025", Measures: []pq.Measure{pq.MeasureEstimate}, Ps: []float64{wideEstimateP}, Trials: 2000, Seed: 1},
		{Spec: "maj:129", Measures: []pq.Measure{pq.MeasureTimedTTQ}, Ps: []float64{wideEstimateP}, Trials: 64, Seed: 1, Latency: "exp:2"},
	}
	var st *stack
	setup, setupN, err := setupMedian(func() error {
		var err error
		if st, err = startStack(pq.NewEvaluator(), tr); err != nil {
			return err
		}
		rs, err := st.cl.Eval(ctx, warm)
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

	type sent struct {
		qs  []pq.Query
		got []*pq.Result
		err error
	}
	var (
		reqs                []sent
		ttqMS, estMS        []float64
		cycTraced, cycPlain []float64
		answered            int
	)
	runtime.GC()
	resetPeakRSS()
	rtw := startRT()
	t0 := time.Now()
	for k := 0; k == 0 || time.Since(t0).Seconds() < cfg.seconds; k++ {
		timedQs, estQs := wideRequests(rng)
		cctx, root := ctx, (*active)(nil)
		if k%2 == 0 {
			cctx, root = tr.root(ctx, "bench.cycle", uint64(k)+1, time.Now())
		}
		cstart := time.Now()
		for i, qs := range [][]pq.Query{timedQs, estQs} {
			start := time.Now()
			got, err := st.streamFold(cctx, qs)
			d := ms(time.Since(start))
			reqs = append(reqs, sent{qs, got, err})
			if err != nil {
				continue
			}
			answered += len(qs)
			if i == 0 {
				ttqMS = append(ttqMS, d)
			} else {
				estMS = append(estMS, d)
			}
		}
		root.End()
		if root != nil {
			cycTraced = append(cycTraced, ms(time.Since(cstart)))
		} else {
			cycPlain = append(cycPlain, ms(time.Since(cstart)))
		}
	}
	window := time.Since(t0)
	o.metrics["peak_rss_mb"] = peakRSSMB()
	rtw.end(o.metrics)
	if err := st.stop(); err != nil {
		return nil, err
	}
	if len(ttqMS) == 0 || len(estMS) == 0 {
		return nil, fmt.Errorf("no request completed")
	}
	o.metrics["slow_ms"] = median(ttqMS)
	o.metrics["fast_ms"] = median(estMS)
	o.metrics["achieved_qps"] = float64(answered) / window.Seconds()
	o.samples["slow_ms"], o.samples["fast_ms"] = len(ttqMS), len(estMS)

	// Reference: every request again, in process, on a fresh session
	// through DoBatch; the answers must be bit-identical.
	twin := pq.NewEvaluator()
	var doTimes []time.Duration // timed requests
	for i, r := range reqs {
		o.attempted += len(r.qs)
		if r.err != nil {
			o.fail("request %d: %v", i, r.err)
			o.failed += len(r.qs) - 1
			continue
		}
		rctx, root := ctx, (*active)(nil)
		if i%4 < 2 {
			rctx, root = tr.root(ctx, "bench.replay", uint64(i/2)+1, time.Now())
		}
		var want []*pq.Result
		d, err := call(rctx, "evaluator.DoBatch", func() error {
			var err error
			want, err = twin.DoBatch(ctx, r.qs)
			return err
		})
		root.End()
		if i%2 == 0 {
			doTimes = append(doTimes, d)
		}
		if err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
		for j := range r.qs {
			switch {
			case j >= len(r.got) || !reflect.DeepEqual(r.got[j], want[j]):
				o.fail("request %d query %d (%s seed %d): differs from the reference", i, j, r.qs[j].Spec, r.qs[j].Seed)
			case want[j].Error != "":
				o.fail("request %d query %d (%s): %s", i, j, r.qs[j].Spec, want[j].Error)
			case r.qs[j].Spec == "maj:1025" && r.qs[j].Measures[0] == pq.MeasureEstimate:
				e := r.got[j].Points[0].Estimate
				if e == nil || math.Abs(e.Mean-expected) > wideCIFactor*e.HalfCI {
					o.fail("request %d: maj:1025 estimate %+v is not within %g half-intervals of the expectation %v", i, e, wideCIFactor, expected)
				}
			}
		}
	}

	if cfg.trace {
		if err := wideLayers(ctx, tr, o, reqs[0].qs, reqs[1].qs); err != nil {
			return nil, err
		}
		o.metrics["evaluator.do_cold_p50_ms"] = median(msOf(doTimes))
		o.samples["evaluator.do_cold_p50_ms"] = len(doTimes)
		var trials int
		for _, r := range reqs {
			for _, q := range r.qs {
				if q.Measures[0] == pq.MeasureEstimate {
					trials += q.Trials
				}
			}
		}
		o.metrics["sim.trials"] = float64(trials)
		spans := tr.snapshot()
		o.spans, o.rootName = spans, "bench.cycle"
		rep := attribute(spans, "bench.cycle")
		o.report = &rep
		clientLayer(o, tr, spans, "client.StreamEval", "probeserve.stream")
		o.metrics["trace.overhead_frac"] = median(cycTraced)/median(cycPlain) - 1
	}
	return o, nil
}

// wideLayers times the temporal engine and the Monte Carlo loop directly
// on the first cycle's queries, as spans under a "bench.layers" root:
// des.RunCtx with the scenario each timed query compiles to, and the
// session's estimate entry point with the estimate queries' trials and
// seeds.
func wideLayers(ctx context.Context, tr *tracer, o *outcome, timedQs, estQs []pq.Query) error {
	ctx, root := tr.root(ctx, "bench.layers", 0, time.Now())
	defer root.End()
	var events, trials int
	var issued, static float64
	var runTime time.Duration
	for _, q := range timedQs {
		sc, err := des.Compile(des.Options{Latency: q.Latency, Churn: q.Churn, Window: q.Window, HedgeMS: q.HedgeMS})
		if err != nil {
			return err
		}
		sys, err := pq.Parse(q.Spec)
		if err != nil {
			return err
		}
		var res des.Result
		d, err := call(ctx, "des.RunCtx", func() error {
			res, err = des.RunCtx(ctx, des.Params{Sys: sys, Scenario: sc, P: q.Ps[0], Trials: q.Trials, Seed: q.Seed})
			return err
		})
		if err != nil {
			return err
		}
		runTime += d
		events += res.Events
		trials += res.Trials
		issued += res.IssuedMean * float64(res.Trials)
		static += res.StaticMean * float64(res.Trials)
	}
	o.metrics["des.run_ms"] = ms(runTime)
	o.metrics["des.events_per_s"] = float64(events) / runTime.Seconds()
	o.metrics["des.events_per_trial"] = ratio(float64(events), float64(trials))
	o.metrics["des.issued_per_static"] = ratio(issued, static)

	var probes float64
	var simTime time.Duration
	for _, q := range estQs {
		sys, err := pq.Parse(q.Spec)
		if err != nil {
			return err
		}
		e := pq.NewEvaluator(pq.WithTrials(q.Trials), pq.WithSeed(q.Seed))
		var mean float64
		d, err := call(ctx, "sim.EstimateAverageProbesCtx", func() error {
			mean, _, err = e.EstimateAverageProbesCtx(ctx, sys, q.Ps[0])
			return err
		})
		if err != nil {
			return err
		}
		simTime += d
		probes += mean * float64(q.Trials)
	}
	o.metrics["sim.probes_per_s"] = probes / simTime.Seconds()
	return nil
}
