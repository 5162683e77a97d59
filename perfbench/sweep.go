package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"time"

	pq "probequorum"
)

// sweep-exact: a closed loop over /v1/stream with one connection. Each
// iteration streams an exact sweep through a fresh session and server
// over a new, empty artifact store (the cold pass), then restarts: fresh
// sessions and servers over the same store stream the same sweep again
// and must answer it from disk with zero builds.

// sweepSpecs are the eight constructions of probebench's throughput batch
// plus the two mid-size systems whose exact DPs dominate a cold pass.
var sweepSpecs = []string{
	"maj:11", "wheel:10", "cw:1,3,5", "triang:4", "tree:2", "hqs:2", "vote:5,3,1,1,1,1,1", "recmaj:3x2",
	"maj:13", "wheel:14",
}

// sweepRestarts is the number of restart passes per cold pass.
const sweepRestarts = 5

const plannerSpec = "grid:3x3"

// sweepInputs draws the p-grid and the planner's read fractions from the
// seed and builds the sweep: every spec x {pc, ppc, availability,
// expected} over three p values, plus load, capacity and resilience on
// the grid pair.
func sweepInputs(seed uint64) []pq.Query {
	rng := rand.New(rand.NewPCG(seed, 0x5e3e9))
	grid := func(lo, hi float64) []float64 {
		seen := map[float64]bool{}
		var out []float64
		for len(out) < 3 {
			v := math.Round((lo+(hi-lo)*rng.Float64())*100) / 100
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
		sort.Float64s(out)
		return out
	}
	qs := pq.SpecQueries(sweepSpecs,
		[]pq.Measure{pq.MeasurePC, pq.MeasurePPC, pq.MeasureAvailability, pq.MeasureExpected}, grid(0.05, 0.5))
	return append(qs, pq.Query{Spec: plannerSpec,
		Measures:      []pq.Measure{pq.MeasureLoad, pq.MeasureCapacity, pq.MeasureResilience},
		ReadFractions: grid(0.05, 0.95)})
}

// passResult is one pass of the sweep through a fresh server.
type passResult struct {
	wall    time.Duration
	results []*pq.Result
	stats   pq.EvalStats
	store   pq.ArtifactStoreStats
}

// sweepPass opens the store in dir, serves a fresh session over it,
// streams the sweep and folds it. The pass's wall time covers opening the
// store, starting the server and the stream; the stats read-back and the
// teardown after it are not timed.
func sweepPass(ctx context.Context, dir string, qs []pq.Query, tr *tracer) (passResult, error) {
	var pr passResult
	pctx, pa := child(ctx, "bench.pass")
	defer pa.End()
	start := time.Now()
	var st *pq.ArtifactStore
	var err error
	if _, err = call(pctx, "store.OpenArtifactStore", func() error {
		st, err = pq.OpenArtifactStore(dir)
		return err
	}); err != nil {
		return pr, err
	}
	defer st.Close()
	var s *stack
	if _, err = call(pctx, "probeserve.start", func() error {
		s, err = startStack(pq.NewEvaluator(pq.WithStore(st)), tr)
		return err
	}); err != nil {
		return pr, err
	}
	pr.results, err = s.streamFold(pctx, qs)
	pr.wall = time.Since(start)
	if err == nil {
		pr.stats, pr.store, err = s.cacheStats(pctx)
	}
	_, stopErr := call(pctx, "probeserve.stop", s.stop)
	if err == nil {
		err = stopErr
	}
	return pr, err
}

func runSweepExact(cfg config) (*outcome, error) {
	o := newOutcome()
	ctx := context.Background()
	qs := sweepInputs(cfg.seed)
	o.params["queries_per_pass"] = len(qs)
	o.params["restarts_per_iteration"] = sweepRestarts
	o.params["p_grid"] = qs[0].Ps
	o.params["read_fractions"] = qs[len(qs)-1].ReadFractions

	// In-process reference at set-up, on a plain session.
	ref, err := pq.NewEvaluator().DoBatch(ctx, qs)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	if err := resultErr(ref); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	// Set-up: a fresh store and server, ready once it answers PC for the
	// small constructions.
	warm := pq.SpecQueries(sweepSpecs[:8], []pq.Measure{pq.MeasurePC}, nil)
	var st *stack
	var store *pq.ArtifactStore
	dirs := 0
	setup, setupN, err := setupMedian(func() error {
		dirs++
		var err error
		if store, err = pq.OpenArtifactStore(filepath.Join(cfg.workDir, fmt.Sprintf("setup-%d", dirs))); err != nil {
			return err
		}
		if st, err = startStack(pq.NewEvaluator(pq.WithStore(store)), tr); err != nil {
			return err
		}
		rs, err := st.cl.Eval(ctx, warm)
		if err == nil {
			err = resultErr(rs)
		}
		return err
	}, func() error {
		err := st.stop()
		store.Close()
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if err := st.stop(); err != nil {
		return nil, err
	}
	store.Close()
	o.metrics["setup_s"] = setup
	o.samples["setup_s"] = setupN

	var (
		cold, restart         []float64 // ms per pass
		iterTraced, iterPlain []float64 // ms per iteration
		rss                   []float64 // peak RSS per iteration, MiB
		coldStats, warmStats  []passResult
		records               [][]byte // store record files of the first cold pass
		answered              int
	)
	runtime.GC()
	rtw := startRT()
	t0 := time.Now()
	for k := 0; k == 0 || time.Since(t0).Seconds() < cfg.seconds; k++ {
		traced := tr != nil && k%2 == 0
		ictx, root := ctx, (*active)(nil)
		if traced {
			ictx, root = tr.root(ctx, "bench.iteration", uint64(k)+1, time.Now())
		}
		resetPeakRSS()
		istart := time.Now()
		dir := filepath.Join(cfg.workDir, fmt.Sprintf("store-%d", k))
		o.attempted += len(qs)
		c, err := sweepPass(ictx, dir, qs, tr)
		if err != nil {
			o.fail("iteration %d cold pass: %v", k, err)
			o.failed += len(qs) - 1
		} else {
			cold = append(cold, ms(c.wall))
			answered += len(qs)
			checkSweep(o, fmt.Sprintf("iteration %d cold pass", k), c.results, ref)
			if traced {
				coldStats = append(coldStats, c)
			}
			if records == nil && tr != nil {
				records = readRecords(dir)
			}
		}
		for r := 0; r < sweepRestarts; r++ {
			o.attempted += len(qs)
			w, err := sweepPass(ictx, dir, qs, tr)
			if err != nil {
				o.fail("iteration %d restart %d: %v", k, r, err)
				o.failed += len(qs) - 1
				continue
			}
			restart = append(restart, ms(w.wall))
			answered += len(qs)
			checkSweep(o, fmt.Sprintf("iteration %d restart %d", k, r), w.results, ref)
			if b := sumCounts(w.stats.Builds); b != 0 {
				o.fail("iteration %d restart %d: %v builds, want 0", k, r, b)
			}
			if traced {
				warmStats = append(warmStats, w)
			}
		}
		if _, err := call(ictx, "bench.cleanup", func() error { return os.RemoveAll(dir) }); err != nil {
			return nil, err
		}
		root.End()
		rss = append(rss, peakRSSMB())
		if traced {
			iterTraced = append(iterTraced, ms(time.Since(istart)))
		} else {
			iterPlain = append(iterPlain, ms(time.Since(istart)))
		}
	}
	window := time.Since(t0)
	o.metrics["peak_rss_mb"] = median(rss)
	o.samples["peak_rss_mb"] = len(rss)
	rtw.end(o.metrics)
	if len(cold) == 0 || len(restart) == 0 {
		return nil, fmt.Errorf("no pass completed: %v", o.failures)
	}
	o.metrics["slow_ms"] = median(cold)
	o.metrics["fast_ms"] = median(restart)
	o.metrics["achieved_qps"] = float64(answered) / window.Seconds()
	o.samples["slow_ms"], o.samples["fast_ms"] = len(cold), len(restart)

	if cfg.trace {
		if err := sweepLayers(ctx, tr, cfg, o, qs, records, coldStats, warmStats); err != nil {
			return nil, err
		}
		spans := tr.snapshot()
		o.spans, o.rootName = spans, "bench.iteration"
		rep := attribute(spans, "bench.iteration")
		o.report = &rep
		clientLayer(o, tr, spans, "client.StreamEval", "probeserve.stream")
		o.metrics["trace.overhead_frac"] = median(iterTraced)/median(iterPlain) - 1
	}
	return o, nil
}

// checkSweep counts every query of a pass whose folded result differs
// from the in-process reference.
func checkSweep(o *outcome, what string, got, want []*pq.Result) {
	for i := range want {
		if i >= len(got) || !reflect.DeepEqual(got[i], want[i]) {
			o.fail("%s: query %d (%s) differs from the reference", what, i, want[i].Spec)
		}
	}
}

func sumCounts(m map[string]uint64) uint64 {
	var s uint64
	for _, v := range m {
		s += v
	}
	return s
}

// readRecords reads the record files a cold pass left in dir, so the
// store layer can be timed on payloads of the same sizes.
func readRecords(dir string) [][]byte {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out [][]byte
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".pqa") {
			continue
		}
		if b, err := os.ReadFile(filepath.Join(dir, e.Name())); err == nil {
			out = append(out, b)
		}
	}
	return out
}

// sweepLayers measures the layers below the handler for the traced run:
// the evaluator by replaying the sweep on a twin session through
// DoBatch, the exact DPs and the planner through the façade's Ctx methods
// on fresh sessions, and the store by timed Put and Get calls on payloads
// the size of the cold pass's records. Each call is a span under a
// "bench.layers" root.
func sweepLayers(ctx context.Context, tr *tracer, cfg config, o *outcome, qs []pq.Query, records [][]byte, coldStats, warmStats []passResult) error {
	ctx, root := tr.root(ctx, "bench.layers", 0, time.Now())
	defer root.End()

	// Evaluator: twin session over its own store, each query its own
	// DoBatch; the first replay is cold, the second answers from memo.
	twinStore, err := pq.OpenArtifactStore(filepath.Join(cfg.workDir, "twin"))
	if err != nil {
		return err
	}
	defer twinStore.Close()
	twin := pq.NewEvaluator(pq.WithStore(twinStore))
	var coldDo, hotDo []time.Duration
	var coldTotal time.Duration
	for round := 0; round < 2; round++ {
		for _, q := range qs {
			d, err := call(ctx, "evaluator.DoBatch", func() error {
				_, err := twin.DoBatch(ctx, []pq.Query{q})
				return err
			})
			if err != nil {
				return err
			}
			if round == 0 {
				coldDo = append(coldDo, d)
				coldTotal += d
			} else {
				hotDo = append(hotDo, d)
			}
		}
	}
	o.metrics["evaluator.do_cold_p50_ms"] = median(msOf(coldDo))
	o.metrics["evaluator.do_hot_p50_us"] = median(usOf(hotDo))
	o.samples["evaluator.do_cold_p50_ms"], o.samples["evaluator.do_hot_p50_us"] = len(coldDo), len(hotDo)

	// Counters over every traced pass, builds and coalesced per iteration.
	total := pq.EvalStats{Builds: map[string]uint64{}, Coalesced: map[string]uint64{}, Hits: map[string]uint64{}, Misses: map[string]uint64{}}
	for _, p := range append(append([]passResult(nil), coldStats...), warmStats...) {
		for dst, src := range map[*map[string]uint64]map[string]uint64{
			&total.Builds: p.stats.Builds, &total.Coalesced: p.stats.Coalesced, &total.Hits: p.stats.Hits, &total.Misses: p.stats.Misses,
		} {
			for k, v := range src {
				(*dst)[k] += v
			}
		}
	}
	evalStatsLayer(o, pq.EvalStats{}, total)
	nCold := float64(max(1, len(coldStats)))
	o.metrics["evaluator.builds"] /= nCold
	o.metrics["evaluator.coalesced"] /= nCold

	// Strategy: the sweep's exact DPs, each system on a fresh session. The
	// share is their serial time over the serial cold replay above.
	var dp []time.Duration
	var dpTotal time.Duration
	for _, sp := range sweepSpecs {
		sys, err := pq.Parse(sp)
		if err != nil {
			return err
		}
		e := pq.NewEvaluator()
		d, err := call(ctx, "strategy.ProbeComplexityCtx", func() error {
			_, err := e.ProbeComplexityCtx(ctx, sys)
			return err
		})
		if err != nil {
			return err
		}
		dp = append(dp, d)
		for _, p := range qs[0].Ps {
			d, err := call(ctx, "strategy.AverageProbeComplexityCtx", func() error {
				_, err := e.AverageProbeComplexityCtx(ctx, sys, p)
				return err
			})
			if err != nil {
				return err
			}
			dp = append(dp, d)
		}
	}
	for _, d := range dp {
		dpTotal += d
	}
	o.metrics["strategy.build_p50_ms"] = median(msOf(dp))
	o.samples["strategy.build_p50_ms"] = len(dp)
	o.metrics["strategy.share"] = ratio(float64(dpTotal), float64(coldTotal))

	// Planner: load-optimal strategies and resilience of the grid pair.
	grid, err := pq.Parse(plannerSpec)
	if err != nil {
		return err
	}
	e := pq.NewEvaluator()
	plan, err := call(ctx, "rw.plan", func() error {
		for _, fr := range qs[len(qs)-1].ReadFractions {
			if _, err := e.StrategyCtx(ctx, grid, pq.StrategyOptions{Workload: pq.Workload{ReadFraction: fr}}); err != nil {
				return err
			}
		}
		_, err := e.ResilienceCtx(ctx, grid)
		return err
	})
	if err != nil {
		return err
	}
	o.metrics["rw.plan_ms"] = ms(plan)

	// Store: Put then Get every record-sized payload on a fresh store.
	st, err := pq.OpenArtifactStore(filepath.Join(cfg.workDir, "storebench"))
	if err != nil {
		return err
	}
	defer st.Close()
	var puts, gets []time.Duration
	for i, rec := range records {
		d, err := call(ctx, "store.Put", func() error { return st.Put("bench", fmt.Sprint(i), rec) })
		if err != nil {
			return err
		}
		puts = append(puts, d)
	}
	for i := range records {
		d, err := call(ctx, "store.Get", func() error {
			if _, ok := st.Get("bench", fmt.Sprint(i)); !ok {
				return fmt.Errorf("store bench: record %d not found", i)
			}
			return nil
		})
		if err != nil {
			return err
		}
		gets = append(gets, d)
	}
	o.metrics["store.put_p50_ms"] = median(msOf(puts))
	o.metrics["store.get_p50_us"] = median(usOf(gets))
	o.samples["store.put_p50_ms"], o.samples["store.get_p50_us"] = len(puts), len(gets)
	var writes, hits, bytes float64
	for _, p := range coldStats {
		writes += float64(p.store.Writes)
		for _, k := range p.store.Kinds {
			bytes += float64(k.Bytes)
		}
	}
	for _, p := range warmStats {
		hits += float64(p.store.Hits)
	}
	o.metrics["store.writes"] = writes / nCold
	o.metrics["store.hits"] = hits / float64(max(1, len(warmStats)))
	o.metrics["store.bytes"] = bytes / nCold
	return nil
}
