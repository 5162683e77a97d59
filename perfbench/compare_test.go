package main

import "testing"

// testdata/a.jsonl and testdata/b.jsonl hold ten real runs of every
// workload (seeds 1-10) of one tree, recorded interleaved by
// "runs.sh . a.jsonl b.jsonl 10".

func fixture(t *testing.T, name string) (benchDef, []runRecord) {
	t.Helper()
	def, err := loadBench("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	runs, err := loadRuns("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return def, runs
}

// flags reports whether a verdict flags a change.
func flags(v verdict) bool { return v.Verdict == "regression" || v.Verdict == "gain" }

// checkUnflagged fails on a verdict that flags a change, and on an
// unresolved one whose spreads are within the bound.
func checkUnflagged(t *testing.T, v verdict, context string) {
	t.Helper()
	switch {
	case flags(v), v.Verdict == "missing":
		t.Errorf("%s %s: verdict %q %s (change %+.3f, wins %d/%d, spreads %.3f/%.3f, bound %.2f)",
			v.Workload, v.Metric, v.Verdict, context, v.Worse, v.Wins, v.Pairs, v.OldSpread, v.NewSpread, v.Bound)
	case v.Verdict == "unresolved" && max(v.OldSpread, v.NewSpread) <= v.Bound:
		t.Errorf("%s %s: unresolved %s with spreads %.3f/%.3f within the bound %.2f",
			v.Workload, v.Metric, context, v.OldSpread, v.NewSpread, v.Bound)
	}
}

// scaled copies runs, multiplying one workload's metric by f.
func scaled(runs []runRecord, workload, metric string, f float64) []runRecord {
	out := make([]runRecord, len(runs))
	for i, r := range runs {
		ms := make(map[string]metricValue, len(r.Result.Metrics))
		for k, v := range r.Result.Metrics {
			if r.Workload == workload && k == metric {
				v.Value *= f
			}
			ms[k] = v
		}
		r.Result.Metrics = ms
		out[i] = r
	}
	return out
}

func TestCompareIdenticalSetsFlagsNothing(t *testing.T) {
	def, runs := fixture(t, "a.jsonl")
	vs := compareRuns(def, runs, runs)
	if len(vs) != len(def.Workloads)*len(def.EndToEnd) {
		t.Fatalf("got %d verdicts, want one per workload x metric", len(vs))
	}
	for _, v := range vs {
		checkUnflagged(t, v, "comparing a set with itself")
	}
}

// Two sets of runs of the same tree, recorded interleaved, must agree.
func TestCompareSameTreeFlagsNothing(t *testing.T) {
	def, a := fixture(t, "a.jsonl")
	_, b := fixture(t, "b.jsonl")
	for _, v := range compareRuns(def, a, b) {
		checkUnflagged(t, v, "comparing two sets of the same tree")
	}
}

func TestCompareFlagsSlowdown(t *testing.T) {
	def, runs := fixture(t, "a.jsonl")
	// peak_rss_mb's bound is below 25%, so the slowdown is a regression.
	for _, v := range compareRuns(def, runs, scaled(runs, "serve-mixed", "peak_rss_mb", 1.25)) {
		if v.Workload == "serve-mixed" && v.Metric == "peak_rss_mb" {
			if v.Verdict != "regression" {
				t.Errorf("25%% more peak_rss_mb: verdict %q, want regression (spreads %.3f/%.3f)", v.Verdict, v.OldSpread, v.NewSpread)
			}
			continue
		}
		checkUnflagged(t, v, "after a slowdown of another metric")
	}
}

func TestCompareReportsGain(t *testing.T) {
	def, runs := fixture(t, "a.jsonl")
	for _, v := range compareRuns(def, runs, scaled(runs, "serve-mixed", "fast_ms", 0.8)) {
		if v.Workload == "serve-mixed" && v.Metric == "fast_ms" && v.Verdict != "gain" {
			t.Errorf("20%% faster fast_ms: verdict %q, want gain", v.Verdict)
		}
	}
}

func TestCompareUnresolvedWhenSpreadExceedsBound(t *testing.T) {
	m := metricDef{Name: "x", Better: "lower", Bound: 0.1}
	old := series{seeds: []uint64{1, 2, 3, 4}, values: []float64{1, 2, 1, 2}}
	cur := series{seeds: []uint64{1, 2, 3, 4}, values: []float64{2, 3, 2, 3}}
	if v := compareSeries(m, old, cur); v.Verdict != "unresolved" {
		t.Errorf("verdict %q, want unresolved", v.Verdict)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestCompareGainNeedsNineInTenPairWins(t *testing.T) {
	m := metricDef{Name: "x", Better: "lower", Bound: 0.25}
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	old := series{seeds: seeds, values: []float64{100, 101, 102, 103, 104, 105, 106, 107, 108, 109}}
	for _, tc := range []struct {
		wins int
		want string
	}{{8, "same"}, {9, "gain"}} {
		cur := series{seeds: seeds}
		for i := range seeds {
			v := 90.0
			if i >= tc.wins {
				v = 120
			}
			cur.values = append(cur.values, v)
		}
		if v := compareSeries(m, old, cur); v.Verdict != tc.want {
			t.Errorf("%d/10 pair wins, medians %.1f -> %.1f: verdict %q, want %q", tc.wins, v.OldMedian, v.NewMedian, v.Verdict, tc.want)
		}
	}
}
