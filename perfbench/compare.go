package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Comparing two sets of runs. For every workload and end-to-end metric
// the verdict is one of:
//
//	unresolved  the run-to-run spread (quartile distance over median) of
//	            either set exceeds the metric's bound, and not every new
//	            run is better than every old one;
//	regression  the new median is worse than the old one by more than the
//	            bound;
//	gain        the new side wins at least 9 in 10 pairs (ties count for
//	            neither) and the medians differ by more than the old
//	            set's quartile distance, in the better direction;
//	same        none of the above.
//
// Pairs share a seed. The host's speed drifts over a recording, so a gain
// holds only between two sets recorded interleaved, as runs.sh does.

// loadRuns reads a run file written with --out. Traced runs are skipped:
// only untraced runs carry end-to-end metrics.
func loadRuns(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Trace {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// series is one metric's values over a set's runs of one workload, in
// seed order, with the seeds.
type series struct {
	seeds  []uint64
	values []float64
}

func seriesOf(runs []runRecord, workload, metric string) series {
	var rs []runRecord
	for _, r := range runs {
		if r.Workload == workload {
			if _, ok := r.Result.Metrics[metric]; ok {
				rs = append(rs, r)
			}
		}
	}
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].Seed < rs[j].Seed })
	var s series
	for _, r := range rs {
		s.seeds = append(s.seeds, r.Seed)
		s.values = append(s.values, r.Result.Metrics[metric].Value)
	}
	return s
}

// spread is the quartile distance over the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs(ratio(q3-q1, median(xs)))
}

// verdict is the comparison of one workload x metric.
type verdict struct {
	Workload, Metric     string
	OldMedian, NewMedian float64
	OldSpread, NewSpread float64
	Worse                float64 // relative change in the worse direction
	Wins, Pairs          int
	Bound                float64
	Verdict              string
}

// compareSeries applies the rules above to one metric.
func compareSeries(m metricDef, old, cur series) verdict {
	v := verdict{Metric: m.Name, Bound: m.Bound,
		OldMedian: median(old.values), NewMedian: median(cur.values),
		OldSpread: spread(old.values), NewSpread: spread(cur.values)}
	better := func(a, b float64) bool { // a better than b
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	v.Worse = ratio(v.NewMedian-v.OldMedian, math.Abs(v.OldMedian))
	if m.Better == "higher" {
		v.Worse = -v.Worse
	}
	// Pairs: runs with the same seed on both sides.
	oldBySeed := map[uint64]float64{}
	for i, s := range old.seeds {
		oldBySeed[s] = old.values[i]
	}
	var pairs [][2]float64
	for i, s := range cur.seeds {
		if o, ok := oldBySeed[s]; ok {
			pairs = append(pairs, [2]float64{o, cur.values[i]})
		}
	}
	v.Pairs = len(pairs)
	for _, p := range pairs {
		if better(p[1], p[0]) {
			v.Wins++
		}
	}
	allBetter := len(old.values) > 0 && len(cur.values) > 0
	for _, n := range cur.values {
		for _, o := range old.values {
			if !better(n, o) {
				allBetter = false
			}
		}
	}
	q1, q3 := quartiles(old.values)
	switch {
	case len(old.values) == 0 || len(cur.values) == 0:
		v.Verdict = "missing"
	case math.Max(v.OldSpread, v.NewSpread) > m.Bound && !allBetter:
		v.Verdict = "unresolved"
	case math.Max(v.OldSpread, v.NewSpread) > m.Bound:
		v.Verdict = "gain"
	case v.Worse > m.Bound:
		v.Verdict = "regression"
	case v.Pairs > 0 && float64(v.Wins) >= 0.9*float64(v.Pairs) &&
		math.Abs(v.NewMedian-v.OldMedian) > q3-q1 && better(v.NewMedian, v.OldMedian):
		v.Verdict = "gain"
	default:
		v.Verdict = "same"
	}
	return v
}

// compareRuns gives the verdict of every workload x end-to-end metric.
func compareRuns(def benchDef, old, cur []runRecord) []verdict {
	var out []verdict
	for _, w := range def.Workloads {
		for _, m := range def.EndToEnd {
			v := compareSeries(m, seriesOf(old, w.Name, m.Name), seriesOf(cur, w.Name, m.Name))
			v.Workload = w.Name
			out = append(out, v)
		}
	}
	return out
}

// compareFiles prints the verdict table and reports whether any metric
// regressed.
func compareFiles(w io.Writer, def benchDef, oldPath, newPath string) (bool, error) {
	old, err := loadRuns(oldPath)
	if err != nil {
		return false, err
	}
	cur, err := loadRuns(newPath)
	if err != nil {
		return false, err
	}
	printHosts(w, "old", old)
	printHosts(w, "new", cur)
	fmt.Fprintf(w, "%-12s %-14s %12s %12s %8s %8s %8s %7s %6s  %s\n",
		"workload", "metric", "old median", "new median", "change", "old IQR%", "new IQR%", "wins", "bound", "verdict")
	regressed := false
	for _, v := range compareRuns(def, old, cur) {
		fmt.Fprintf(w, "%-12s %-14s %12.5g %12.5g %+7.2f%% %8.2f %8.2f %3d/%-3d %5.0f%%  %s\n",
			v.Workload, v.Metric, v.OldMedian, v.NewMedian, 100*v.Worse, 100*v.OldSpread, 100*v.NewSpread,
			v.Wins, v.Pairs, 100*v.Bound, v.Verdict)
		regressed = regressed || v.Verdict == "regression"
	}
	fmt.Fprintln(w, "(change is the relative move in the worse direction: positive is worse;")
	fmt.Fprintln(w, " a gain holds only if the two sets were recorded interleaved, as runs.sh does)")
	return regressed, nil
}

func printHosts(w io.Writer, label string, runs []runRecord) {
	seen := map[host]int{}
	var order []host
	for _, r := range runs {
		if seen[r.Host] == 0 {
			order = append(order, r.Host)
		}
		seen[r.Host]++
	}
	for _, h := range order {
		fmt.Fprintf(w, "%s: %d runs on nproc=%d gomaxprocs=%d %s %q\n", label, seen[h], h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPU)
	}
}
