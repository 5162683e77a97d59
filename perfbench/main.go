// Command perfbench is the repository's end-to-end benchmark. Each
// workload drives probeserve's real handler on a loopback listener
// through the real client, checks every answer against an in-process
// reference, and prints the end-to-end metrics named in BENCHMARK.json
// (or, with --trace 1, the per-layer metrics). It also compares two sets
// of recorded runs.
//
// Run it from the repository root through perfbench/run.sh, which builds
// it first:
//
//	bash perfbench/run.sh --workload serve-mixed --seed 1 --trace 0
//	bash perfbench/run.sh --workload sweep-exact --seed 2 --trace 1
//	bash perfbench/run.sh --compare old.jsonl new.jsonl
//
// --seconds defaults to BENCHMARK.json's run_seconds.
//
// The last line of a run's standard output is one JSON object with the
// keys correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workDir  string // scratch space inside the checkout
}

// outcome is what a workload hands back to main.
type outcome struct {
	attempted, failed int
	failures          []string // the first few failure messages

	metrics map[string]float64 // end-to-end and per-layer values by name
	samples map[string]int     // sample count behind each timing
	params  map[string]any     // offered rate, request counts, ...

	spans    []span       // traced runs
	report   *layerReport // traced runs: blocking-path attribution
	rootName string
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, samples: map[string]int{}, params: map[string]any{}}
}

// fail records one failed, refused or wrong answer.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 5 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// workloads maps workload names to the functions that run them.
var workloads = map[string]func(cfg config) (*outcome, error){
	"serve-mixed": runServeMixed,
	"sweep-exact": runSweepExact,
	"wide-sim":    runWideSim,
}

// Each workload brings its serving stack up at least setupMinRepeats
// times and for at least setupMinTime in all; setup_s is the median.
const (
	setupMinRepeats = 9
	setupMinTime    = time.Second
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: serve-mixed, sweep-exact or wide-sim")
		seed     = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 0, "measured window in seconds (default: BENCHMARK.json's run_seconds)")
		traceOn  = flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
		out      = flag.String("out", "", "append this run's record (host, seed, metrics) to this JSON-lines file")
		compare  = flag.Bool("compare", false, "compare two run files given as arguments: OLD NEW")
	)
	flag.Parse()
	def, err := loadBench("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(errors.New("--compare takes two run files: OLD NEW"))
		}
		regressed, err := compareFiles(os.Stdout, def, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(3)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (want serve-mixed, sweep-exact or wide-sim)", *workload))
	}
	if *seconds == 0 {
		*seconds = def.RunSeconds
	}
	if !(*seconds > 0) || (*traceOn != 0 && *traceOn != 1) {
		fatal(errors.New("--seconds must be positive and --trace 0 or 1"))
	}
	work := os.Getenv("PERFBENCH_WORK")
	if work == "" {
		work = filepath.Join(".bench_build", "work")
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *traceOn == 1,
		workDir: filepath.Join(work, fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid()))}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fatal(err)
	}
	o, err := run(cfg)
	if rmErr := os.RemoveAll(cfg.workDir); err == nil && rmErr != nil {
		err = rmErr
	}
	if err != nil {
		fatal(fmt.Errorf("%s: %w", cfg.workload, err))
	}
	want := def.EndToEnd
	if cfg.trace {
		want = def.PerLayer
		layerDefaults(o.metrics, want)
	}
	metrics := map[string]metricValue{}
	for _, m := range want {
		v, ok := o.metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fatal(fmt.Errorf("%s produced no value for metric %s", cfg.workload, m.Name))
		}
		metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}

	h := hostInfo()
	fmt.Printf("host: nproc=%d gomaxprocs=%d go=%s cpu=%q\n", h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPU)
	fmt.Printf("run: workload=%s seed=%d seconds=%g trace=%t params=%s\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace, mustJSON(o.params))
	for _, m := range want {
		line := fmt.Sprintf("  %-28s %14.6g %s", m.Name, metrics[m.Name].Value, m.Unit)
		if n, ok := o.samples[m.Name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Println(line)
	}
	fmt.Printf("checks: attempted=%d failed=%d failed_frac=%.6g\n", o.attempted, o.failed, ratio(float64(o.failed), float64(o.attempted)))
	for _, f := range o.failures {
		fmt.Printf("  failure: %s\n", f)
	}
	if cfg.trace {
		path := filepath.Join(work, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
		if err := dumpSpans(path, o.spans); err != nil {
			fatal(fmt.Errorf("write spans: %w", err))
		}
		printReport(o, path)
	}

	res := result{Correct: o.failed == 0 && o.attempted > 0, Attempted: o.attempted, Failed: o.failed, Metrics: metrics}
	if *out != "" {
		rec := runRecord{Host: h, Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
			Params: o.params, Samples: o.samples, Result: res, When: time.Now().UTC().Format(time.RFC3339)}
		if err := appendRecord(*out, rec); err != nil {
			fatal(err)
		}
	}
	fmt.Println(mustJSON(res))
}

// printReport prints the traced run's layer attribution.
func printReport(o *outcome, path string) {
	rep := o.report
	fmt.Printf("trace: %d spans written to %s\n", len(o.spans), path)
	fmt.Printf("trace: blocking path %q wall %.3f ms; layer self times:\n", o.rootName, ms(rep.Wall))
	layers := make([]string, 0, len(rep.Self))
	for l := range rep.Self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return rep.Self[layers[i]] > rep.Self[layers[j]] })
	for _, l := range layers {
		fmt.Printf("  %-12s %12.3f ms  %6.2f%%\n", l, ms(rep.Self[l]), 100*ratio(float64(rep.Self[l]), float64(rep.Wall)))
	}
	fmt.Printf("trace: named layers cover %.2f%% of the blocking-path wall time; trace.overhead_frac=%.4f\n",
		100*rep.Coverage, o.metrics["trace.overhead_frac"])
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	return string(b)
}

// metricValue and result are the wire shape of the final output line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// host describes the machine a result set was measured on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
}

func hostInfo() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPU: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// runRecord is one line of a run file: everything needed to compare the
// run with another and to know where it was measured.
type runRecord struct {
	Host     host           `json:"host"`
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Trace    bool           `json:"trace"`
	Params   map[string]any `json:"params"`
	Samples  map[string]int `json:"samples"`
	Result   result         `json:"result"`
	When     string         `json:"when"`
}

func appendRecord(path string, rec runRecord) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintln(f, mustJSON(rec)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// benchDef is the part of BENCHMARK.json this program reads.
type benchDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
	RunSeconds float64     `json:"run_seconds"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBench(path string) (benchDef, error) {
	var def benchDef
	data, err := os.ReadFile(path)
	if err != nil {
		return def, fmt.Errorf("read benchmark definition: %w", err)
	}
	if err := json.Unmarshal(data, &def); err != nil {
		return def, fmt.Errorf("parse %s: %w", path, err)
	}
	return def, nil
}
