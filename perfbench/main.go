// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one workload in this process for a fixed wall-clock
// window and prints every metric by name, with its unit and sample
// count, then a host-fingerprinted record, then — as the last line —
// the result object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// window is split into an untraced and a traced half, and the metrics
// are the per-layer ones plus the tracing overhead between the halves.
//
// Usage (from the repository root, normally through perfbench/run.py,
// which builds this binary and cmd/beamserve first):
//
//	perfbench -workload sweep-singlepath -seed 1 -seconds 30 -trace 0 -beamserve .bench_build/bin/beamserve
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// procStart approximates process start: package variables initialize
// before main, after the runtime's own start-up.
var procStart = time.Now()

// runConfig is what every workload receives.
type runConfig struct {
	seed      int64
	window    time.Duration
	trace     bool
	beamserve string
}

// workload is one named traffic mix.
type workload struct {
	name string
	run  func(runConfig) (*report, error)
}

var workloads = []workload{
	{"sweep-singlepath", runSweep},
	{"scenario-mobility", runScenario},
	{"serve-estimate", runServeEstimate},
	{"serve-align-multipath", runServeAlign},
}

// metric is one reported number with its unit, sample count and an
// optional note (for example "computed" for calls × per-call time).
type metric struct {
	name, unit string
	value      float64
	n          int
	note       string
}

// report is a finished run: operation accounting, correctness, and the
// metric set its mode prints.
type report struct {
	attempted, failed int
	problems          []string
	metrics           []metric
	// invalid, when set, means the measurement itself cannot be trusted
	// (the load generator fell behind its schedule): nothing is
	// reported and the run exits non-zero.
	invalid string
}

func (r *report) add(name, unit string, v float64, n int, note string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v, n: n, note: note})
}

// fail records a correctness problem; the run then reports correct=false.
func (r *report) fail(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func main() {
	var (
		name      = flag.String("workload", "", "workload name")
		seed      = flag.Int64("seed", 1, "workload seed; every input is derived from it")
		seconds   = flag.Int("seconds", 25, "measurement window in seconds")
		trace     = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		beamserve = flag.String("beamserve", "", "path of the built cmd/beamserve binary (serve-* workloads)")
	)
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fatalf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("-seconds must be ≥1 and -trace 0 or 1")
	}
	cfg := runConfig{seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace == 1, beamserve: *beamserve}
	rep, err := w.run(cfg)
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	if rep.invalid != "" {
		fatalf("%s: run invalid, nothing reported: %s", w.name, rep.invalid)
	}
	complete(rep, cfg.trace)
	emit(w.name, cfg, rep)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// emit prints the human-readable metric lines, the fingerprinted
// record, and the final result line.
func emit(name string, cfg runConfig, rep *report) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	type recMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
		N     int     `json:"n"`
		Note  string  `json:"note,omitempty"`
	}
	out := map[string]value{}
	rec := map[string]recMetric{}
	for _, m := range rep.metrics {
		if !finite(m.value) {
			rep.fail("metric %s is not finite (%v)", m.name, m.value)
			m.value = -1
		}
		note := ""
		if m.note != "" {
			note = " [" + m.note + "]"
		}
		fmt.Printf("%-34s %14.6g %-6s n=%d%s\n", m.name, m.value, m.unit, m.n, note)
		out[m.name] = value{m.value, m.unit}
		rec[m.name] = recMetric{m.value, m.unit, m.n, m.note}
	}
	for _, p := range rep.problems {
		fmt.Println("problem:", p)
	}
	correct := len(rep.problems) == 0 && rep.failed == 0 && rep.attempted > 0
	record, _ := json.Marshal(map[string]any{
		"workload": name, "seed": cfg.seed, "seconds": cfg.window.Seconds(), "trace": cfg.trace,
		"host": hostFingerprint(), "metrics": rec, "correct": correct,
		"attempted": rep.attempted, "failed": rep.failed,
	})
	fmt.Printf("record %s\n", record)
	final, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, rep.attempted, rep.failed, out})
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(final))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never entered).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// latencyMetrics adds p50/p90 over per-operation latencies (failed
// operations enter as +Inf, so they count as missing every limit) and
// the share of operations that were ok within limitMS. Open-loop runs
// must hold at least ten samples beyond the 90th percentile or the run
// is not correct; closed loops report how many they hold.
func latencyMetrics(rep *report, lat []float64, limitMS float64, openLoop bool) {
	n := len(lat)
	from := "from operation start"
	if openLoop {
		from = "from due time"
		if b := beyond(n, 90); b < 10 {
			rep.fail("p90 needs ≥10 samples beyond it, run has %d of %d (need %d samples)", b, n, minSamplesFor(90, 10))
		}
	}
	rep.add("p50_ms", "ms", percentile(lat, 50), n, from)
	rep.add("p90_ms", "ms", percentile(lat, 90), n, fmt.Sprintf("%s, %d samples beyond", from, beyond(n, 90)))
	within := 0
	for _, l := range lat {
		if l <= limitMS {
			within++
		}
	}
	rep.add("slo_frac", "frac", ratio(float64(within), float64(n)), n, fmt.Sprintf("ok within %.0f ms", limitMS))
}

// fidelity adds the two output-quality metrics computed on a fixed
// reference input (independent of -seed, so identical on every run of
// the same code).
func fidelity(rep *report, lossDB, eff float64, n int, what string) {
	rep.add("loss_db", "dB", lossDB, n, "fixed reference: "+what)
	rep.add("efficiency", "frac", eff, n, "fixed reference: delivered/genie")
}
