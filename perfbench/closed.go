package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"time"

	"mmwalign/internal/antenna"
	"mmwalign/internal/experiment"
	"mmwalign/internal/meas"
	"mmwalign/internal/obs"
	"mmwalign/internal/scenario"
)

// opSeed derives operation i's input seed from the workload seed
// (splitmix64), so a run's inputs are a pure function of -seed.
func opSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// loopResult is one closed-loop window: the next operation starts when
// the previous one returns, on this single goroutine. Operation times
// are scaled to the reference host speed by the calibrations taken
// between operations (calib.go).
type loopResult struct {
	lat                  []float64   // scaled ms per operation; +Inf for a failed one
	raw                  []float64   // unscaled ms per operation, failed ones included
	busyMS               float64     // Σ scaled operation time, failed ones included
	cal                  []calSample // one before each operation and one after the last
	attempted, ok, cells int
	elapsed              time.Duration
	cpu                  time.Duration
}

func (l loopResult) opsPerS() float64 { return float64(l.cells) / (l.busyMS / 1e3) }

// closedNearest is how many calibrations scale a closed-loop
// operation: those within about two seconds of it.
const closedNearest = 16

// closedLoop runs op(first), op(first+1), … until window has elapsed.
// op returns the (drop, scheme) or trajectory cells it completed.
func closedLoop(window time.Duration, first int, op func(i int) (int, error), rep *report) loopResult {
	var res loopResult
	var mids []time.Time
	var failed []bool
	cpu0 := cpuTime()
	start := time.Now()
	res.cal = append(res.cal, calSample{time.Now(), calibrate()})
	for i := first; time.Since(start) < window; i++ {
		t0 := time.Now()
		cells, err := op(i)
		d := time.Since(t0)
		res.cal = append(res.cal, calSample{time.Now(), calibrate()})
		mids = append(mids, t0.Add(d/2))
		res.raw = append(res.raw, ms(d))
		failed = append(failed, err != nil)
		res.attempted++
		if err != nil {
			rep.fail("operation %d: %v", i, err)
			continue
		}
		res.ok++
		res.cells += cells
	}
	res.elapsed = time.Since(start)
	res.cpu = cpuTime() - cpu0
	for k, d := range res.raw {
		scaled := d * factorAt(res.cal, mids[k], closedNearest)
		res.busyMS += scaled
		if failed[k] {
			scaled = math.Inf(1)
		}
		res.lat = append(res.lat, scaled)
	}
	return res
}

// closedEndToEnd adds the end-to-end metrics common to the closed
// loops.
func closedEndToEnd(rep *report, setupS float64, l loopResult, limitMS float64, what string) error {
	rep.attempted, rep.failed = l.attempted, l.attempted-l.ok
	rep.add("setup_s", "s", setupS, closedSetups, "median of set-ups, scaled")
	rep.add("ops_per_s", "1/s", l.opsPerS(), l.cells, what+" per scaled second of operation time")
	latencyMetrics(rep, l.lat, limitMS, false)
	rep.add("ok_frac", "frac", ratio(float64(l.ok), float64(l.attempted)), l.attempted, "")
	printScaling(l.cal, float64(l.cells)/l.elapsed.Seconds(), percentile(l.raw, 50), percentile(l.raw, 90))
	hwm, err := vmHWM(strconv.Itoa(os.Getpid()))
	if err != nil {
		return err
	}
	rep.add("peak_rss_mb", "MB", hwm, 1, "VmHWM of this process")
	return nil
}

// traceOverhead reports the traced-minus-untraced difference of the two
// halves of a traced run.
func traceOverhead(rep *report, untracedOps, tracedOps, untracedP50, tracedP50 float64) {
	rep.add("trace.overhead_ops_frac", "frac", 1-ratio(tracedOps, untracedOps), 2, "1 − traced/untraced ops_per_s, scaled")
	rep.add("trace.overhead_p50_ms", "ms", tracedP50-untracedP50, 2, "traced − untraced p50, scaled")
}

// checkFigure applies the sweep's output checks: no failed drops and a
// finite value at every point of every series.
func checkFigure(fig experiment.Figure) error {
	if fig.Failures != nil {
		return fmt.Errorf("figure reports failed drops: %v", fig.Failures.Err())
	}
	if len(fig.Series) != 3 {
		return fmt.Errorf("figure has %d series, want 3", len(fig.Series))
	}
	for _, s := range fig.Series {
		for k, y := range s.Y {
			if !finite(y) {
				return fmt.Errorf("series %s point %d is %v", s.Name, k, y)
			}
		}
	}
	return nil
}

// sweepConfig is one sweep operation: Fig. 5 (single-path, paper
// geometry 4×4/8×8 arrays, 16/64 beams, search rates up to 0.30·T) for
// random, scan and proposed on one drop, on one worker.
func sweepConfig(seed int64) experiment.Config {
	return experiment.Config{Seed: seed, Drops: 1, Workers: 1}
}

const sweepCellsPerOp = 3

// closedSetups is how many set-ups a closed-loop run times: each is one
// untimed warm-up operation of ≈0.2 s.
const closedSetups = 5

// warmupSeed fixes the untimed warm-up operation's input, so set-up
// time measures set-up, not how costly one seeded drop happens to be.
const warmupSeed = 0

// closedProcs is the closed loops' GOMAXPROCS. With one, the garbage
// collector runs on the thread that runs the operations and the
// calibrations, so the calibrations see the CPU the whole operation ran
// on; with two, collection ran on the other CPU, whose speed varies
// independently, and the operations' times tracked the calibrations
// less closely.
const closedProcs = 1

func runSweep(cfg runConfig) (*report, error) {
	runtime.GOMAXPROCS(closedProcs)
	rep := &report{}
	ctx := context.Background()
	setupS, err := timeSetups(closedSetups, func() (func() error, error) {
		fig, err := experiment.GenerateContext(ctx, 5, sweepConfig(warmupSeed))
		if err == nil {
			err = checkFigure(fig)
		}
		return nil, err
	})
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	plain := func(i int) (int, error) {
		fig, err := experiment.GenerateContext(ctx, 5, sweepConfig(opSeed(cfg.seed, i)))
		if err == nil {
			err = checkFigure(fig)
		}
		return sweepCellsPerOp, err
	}
	if !cfg.trace {
		l := closedLoop(cfg.window, 0, plain, rep)
		if err := closedEndToEnd(rep, setupS, l, 1000, "(drop, scheme) cells"); err != nil {
			return nil, err
		}
		loss, eff := sweepReference()
		fidelity(rep, loss, eff, 4, "proposed mean loss over search rates 0.03–0.30, 4 drops")
		return rep, nil
	}

	half := cfg.window / 2
	u := closedLoop(half, 0, plain, rep)
	rec := obs.New()
	var captures []*captureProber
	traced := func(i int) (int, error) {
		c := sweepConfig(opSeed(cfg.seed, i))
		c.WrapSounder = func(_ int, scheme string, p meas.Prober) meas.Prober {
			if scheme != "proposed" {
				return p
			}
			cp := &captureProber{Prober: p}
			captures = append(captures, cp)
			return cp
		}
		fig, err := experiment.GenerateContext(obs.Into(ctx, rec), 5, c)
		if err == nil {
			err = checkFigure(fig)
		}
		return sweepCellsPerOp, err
	}
	t := closedLoop(half, u.attempted, traced, rep)
	rep.attempted, rep.failed = u.attempted+t.attempted, u.attempted+t.attempted-u.ok-t.ok
	snap := rec.Snapshot()

	r := newSolverReplay(paperRXBook())
	for _, cp := range captures {
		replayProposed(r, cp.obs)
	}
	checkReplay(rep, r, snap.Solver)
	estMS, _ := phaseMS(snap, "estimation")
	addSolverLayers(rep, r, ratio(estMS, float64(snap.Solver.Estimations)), "replay of captured windows")
	opWall := sumMS(t.raw)
	addAlignLayers(rep, snap, t.attempted)
	chMS, _ := phaseMS(snap, "channel")
	sndMS, _ := phaseMS(snap, "sounding")
	orMS, _ := phaseMS(snap, "oracle")
	selMS, _ := phaseMS(snap, "selection")
	rep.add("experiment.overhead_frac", "frac", 1-ratio(chMS+sndMS+orMS+estMS+selMS, opWall), t.attempted, "1 − Σ cell phase time / operation wall time")
	rep.add("experiment.retries", "count", float64(snap.Counters["retry_attempts"]), t.attempted, "")
	rep.add("experiment.failed_cells", "count", float64(t.attempted-t.ok), t.attempted, "")
	rep.add("share.covest_cmat", "frac", ratio(estMS, opWall), t.attempted, "estimation phase / operation wall time (one worker)")
	rep.add("share.cpu_per_wall", "frac", ratio(t.cpu.Seconds(), t.elapsed.Seconds()), t.attempted, "process CPU / wall, traced half")
	traceOverhead(rep, u.opsPerS(), t.opsPerS(), median(u.lat), median(t.lat))
	return rep, nil
}

// checkReplay confirms the solver replay saw exactly the solves the
// program ran; otherwise the replay-derived layer metrics are not the
// run's and the run is not correct.
func checkReplay(rep *report, r *solverReplay, s obs.SolverStats) {
	match := int64(r.solves) == s.Estimations && int64(r.iters) == s.Iters && int64(r.eig) == s.EigenDecomps
	v := 1.0
	if !match {
		v = 0
		rep.fail("solver replay diverged: replay %d solves/%d iters/%d eig vs run %d/%d/%d",
			r.solves, r.iters, r.eig, s.Estimations, s.Iters, s.EigenDecomps)
	}
	rep.add("trace.replay_match", "bool", v, r.solves, "replay solves, iterations and eig calls equal the run's")
}

// addAlignLayers reports the alignment-pipeline phases the program's
// recorder measured, per operation.
func addAlignLayers(rep *report, snap obs.Snapshot, ops int) {
	per := func(v float64) float64 { return ratio(v, float64(ops)) }
	orMS, _ := phaseMS(snap, "oracle")
	chMS, chN := phaseMS(snap, "channel")
	sndMS, sndN := phaseMS(snap, "sounding")
	selMS, _ := phaseMS(snap, "selection")
	rep.add("align.oracle_ms", "ms", per(orMS), ops, "per operation")
	rep.add("align.selection_ms", "ms", per(selMS), ops, "per operation")
	rep.add("align.fallbacks", "count", float64(snap.Counters["estimator_fallbacks"]), ops, "")
	rep.add("align.stale_keeps", "count", float64(snap.Counters["estimator_stale_keeps"]), ops, "")
	if chN > 0 {
		rep.add("channel.gen_ms", "ms", per(chMS), chN, "per operation")
	}
	if sndN > 0 {
		rep.add("meas.sounding_us", "us", ratio(sndMS*1e3, float64(sndN)), sndN, "per measurement")
		rep.add("meas.measurements", "count", per(float64(sndN)), ops, "per operation")
	}
}

func sumMS(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// paperRXBook is the paper's 64-beam RX codebook over an 8×8 UPA.
func paperRXBook() *antenna.Codebook {
	return antenna.NewGridCodebook(antenna.NewUPA(8, 8), 8, 8, math.Pi, math.Pi/2)
}

// sweepReference regenerates Fig. 5 on four fixed drops and returns
// the proposed scheme's mean loss over the figure's search rates and
// its mean delivered/genie gain fraction. (At the top rate alone the
// proposed scheme finds the optimum on all four drops, a loss of 0 dB
// that could not show a change.)
func sweepReference() (lossDB, eff float64) {
	var losses []float64
	for d := int64(1); d <= 4; d++ {
		fig, err := experiment.Generate(5, sweepConfig(d))
		if err != nil {
			return math.NaN(), math.NaN()
		}
		losses = append(losses, fig.Series[2].Y...)
	}
	for _, l := range losses {
		eff += math.Pow(10, -l/10) // delivered/genie gain fraction
	}
	return mean(losses), eff / float64(len(losses))
}

// scenarioConfig is one scenario operation: one UE at one speed over a
// fixed 8-superframe horizon (two re-alignments per scheme at the
// default every-4th-frame cadence), cold and warm-started proposed, on
// one worker. Speeds alternate 5 and 20 m/s across operations.
func scenarioConfig(seed int64, i int) scenario.Config {
	speed := 5.0
	if i%2 == 1 {
		speed = 20
	}
	return scenario.Config{
		Seed:      seed,
		UEs:       1,
		Frames:    8,
		SpeedsMPS: []float64{speed},
		Schemes:   []string{"proposed", "proposed-warm"},
		Workers:   1,
	}
}

// checkScenario applies the scenario's output check: every trajectory
// has a finite efficiency.
func checkScenario(res scenario.Result) error {
	n := 0
	for _, row := range res.Traces {
		for _, tr := range row {
			if !finite(tr.Efficiency) {
				return fmt.Errorf("%s trajectory efficiency %v", tr.Scheme, tr.Efficiency)
			}
			n++
		}
	}
	if n != 2 {
		return fmt.Errorf("%d trajectories, want 2", n)
	}
	return nil
}

func runScenario(cfg runConfig) (*report, error) {
	runtime.GOMAXPROCS(closedProcs)
	rep := &report{}
	ctx := context.Background()
	setupS, err := timeSetups(closedSetups, func() (func() error, error) {
		res, err := scenario.RunContext(ctx, scenarioConfig(warmupSeed, 0))
		if err == nil {
			err = checkScenario(res)
		}
		return nil, err
	})
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	var results []scenario.Result
	op := func(c context.Context, keep bool) func(i int) (int, error) {
		return func(i int) (int, error) {
			res, err := scenario.RunContext(c, scenarioConfig(opSeed(cfg.seed, i), i))
			if err == nil {
				err = checkScenario(res)
			}
			if keep && err == nil {
				results = append(results, res)
			}
			return 2, err
		}
	}
	if !cfg.trace {
		l := closedLoop(cfg.window, 0, op(ctx, false), rep)
		if err := closedEndToEnd(rep, setupS, l, 4000, "trajectory cells"); err != nil {
			return nil, err
		}
		loss, eff, n := scenarioReference()
		fidelity(rep, loss, eff, n, "proposed-warm held-pair loss per frame, 5 and 20 m/s")
		return rep, nil
	}

	half := cfg.window / 2
	u := closedLoop(half, 0, op(ctx, false), rep)
	rec := obs.New()
	t := closedLoop(half, u.attempted, op(obs.Into(ctx, rec), true), rep)
	rep.attempted, rep.failed = u.attempted+t.attempted, u.attempted+t.attempted-u.ok-t.ok
	snap := rec.Snapshot()
	s := snap.Solver

	// The scenario builds its sounders internally, so its windows cannot
	// be captured and replayed: solver and kernel call counts come from
	// the program's recorder (one λ-GEMM per objective evaluation, as
	// the other workloads' replays confirm), kernel times are not
	// observable.
	estMS, _ := phaseMS(snap, "estimation")
	note := "program recorder"
	rep.add("covest.solves", "count", float64(s.Estimations), int(s.Estimations), note)
	rep.add("covest.iters_per_solve", "count", ratio(float64(s.Iters), float64(s.Estimations)), int(s.Estimations), note)
	rep.add("covest.eig_per_solve", "count", ratio(float64(s.EigenDecomps), float64(s.Estimations)), int(s.Estimations), note)
	rep.add("covest.backtracks_per_solve", "count", ratio(float64(s.Backtracks), float64(s.Estimations)), int(s.Estimations), note)
	rep.add("covest.solve_ms", "ms", ratio(estMS, float64(s.Estimations)), int(s.Estimations), "mean per solve")
	rep.add("covest.degraded", "count", float64(s.Degraded), int(s.Estimations), note)
	rep.add("cmat.eig_calls", "count", float64(s.EigenDecomps), int(s.Estimations), note)
	rep.add("cmat.gemm_calls", "count", float64(s.ObjectiveEvals), int(s.Estimations), "computed: one λ-GEMM per objective evaluation")
	for _, name := range []string{"cmat.eig_ms", "cmat.gemm_ms", "covest.rank_mean", "covest.kept_frac"} {
		rep.add(name, unitOf(name), 0, 0, "not observable: no seam to capture the scenario's solver windows")
	}
	addAlignLayers(rep, snap, t.attempted)

	frameMS, frames := phaseMS(snap, "frame")
	alignMS, aligns := phaseMS(snap, "alignment")
	rep.add("scenario.realigns", "count", ratio(float64(snap.Counters["scenario_realigns"]), float64(t.attempted)), t.attempted, "per operation")
	rep.add("scenario.frame_ms", "ms", ratio(frameMS, float64(frames)), frames, "mean per superframe")
	rep.add("scenario.alignment_ms", "ms", ratio(alignMS, float64(aligns)), aligns, "mean per re-alignment")
	rep.add("scenario.outage_frames", "count", ratio(float64(snap.Counters["scenario_outage_frames"]), float64(t.attempted)), t.attempted, "per operation")
	var data, genie float64
	for _, res := range results {
		for _, row := range res.Traces {
			for _, tr := range row {
				if tr.Scheme != "proposed" {
					continue
				}
				for _, f := range tr.Frames {
					data += f.DataBits
					genie += f.GenieBits
				}
			}
		}
	}
	rep.add("scenario.eff_cold", "frac", ratio(data, genie), len(results), "proposed (cold), traced half")
	rep.add("share.covest_cmat", "frac", ratio(estMS, sumMS(t.raw)), t.attempted, "estimation phase / operation wall time (one worker)")
	rep.add("share.cpu_per_wall", "frac", ratio(t.cpu.Seconds(), t.elapsed.Seconds()), t.attempted, "process CPU / wall, traced half")

	// Warm-start solver cost: re-run the first traced operations with
	// only the warm scheme under a recorder of its own.
	warm := obs.New()
	for i := u.attempted; i < u.attempted+4 && i < u.attempted+t.attempted; i++ {
		c := scenarioConfig(opSeed(cfg.seed, i), i)
		c.Schemes = []string{"proposed-warm"}
		if _, err := scenario.RunContext(obs.Into(ctx, warm), c); err != nil {
			rep.fail("warm replay %d: %v", i, err)
		}
	}
	ws := warm.Snapshot().Solver
	rep.add("scenario.warm_iters_per_solve", "count", ratio(float64(ws.Iters), float64(ws.Estimations)), int(ws.Estimations), "proposed-warm only, first 4 traced operations re-run")
	traceOverhead(rep, u.opsPerS(), t.opsPerS(), median(u.lat), median(t.lat))
	return rep, nil
}

// scenarioReference runs the fixed reference trajectories (seed 1, one
// UE at 5 and at 20 m/s) and returns proposed-warm's mean per-frame
// held-pair loss against the oracle pair and its Σ delivered / Σ genie.
func scenarioReference() (lossDB, eff float64, n int) {
	var loss, data, genie float64
	for i := 0; i < 2; i++ {
		res, err := scenario.Run(scenarioConfig(1, i))
		if err != nil {
			return math.NaN(), math.NaN(), 0
		}
		for _, row := range res.Traces {
			for _, tr := range row {
				if tr.Scheme != "proposed-warm" {
					continue
				}
				for _, f := range tr.Frames {
					loss += f.OptSNRDB - f.SelSNRDB
					data += f.DataBits
					genie += f.GenieBits
					n++
				}
			}
		}
	}
	return loss / float64(n), data / genie, n
}
