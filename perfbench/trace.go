package main

import (
	"context"
	"math"
	"time"

	"mmwalign/internal/antenna"
	"mmwalign/internal/cmat"
	"mmwalign/internal/covest"
	"mmwalign/internal/meas"
	"mmwalign/internal/obs"
	"mmwalign/internal/rng"
)

// The traced run attributes time to the program's layers by timing
// calls into their public functions from here: a prober wrapper around
// sounding, replays of the solver on the exact windows a run solved
// (with a timing covest.Batcher around the λ-GEMMs), and replays of the
// codebook scorer and the eigensolver at the sizes the run used. Spans
// inside the program are left to the program's own obs.Recorder.

// timingBatcher is a covest.Batcher that executes each λ-GEMM inline,
// bitwise identical to the unbatched path, and counts and times it.
type timingBatcher struct {
	calls int
	dur   time.Duration
}

func (b *timingBatcher) MulInto(dst, a, m *cmat.Matrix) {
	t0 := time.Now()
	dst.MulInto(a, m)
	b.dur += time.Since(t0)
	b.calls++
}

// solverOptions are the estimator settings every workload's solver
// runs with: γ = 0 dB, µ = 1, 25 iterations (the figures', scenario's
// and server's defaults).
func solverOptions(b covest.Batcher) covest.Options {
	return covest.Options{Gamma: 1, Mu: 1, MaxIters: 25, Batcher: b}
}

// solverReplay accumulates a replay of covariance solves.
type solverReplay struct {
	gemm                           timingBatcher
	est                            *covest.Estimator
	solves, iters, eig, backtracks int
	degraded, rankSum              int
	eigWork                        int // Σ eig calls × decomposition size
	eigBySize                      map[int]int
	solveDur, scoreDur             time.Duration
	scoreCalls                     int
	book                           *antenna.Codebook
	scores                         []float64
	topk                           []int
}

func newSolverReplay(book *antenna.Codebook) *solverReplay {
	r := &solverReplay{eigBySize: map[int]int{}, book: book, scores: make([]float64, book.Size())}
	est, err := covest.NewEstimator(book.Array().Elements(), solverOptions(&r.gemm))
	if err != nil {
		panic(err) // fixed, valid options
	}
	r.est = est
	return r
}

// solve replays one estimation and the codebook scoring that follows
// it (the server's Top-8 ranking; the strategies' beam selection).
func (r *solverReplay) solve(window []covest.Observation, warm *cmat.Matrix) (*cmat.Matrix, covest.Stats, error) {
	t0 := time.Now()
	q, st, err := r.est.EstimateContext(context.Background(), window, warm)
	r.solveDur += time.Since(t0)
	r.solves++
	r.iters += st.Iters
	r.eig += st.EigenDecomps
	r.backtracks += st.Backtracks
	r.rankSum += st.Rank
	r.eigWork += st.EigenDecomps * st.SubspaceDim
	r.eigBySize[st.SubspaceDim] += st.EigenDecomps
	if st.Diagnostics.Degraded() {
		r.degraded++
	}
	if err == nil && q != nil {
		t1 := time.Now()
		r.book.QuadFormScoresInto(q, r.scores)
		r.topk = r.book.TopKQuadFormInto(q, 8, r.topk)
		r.scoreDur += time.Since(t1)
		r.scoreCalls++
	}
	return q, st, err
}

// eigPerCall times one Hermitian eigendecomposition of a dense random
// n×n Hermitian matrix, the shape of a prox-step input (iterate minus
// a full-rank gradient step).
func eigPerCall(n int) time.Duration {
	src := rng.New(int64(n))
	m := cmat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, src.ComplexNormal(1))
		}
	}
	m = m.Hermitianize()
	ws := cmat.NewEigenWorkspace(n)
	reps := 3 + 2000/(n*n+1)
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := ws.EigHermitian(m); err != nil {
			panic(err) // a Hermitian test matrix always decomposes
		}
	}
	return time.Since(t0) / time.Duration(reps)
}

// computedEigTime is Σ over decomposition sizes of calls × per-call
// time measured here: a computed, not observed, figure.
func computedEigTime(bySize map[int]int) time.Duration {
	var total time.Duration
	for n, calls := range bySize {
		if n > 0 {
			total += time.Duration(calls) * eigPerCall(n)
		}
	}
	return total
}

// addSolverLayers reports the covest and cmat layer metrics of a
// replay. eigCalls/solves may come from the program's own recorder
// (exact) while rank and GEMM figures come from the replay.
func addSolverLayers(rep *report, r *solverReplay, solveMS float64, note string) {
	rep.add("covest.solves", "count", float64(r.solves), r.solves, note)
	rep.add("covest.iters_per_solve", "count", ratio(float64(r.iters), float64(r.solves)), r.solves, note)
	rep.add("covest.eig_per_solve", "count", ratio(float64(r.eig), float64(r.solves)), r.solves, note)
	rep.add("covest.backtracks_per_solve", "count", ratio(float64(r.backtracks), float64(r.solves)), r.solves, note)
	rep.add("covest.solve_ms", "ms", solveMS, r.solves, "mean per solve")
	rep.add("covest.rank_mean", "count", ratio(float64(r.rankSum), float64(r.solves)), r.solves, "replay")
	rep.add("covest.kept_frac", "frac", ratio(float64(r.rankSum), float64(r.eigWork)), r.eig, "replay: Σ kept rank / Σ eig calls × size")
	rep.add("covest.degraded", "count", float64(r.degraded), r.solves, note)
	rep.add("cmat.eig_calls", "count", float64(r.eig), r.solves, note)
	rep.add("cmat.eig_ms", "ms", ms(computedEigTime(r.eigBySize)), r.eig, "computed: calls × per-call time at each size")
	rep.add("cmat.gemm_calls", "count", float64(r.gemm.calls), r.solves, "replay: λ-GEMMs through a timing Batcher")
	rep.add("cmat.gemm_ms", "ms", ms(r.gemm.dur), r.gemm.calls, "replay: timed")
	rep.add("antenna.score_us", "us", ratio(float64(r.scoreDur.Microseconds()), float64(r.scoreCalls)), r.scoreCalls, "replay: scores + top-8 per call")
}

// timingProber wraps a sounder and times each measurement.
type timingProber struct {
	meas.Prober
	calls int
	dur   time.Duration
}

func (p *timingProber) Measure(txBeam, rxBeam int, u, v cmat.Vector) meas.Measurement {
	t0 := time.Now()
	m := p.Prober.Measure(txBeam, rxBeam, u, v)
	p.dur += time.Since(t0)
	p.calls++
	return m
}

// captureProber records the receive beam and energy of every
// measurement, so the traced run can replay the solver on the exact
// windows the strategy estimated from.
type captureProber struct {
	meas.Prober
	obs []covest.Observation
}

func (p *captureProber) Measure(txBeam, rxBeam int, u, v cmat.Vector) meas.Measurement {
	m := p.Prober.Measure(txBeam, rxBeam, u, v)
	p.obs = append(p.obs, covest.Observation{V: v, Energy: m.Energy})
	return m
}

// replayProposed re-runs the estimation schedule of the proposed
// strategy (align.ProposedStrategy with J = 8, window 96) on a cell's
// captured measurements: a solve after the 7th measurement of every
// TX slot, on the most recent ≤96 observations, warm-started from the
// previous estimate.
func replayProposed(r *solverReplay, all []covest.Observation) {
	const j, window = 8, 96
	var qhat *cmat.Matrix
	for n := j - 1; n <= len(all); n += j {
		win := all[:n]
		if len(win) > window {
			win = win[len(win)-window:]
		}
		q, st, err := r.solve(win, qhat)
		if err == nil && !math.IsNaN(st.Objective) && !math.IsInf(st.Objective, 0) {
			qhat = q
		}
	}
}

// phaseMS returns a recorder phase's total in milliseconds and count.
func phaseMS(snap obs.Snapshot, name string) (float64, int) {
	for _, p := range snap.Phases {
		if p.Name == name {
			return float64(p.TotalNS) / 1e6, int(p.Count)
		}
	}
	return 0, 0
}
