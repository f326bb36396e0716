// Package round implements the approximate solve tier: LP-relaxation
// randomized rounding with repair, after Rost & Schmid's "Virtual Network
// Embedding Approximations: Leveraging Randomized Rounding"
// (arXiv:1803.03622), adapted to the temporal dimension of the TVNEP.
//
// The tier solves only the LP relaxation of the cΣ-Model with path flows
// (core.FlowPath), its path columns priced to convergence, which reaches
// the arc model's relaxation value over a far smaller LP. It decomposes the
// fractional optimum into weighted integral candidates per request — a
// probability distribution over start times read off the χ⁺ event-mapping
// mass (valid because the start1[r] rows sum χ⁺ to exactly one even when
// x_R is fractional) and a convex combination of substrate paths, the
// relaxation's own path columns weighted by their flow — then samples
// integral solutions with an explicitly seeded generator, repairs capacity
// violations by deferring requests within their flexibility windows, and
// falls back to the full branch-and-bound only when no sample survives
// repair. Every returned rounded solution has already passed the
// independent internal/certify checker with zero violations.
package round

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"time"

	"tvnep/internal/core"
	"tvnep/internal/mip"
	"tvnep/internal/model"
	"tvnep/internal/numtol"
	"tvnep/internal/solution"
	"tvnep/internal/vnet"
)

// DefaultSamples is the number of rounding samples drawn per solve when
// Options.Samples is unset. Sample 0 is always the deterministic
// threshold rounding; the rest are random draws from the LP distribution.
const DefaultSamples = 16

// Numerical floors of the rounding tier. All are named here so the
// floateq analyzer can see them as deliberate, package-local tolerances.
const (
	// xrFloor is the minimum LP acceptance mass at which a request may be
	// rounded up: below it, dividing the edge flows by x_R amplifies the
	// LP feasibility tolerance into flow that was never really there.
	xrFloor = 1e-3
	// weightCutoff drops dust entries from the χ⁺ start distribution.
	weightCutoff = 1e-9
	// stripCutoff is the residual below which a substrate edge is
	// considered drained during path stripping, and the x_R-normalized
	// flow below which a relaxation's path column is dust.
	stripCutoff = 1e-6
	// halfMass is the deterministic sample's acceptance threshold.
	halfMass = 0.5
)

// Options tunes a rounding solve. Direct construction is an internal
// lowering target; API consumers configure rounding through the pkg/tvnep
// facade (tvnep.WithAlgorithm(tvnep.Rounding) plus tvnep.WithSeed).
type Options struct {
	// Seed drives every random choice of the solve. Equal seeds on equal
	// instances give bit-identical solutions; there is no implicit
	// time- or package-level randomness anywhere in this package.
	Seed int64
	// Samples is the number of rounding samples to draw (default
	// DefaultSamples). Sample 0 is deterministic threshold rounding.
	Samples int
	// Objective, LoadFraction, CutMode and DisablePresolve configure the
	// underlying cΣ build exactly as core.BuildOptions does. CutLazy is
	// strengthened to CutStatic: a relaxation separates only the root's
	// cut rounds, and the static build keeps every Constraint-(20) row.
	Objective       core.Objective
	LoadFraction    float64
	CutMode         core.CutMode
	DisablePresolve bool
	// Solve configures the branch-and-bound fallback run when no sample
	// survives repair. The LP relaxation itself takes no limits.
	Solve model.SolveOptions
	// DisableFallback turns the B&B fallback off: when set, a solve whose
	// samples all fail returns no solution instead of an exact run. Used
	// by tests that must observe the pure rounding behaviour.
	DisableFallback bool
}

// Stats reports per-solve statistics of the rounding tier.
type Stats struct {
	// Work is the relaxation's work plus the fallback B&B's when it ran;
	// its Nodes are the fallback's alone, since the relaxation branches
	// nowhere.
	mip.Work
	// LPBound is the LP relaxation optimum — an upper bound on every
	// integral solution (all objectives maximize).
	LPBound float64
	// RootRows and RootCols are the rows and structural columns of the
	// relaxation's root LP, before pricing and separation appended any.
	RootRows, RootCols int
	// Samples is the number of candidate samples drawn, Feasible how many
	// survived repair and certification, and BestSample the index of the
	// winning draw (-1 when the solve fell back or found nothing).
	Samples    int
	Feasible   int
	BestSample int
	// Repairs counts deferral operations and Rejections repair-forced
	// rejections (access control only), summed over all samples.
	Repairs    int
	Rejections int
	// FellBack is set when no sample survived and the exact B&B ran.
	FellBack bool
	// FallbackNodes is the fallback's node count.
	//
	// Deprecated: it equals Work.Nodes; read that instead.
	FallbackNodes int
	// Runtime is the wall-clock time of the whole solve.
	Runtime time.Duration
}

// ErrNoMapping is returned when no fixed node mapping is supplied; like
// the greedy algorithm, rounding decomposes flows between pinned hosts.
var ErrNoMapping = errors.New("round: randomized rounding requires a fixed node mapping")

// Solve runs the randomized-rounding tier on the instance. The returned
// solution is indexed like inst.Reqs and has already passed the
// independent certificate; (nil, stats, nil) means no solution was found
// within the configured limits (for fixed-set objectives this implies the
// instance itself is infeasible when the LP relaxation was). Cancelling
// ctx stops the solve between samples and inside the fallback.
//
//det:entry
func Solve(ctx context.Context, inst *core.Instance, mapping vnet.NodeMapping, opts Options) (sol *solution.Solution, stats Stats, err error) {
	stats.BestSample = -1
	if ctx == nil {
		ctx = context.Background()
	}
	if mapping == nil {
		return nil, stats, ErrNoMapping
	}
	start := time.Now() //lint:allow nondet -- runtime accounting only; never branches the search
	defer func() {
		stats.Runtime = time.Since(start) //lint:allow nondet -- runtime accounting only
		if sol != nil {
			sol.Runtime = stats.Runtime
		}
	}()

	cutMode := opts.CutMode
	if cutMode == core.CutLazy {
		cutMode = core.CutStatic
	}
	b := core.BuildCSigma(inst, core.BuildOptions{
		Objective:       opts.Objective,
		LoadFraction:    opts.LoadFraction,
		FixedMapping:    mapping,
		CutMode:         cutMode,
		FlowMode:        core.FlowPath,
		DisablePresolve: opts.DisablePresolve,
	})
	rel := b.Model.Relax(ctx)
	stats.Work = rel.Work
	stats.RootRows, stats.RootCols = rel.Cuts.RowsAtRoot, rel.Columns.ColsAtRoot
	if !rel.HasSolution {
		// Unless the solve was cancelled, the relaxation is infeasible, so
		// the integral model is too; there is nothing to round and nothing
		// for B&B to find.
		return nil, stats, ctx.Err()
	}
	stats.LPBound = rel.Obj

	cands := decompose(b, rel)
	samples := opts.Samples
	if samples <= 0 {
		samples = DefaultSamples
	}
	embeddableAll := true
	for r := range cands {
		if !cands[r].embeddable {
			embeddableAll = false
			break
		}
	}

	var best *solution.Solution
	bestScore := math.Inf(-1)
	if embeddableAll || !opts.Objective.FixedSet() {
		rng := rand.New(rand.NewSource(opts.Seed))
		var vs violationScan
		for s := 0; s < samples; s++ {
			if err := ctx.Err(); err != nil {
				return nil, stats, err
			}
			cand := drawSample(inst, mapping, cands, opts.Objective, s == 0, rng)
			if cand == nil {
				continue
			}
			stats.Samples++
			rep, rej, ok := vs.repair(inst, cand, opts.Objective)
			stats.Repairs += rep
			stats.Rejections += rej
			if !ok {
				continue
			}
			score, feasible := scoreSample(inst, mapping, cand, opts.Objective, opts.LoadFraction)
			if !feasible {
				continue
			}
			stats.Feasible++
			if score > bestScore {
				best, bestScore = cand, score
				stats.BestSample = s
			}
		}
	}
	if best != nil {
		best.Bound = stats.LPBound
		if gap := (stats.LPBound - bestScore) / (1 + math.Abs(bestScore)); gap > 0 {
			best.Gap = gap
		}
		best.Optimal = best.Gap <= numtol.MIPGapTol
		return best, stats, nil
	}
	if opts.DisableFallback {
		return nil, stats, nil
	}

	// No sample survived repair: fall back to the exact branch-and-bound
	// on the already-built model (Relax never mutates it).
	stats.FellBack = true
	sol, ms := b.Solve(ctx, &opts.Solve)
	stats.Work.Add(ms.Work)
	stats.FallbackNodes = stats.Nodes
	if sol == nil {
		return nil, stats, ctx.Err()
	}
	return sol, stats, nil
}

// MixSeed derives a work-item-local seed from a base seed and any number
// of distinguishing parts (decision index, scenario seed, flex bits, …)
// with a splitmix64-style finalizer, so concurrent work items never share
// a generator stream and per-item seeds stay reproducible.
func MixSeed(base int64, parts ...int64) int64 {
	// The base runs through the same finalizer as every part: mixing it in
	// by a plain xor/add would alias MixSeed(b+d, p) with MixSeed(b, p+d).
	z := splitmix(uint64(base) + 0x9e3779b97f4a7c15)
	for _, p := range parts {
		z = splitmix(z + uint64(p) + 0x9e3779b97f4a7c15)
	}
	return int64(z)
}

// splitmix is the SplitMix64 output finalizer.
func splitmix(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}
