// Package admit implements Algorithm cΣ_A^G of Section V twice over with
// one engine: online, as a long-running service that receives VNet requests
// one at a time and decides, for each arrival, whether to embed it; and
// offline, as Greedy, which replays a whole instance through the same engine
// in order of earliest start. Every decision solves a small cΣ model in
// which all previously accepted requests keep their committed schedules
// (Constraint 24) and only the arriving request is free, under objective
// (21): max T·x_R + (T − t⁻). Online, the committed link flows are pinned as
// well (χ bounds — the solve sees the true residual capacity, it cannot
// reroute committed traffic). Greedy lets every decision re-route them, the
// paper's "link allocations are re-optimized in every iteration".
//
// The engine is built around three cost tiers per admission:
//
//  1. a residual-capacity window precheck that rejects, without a model,
//     a request whose hosts stay full: the committed node load, each
//     committed schedule shrunk by a margin δ that covers the model's
//     tolerances, leaves no free stretch of its duration anywhere in its
//     window (on an empty substrate: its own demand exceeds a capacity),
//  2. an LP fast tier that solves the root relaxation through a raw
//     lp.Instance (keeping the basis and LU factors) and decides
//     immediately when the relaxation is integral, or when its bound
//     rules out acceptance: every acceptance scores at least 2T − t^e
//     under objective (21), so a lower root bound proves the rejection,
//  3. a full branch-and-bound solve otherwise, which starts from the
//     tier-2 root: it clones the solved instance and adopts its root
//     relaxation, basis and factors instead of compiling and solving the
//     same LP a second time.
//
// After each decision the engine pins the outcome into the still-hot LP
// instance with lp.Instance.AppendRow (x_R and t⁺ band rows) and re-solves
// with the captured basis/factors (lp.Options.WarmBasis/WarmFactors) — the
// cutting-plane hot-restart machinery reused as a per-admission commitment
// certificate, giving an LP bound on the committed system without a single
// refactorization in the common case.
//
// Decisions are deterministic: admissions are serialized, the per-decision
// branch-and-bound search is deterministic (internal/mip), and the default
// budget is a node limit rather than a time limit, so replaying the same
// trace yields the same accept/reject sequence regardless of machine speed.
package admit

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"tvnep/internal/certify"
	"tvnep/internal/core"
	"tvnep/internal/linalg/sparselu"
	"tvnep/internal/lp"
	"tvnep/internal/model"
	"tvnep/internal/numtol"
	"tvnep/internal/round"
	"tvnep/internal/solution"
	"tvnep/internal/stats"
	"tvnep/internal/substrate"
	"tvnep/internal/vnet"
)

// DefaultNodeLimit bounds the branch-and-bound search of one admission when
// the caller sets neither a node nor a time limit. A node limit (unlike a
// time limit) keeps the decision sequence a pure function of the trace.
const DefaultNodeLimit = 20000

// Tier names which cost tier produced a decision.
type Tier string

const (
	// TierPrecheck: rejected by the residual-capacity window precheck
	// (precheckRejects), no model and no solve.
	TierPrecheck Tier = "precheck"
	// TierLP: decided by the root LP relaxation, no branch and bound: an
	// integral relaxation, or a bound that rules out acceptance.
	TierLP Tier = "lp"
	// TierRounding: accepted by rounding the fractional LP relaxation
	// (Config.Rounding; only accepts — rejections stay with the MIP tier).
	TierRounding Tier = "rounding"
	// TierMIP: decided by a full branch-and-bound solve.
	TierMIP Tier = "mip"
)

// roundingSamples is the number of random flow samples the rounding tier
// tries per admission after the deterministic path mix.
const roundingSamples = 8

// workspaceSlots is how many idle simplex workspaces, and idle clone shells,
// an engine keeps between decisions. A decision's search solves on one
// workspace and one clone throughout: the clone borrows the decision
// instance's workspace and evaluates every relaxation on it. Every idle
// slot is retained heap.
const workspaceSlots = 2

// Config configures an Engine.
type Config struct {
	// Sub is the substrate network shared by all admissions.
	Sub *substrate.Network
	// Horizon is the planning horizon T; every request window must fit it.
	Horizon float64
	// Solve configures each per-decision solve. A zero TimeLimit and
	// NodeLimit default to NodeLimit = DefaultNodeLimit; setting a TimeLimit
	// trades replay determinism for a wall-clock bound.
	Solve model.SolveOptions
	// CutMode selects how Constraint-(20) cuts reach the per-decision cΣ
	// models (default static).
	CutMode core.CutMode
	// DisablePresolve turns the activity-interval state-space reduction off
	// in the per-decision models (ablations).
	DisablePresolve bool
	// Rounding enables the randomized-rounding fast tier between the LP
	// relaxation and the branch-and-bound: when the relaxation is optimal
	// but fractional, the engine first tries to round the arriving request
	// into the committed system (internal/round.AdmitSample). The tier only
	// ever accepts; anything it cannot place falls through to the exact
	// solve, so rejections keep their branch-and-bound justification.
	Rounding bool
	// Seed drives the rounding tier's per-decision sampling (ignored when
	// Rounding is off). Decisions derive their own seeds from it via
	// round.MixSeed, so replaying a trace with the same seed is
	// bit-identical.
	Seed int64
	// Certify re-verifies every accepting decision with the independent
	// solution checker before committing it; a violation downgrades the
	// decision to a rejection (and is reported in Decision.CertErr). The
	// per-decision check is certify.Extension over the committed requests
	// the acceptance overlaps: the arriving request's own Definition 2.1
	// checks, and capacity in the event intervals it runs over. Its
	// precondition, a certified committed system, holds by induction:
	// re-optimized flows are committed only after the whole-system
	// certify.Solution, and /v1/solution certifies Snapshot whole.
	Certify bool
	// ReoptEvery triggers a batched re-optimization of the committed link
	// allocations after every n-th acceptance (0 → never). Re-optimization
	// never changes past accept/reject decisions or schedules, only flows.
	ReoptEvery int
}

// Decision is the engine's answer to one admission request.
type Decision struct {
	// Index is the arrival index of the request (0-based).
	Index int
	// Name echoes the request name.
	Name string
	// Accepted reports whether the request was embedded.
	Accepted bool
	// Start and End are the committed schedule when accepted; for rejected
	// requests they are the Definition-2.1 fixed times [t^s, t^s+d].
	Start, End float64
	// Hosts and Flows are the committed embedding when accepted (Hosts
	// echoes the pinned mapping; Flows are the splittable link allocations).
	Hosts []int
	Flows [][]float64
	// Stats carries the per-decision solver statistics.
	Stats DecisionStats
	// CertErr records a certification failure that downgraded an accepting
	// solve to a rejection (nil otherwise).
	CertErr error
}

// DecisionStats are the per-decision solver statistics.
type DecisionStats struct {
	// Tier names the cost tier that produced the decision.
	Tier Tier
	// Latency is the wall-clock time of the whole admission.
	Latency time.Duration
	// LPIterations counts simplex iterations across all solves of the
	// admission: fast tier, branch-and-bound search (whose root is the fast
	// tier's, counted once) and commitment restart.
	LPIterations int
	// Nodes counts branch-and-bound nodes (0 for precheck/LP decisions).
	Nodes int
	// WarmUsed reports that the commitment hot-restart ran warm (dual
	// simplex from the captured basis, no cold fallback).
	WarmUsed bool
	// BasisExtended reports that the hot-restart extended the LU factors
	// over the appended pin rows (sparselu.ExtendInto) instead of
	// refactorizing.
	BasisExtended bool
	// PinnedBound is the LP optimum of the decision-pinned model produced
	// by the commitment hot-restart (NaN when the restart was skipped).
	PinnedBound float64
	// ActiveSet is the number of committed requests included in the
	// per-decision model after temporal pruning.
	ActiveSet int
}

// Stats aggregates engine statistics across all decisions.
type Stats struct {
	Decisions     int
	Accepted      int
	Rejected      int
	PrecheckTier  int
	LPTier        int
	RoundingTier  int
	MIPTier       int
	BoundRejects  int // LP-tier rejections proved by the root bound (boundRejects)
	CertFailures  int
	Reopts        int
	TotalLPIters  int
	TotalNodes    int
	WarmAttempts  int
	WarmUsed      int
	BasisExtended int
	// LatencyP50 and LatencyP99 summarize per-decision latency.
	LatencyP50, LatencyP99 time.Duration
}

// AcceptRate returns the fraction of decisions that accepted (0 for none).
func (s Stats) AcceptRate() float64 {
	if s.Decisions == 0 {
		return 0
	}
	return float64(s.Accepted) / float64(s.Decisions)
}

// WarmRate returns the fraction of commitment restarts that ran warm.
func (s Stats) WarmRate() float64 {
	if s.WarmAttempts == 0 {
		return 0
	}
	return float64(s.WarmUsed) / float64(s.WarmAttempts)
}

// record is the engine's log entry for one decided request.
type record struct {
	req     *vnet.Request // original window (not pinned)
	mapping []int
	decided Decision
}

// Engine is the online admission engine. All methods are safe for
// concurrent use; admissions are serialized internally, which is what makes
// the accept/reject sequence a pure function of the submission order.
type Engine struct {
	mu         sync.Mutex
	cfg        Config
	log        []*record // every decided request, in arrival order
	active     []*record // accepted subset, in arrival order
	stats      Stats
	latencies  []float64 // seconds, one per decision
	sinceReopt int

	// Memory the decisions recycle instead of allocating: the stash every
	// decision's instances draw from and return to (idle simplex
	// workspaces, compiled LP storage, clone shells, and the factor
	// buffers, bases and solution vectors of finished solves), kept for the
	// engine's lifetime; the buffer holding the fast tier's root
	// factorization, which the MIP tier's root and the commitment restart
	// read and which never enters the stash; and the last decision's cΣ
	// model and objective, which the next decision rebuilds in place.
	// Nothing a decision returns or the engine commits points into this
	// storage: Extract and the acceptance copy out.
	spares  *lp.Workspaces
	rootFac *sparselu.Factors
	built   *core.Built
	obj     model.LinExpr

	// Per-decision scratch: the committed requests overlapping the arrival
	// window, and the precheck's load events and blocked starts.
	overlap []*record
	events  []loadEvent
	forbid  []span

	// reroute lets every decision re-route the committed link flows: the
	// subproblem holds every accepted request, their flows are free, and an
	// acceptance commits the re-routed flows. Only Greedy sets it.
	reroute bool

	// certified, when set, sees every per-decision certificate with the
	// acceptance it judged, before the verdict is acted on. Tests hold the
	// extension certificate to the whole-system reference through it.
	certified func(rec *record, acc *acceptance, rep *certify.Report)
}

// New validates the configuration and returns a fresh engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Sub == nil {
		return nil, errors.New("admit: nil substrate")
	}
	if err := cfg.Sub.Validate(); err != nil {
		return nil, fmt.Errorf("admit: %w", err)
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("admit: nonpositive horizon %v", cfg.Horizon)
	}
	if cfg.Solve.TimeLimit == 0 && cfg.Solve.NodeLimit == 0 {
		cfg.Solve.NodeLimit = DefaultNodeLimit
	}
	return &Engine{cfg: cfg, spares: lp.NewWorkspaces(workspaceSlots), rootFac: &sparselu.Factors{}}, nil
}

// Horizon returns the engine's planning horizon T.
func (e *Engine) Horizon() float64 { return e.cfg.Horizon }

// validate checks one arriving request against the engine configuration.
func (e *Engine) validate(req *vnet.Request, mapping []int) error {
	if req == nil {
		return errors.New("admit: nil request")
	}
	if err := req.Validate(); err != nil {
		return fmt.Errorf("admit: %w", err)
	}
	if req.Latest > e.cfg.Horizon+numtol.WindowTol {
		return fmt.Errorf("admit: request %s window [%v,%v] exceeds horizon %v",
			req.Name, req.Earliest, req.Latest, e.cfg.Horizon)
	}
	if len(mapping) != req.G.N {
		return fmt.Errorf("admit: request %s: mapping covers %d of %d virtual nodes",
			req.Name, len(mapping), req.G.N)
	}
	for v, s := range mapping {
		if s < 0 || s >= e.cfg.Sub.NumNodes() {
			return fmt.Errorf("admit: request %s: virtual node %d mapped to invalid substrate node %d",
				req.Name, v, s)
		}
	}
	return nil
}

// precheckRejects reports whether committed node load alone proves the
// arriving request rejected, before any model is built. committed are the
// accepted requests whose schedules overlap the arrival window (the set
// subproblem pins). For every substrate host s of the request it sweeps the
// committed node load on s, each committed schedule [start, end] shrunk to
// the open interval (start + δ, end − δ) with δ = T·MIPIntTol + TimeTol, and
// marks the times where that load plus D_s, the request's demand
// aggregated on s under the pinned mapping, exceeds NodeCap[s] + CapTol. A
// start t is blocked when (t, t+d) meets a marked time on some host; the
// request is rejected when every start in [t^s, t^e − d] is blocked. With no
// committed load this is the empty-substrate test: D_s alone exceeds a
// capacity.
//
// Soundness: no acceptance the cΣ model can return is rejected. In the
// model, the requests running at a time τ are all active in the state
// opened by the latest of their starts, so every committed request running
// at a time inside the arriving request's schedule shares that state's
// capacity row (9) with it. An acceptance therefore keeps load + D_s within
// NodeCap[s] at every time its schedule covers, up to the tolerances the
// search allows. A χ partial sum within MIPIntTol of integral moves t⁺ or
// t⁻ off its event time by at most T·MIPIntTol through the big-M rows
// (14)–(17), whose M is T, and TimeTol covers the LP's feasibility noise on
// the time rows, so an accepted schedule runs less than δ into a committed
// one the model keeps it apart from. CapTol, the slack the certifier
// allows on every capacity, covers the capacity rows. Link capacities are
// left out: that can only pass on a request the model then rejects.
// TestPrecheckRejectionsProved re-proves every precheck rejection of two
// replayed traces by brute force, and TestRejectionBoundKeepsDecisions
// holds their 8,000 decisions to digests recorded before this test
// existed.
func (e *Engine) precheckRejects(req *vnet.Request, mapping []int, committed []*record) bool {
	delta := e.cfg.Horizon*numtol.MIPIntTol + numtol.TimeTol
	forbid := e.forbid[:0]
	for v, s := range mapping {
		if slices.Contains(mapping[:v], s) {
			continue // host already swept
		}
		demand := 0.0
		for w, h := range mapping {
			if h == s {
				demand += req.NodeDemand[w]
			}
		}
		capacity := e.cfg.Sub.NodeCap[s] + numtol.CapTol
		if demand > capacity {
			return true
		}
		events := e.events[:0]
		for _, c := range committed {
			load := 0.0
			for w, h := range c.mapping {
				if h == s {
					load += c.req.NodeDemand[w]
				}
			}
			if lo, hi := c.decided.Start+delta, c.decided.End-delta; load > 0 && lo < hi {
				events = append(events, loadEvent{lo, load}, loadEvent{hi, -load})
			}
		}
		slices.SortFunc(events, func(a, b loadEvent) int { return cmp.Compare(a.t, b.t) })
		// The load is constant between consecutive event times; a start t
		// is blocked by a marked stretch (lo, hi) when t ∈ (lo − d, hi).
		load := 0.0
		for i := 0; i+1 < len(events); i++ {
			load += events[i].load
			if lo, hi := events[i].t, events[i+1].t; lo < hi && load+demand > capacity {
				forbid = append(forbid, span{lo - req.Duration, hi})
			}
		}
		e.events = events
	}
	e.forbid = forbid
	// Walk the blocked starts upward from t^s: t moves to the end of every
	// blocked stretch that holds it, and stops at the first free start. A
	// t^s that nothing blocks is never rejected, even in a window that
	// validate lets fall short of d by WindowTol.
	slices.SortFunc(forbid, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	t := req.Earliest
	for _, f := range forbid {
		if f.lo >= t {
			break
		}
		t = math.Max(t, f.hi)
	}
	return t > req.Earliest && t > req.LatestStart()
}

// loadEvent is a step of one host's committed node load at time t: the
// load joins when positive and leaves when negative.
type loadEvent struct{ t, load float64 }

// span is the open interval (lo, hi).
type span struct{ lo, hi float64 }

// overlaps reports whether the committed schedule [start,end] can interact
// with any schedule inside the arriving request's window [earliest,latest].
// Capacities are enforced pointwise in time, so requests whose committed
// intervals lie strictly outside the window can never constrain the new
// request; the tolerance errs on the inclusive side (a false "overlap" only
// grows the model, never changes the optimum).
func overlaps(start, end, earliest, latest float64) bool {
	return end > earliest-numtol.EventCoincide && start < latest+numtol.EventCoincide
}

// Admit decides one arriving request. mapping pins every virtual node to a
// substrate node (the engine, like the paper's evaluation, requires a-priori
// node mappings). The call blocks while earlier admissions are in flight;
// decisions are made strictly in call order under the engine's lock.
//
//det:entry
func (e *Engine) Admit(ctx context.Context, req *vnet.Request, mapping []int) (Decision, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.mu.Lock()
	defer e.mu.Unlock()

	began := time.Now() //lint:allow nondet -- admission latency accounting; decisions never read the clock
	if err := e.validate(req, mapping); err != nil {
		return Decision{}, err
	}

	// Private copy: the engine retains the request beyond the call.
	cp := *req
	rec := &record{req: &cp, mapping: append([]int(nil), mapping...)}
	d := Decision{Index: len(e.log), Name: cp.Name}
	d.Stats.PinnedBound = math.NaN()

	committed := e.overlapping(&cp)
	if e.precheckRejects(&cp, rec.mapping, committed) {
		d.Stats.Tier = TierPrecheck
		e.finishReject(rec, &d, began)
		return d, nil
	}

	dec, err := e.decide(ctx, rec, committed, &d)
	if err != nil {
		return Decision{}, err
	}
	if dec != nil && e.cfg.Certify {
		rep := e.certifyDecision(rec, dec)
		if e.certified != nil {
			e.certified(rec, dec, rep)
		}
		if cerr := rep.Err(); cerr != nil {
			d.CertErr = cerr
			e.stats.CertFailures++
			dec = nil // downgrade to rejection; nothing is committed
		}
	}
	if dec == nil {
		e.finishReject(rec, &d, began)
		return d, nil
	}

	// Commit, with the committed flows a re-routing decision moved.
	for i, flows := range dec.rerouted {
		committed[i].decided.Flows = flows
	}
	d.Accepted = true
	d.Start, d.End = dec.start, dec.end
	d.Hosts = dec.hosts
	d.Flows = dec.flows
	e.log = append(e.log, rec)
	e.active = append(e.active, rec)
	e.stats.Decisions++
	e.stats.Accepted++
	e.observe(&d, began)
	rec.decided = d

	e.sinceReopt++
	if e.cfg.ReoptEvery > 0 && e.sinceReopt >= e.cfg.ReoptEvery {
		e.sinceReopt = 0
		e.reoptimize(ctx)
	}
	return d, nil
}

// acceptance is the embedding a deciding solve produced for the arriving
// request.
type acceptance struct {
	start, end float64
	hosts      []int
	flows      [][]float64
	// rerouted holds the solve's flows of the committed requests in the
	// subproblem, in its order, when the engine re-routes them (nil
	// otherwise).
	rerouted [][][]float64
}

// decide runs the LP fast tier and, when inconclusive, the full
// branch-and-bound solve over rec and the committed requests overlapping
// its window. It returns nil when the request is rejected.
func (e *Engine) decide(ctx context.Context, rec *record, committed []*record, d *Decision) (*acceptance, error) {
	b, newIdx := e.model(rec, committed)
	d.Stats.ActiveSet = newIdx

	// LP fast tier: solve the root relaxation through a raw instance so the
	// basis and LU factors survive for the MIP tier's root and the
	// commitment hot-restart below. The instance is compiled into storage
	// recycled through the engine's spares, and so are its workspaces. The
	// model is kept for the next decision only while the spares keep the
	// instance storage compiled from it: both are as large as the model.
	inst := e.spares.Compile(b.Model.LP())
	var lpRes lp.Result
	defer func() {
		// Nothing the decision returns or commits points into the root
		// relaxation: Extract and the acceptance copy out. Its vectors and
		// basis go back to the spares; its factors are rootFac.
		e.spares.Reuse(lp.Result{X: lpRes.X, Duals: lpRes.Duals, Basis: lpRes.Basis})
		if !inst.Recycle() {
			e.built = nil
		}
	}()
	lpRes = inst.Solve(&lp.Options{Context: ctx})
	inst.CaptureFactors(&lpRes, e.rootFac)
	d.Stats.LPIterations += lpRes.Iterations

	if boundRejects(lpRes, 2*e.cfg.Horizon-rec.req.Latest) {
		d.Stats.Tier = TierLP
		e.stats.BoundRejects++
		e.commitRestart(inst, b, lpRes, nil, newIdx, d)
		return nil, nil
	}
	var sol *solution.Solution
	if lpRes.Status == lp.StatusOptimal && integral(b.Model, lpRes.X) {
		d.Stats.Tier = TierLP
		sol = b.Extract(b.Model.SolutionFromLP(lpRes))
	} else {
		if e.cfg.Rounding && lpRes.Status == lp.StatusOptimal {
			// Rounding fast tier: try to place the arriving request by
			// rounding the fractional relaxation before paying for a full
			// branch-and-bound. Accept-only; the per-decision seed is
			// derived from the arrival index so traces replay identically.
			if rsol := round.AdmitSample(b, b.Model.SolutionFromLP(lpRes), newIdx,
				round.MixSeed(e.cfg.Seed, int64(len(e.log))), roundingSamples); rsol != nil {
				d.Stats.Tier = TierRounding
				sol = rsol
			}
		}
		if sol == nil {
			// The search starts from the fast tier's root: it clones inst
			// (leaving it intact for the commitment restart) and adopts
			// lpRes instead of solving the same relaxation again.
			d.Stats.Tier = TierMIP
			ms := b.Model.OptimizeFrom(ctx, &e.cfg.Solve, inst, lpRes)
			d.Stats.LPIterations += ms.LPIterations
			d.Stats.Nodes += ms.Nodes
			if ms.Status == model.StatusCancelled {
				return nil, ctx.Err()
			}
			sol = b.Extract(ms)
		}
	}
	if sol == nil || !sol.Accepted[newIdx] {
		e.commitRestart(inst, b, lpRes, nil, newIdx, d)
		return nil, nil
	}
	acc := &acceptance{
		start: sol.Start[newIdx],
		end:   sol.End[newIdx],
		hosts: sol.Hosts[newIdx],
		flows: sol.Flows[newIdx],
	}
	if e.reroute {
		acc.rerouted = sol.Flows[:newIdx]
	}
	e.commitRestart(inst, b, lpRes, acc, newIdx, d)
	return acc, nil
}

// model rebuilds the per-decision cΣ model of rec's admission into the
// engine's recycled model storage: the committed requests (overlapping's
// set) as committedSystem lays them out, with their flows pinned unless the
// engine re-routes them, plus the arriving request free and last, under
// objective (21). It returns the model and the arriving request's index.
func (e *Engine) model(rec *record, committed []*record) (*core.Built, int) {
	inst, opts := e.committedSystem(committed)
	newIdx := len(committed)
	inst.Reqs = append(inst.Reqs, rec.req)
	opts.FixedMapping = append(opts.FixedMapping, rec.mapping)
	opts.ForceAccept = append(opts.ForceAccept, false)
	b := core.RebuildCSigma(e.built, inst, opts)
	e.built = b
	// Pin the committed flows, not just the committed schedules: the solve
	// has no authority to reroute traffic the engine already committed, so
	// letting the χ variables of accepted requests float would admit new
	// requests against a hypothetical rerouting that never happens — the
	// union of per-decision flows could then overload links. The ±FlowCutoff
	// band absorbs the quantization applied when the flows were extracted.
	// A re-routing engine leaves them free and commits what the solve picks.
	for i := 0; i < len(committed) && !e.reroute; i++ {
		for lv, row := range committed[i].decided.Flows {
			for ls, f := range row {
				b.Model.SetBounds(b.XE[i][lv][ls], math.Max(f-numtol.FlowCutoff, 0), f+numtol.FlowCutoff)
			}
		}
	}
	// Objective (21): max T·x_R(new) + (T − t⁻_new).
	T := e.cfg.Horizon
	b.Model.SetObjective(e.obj.Reset().
		Add(T, b.XR[newIdx]).
		Add(-1, b.TMinus[newIdx]).
		AddConst(T))
	return b, newIdx
}

// overlapping returns the committed requests whose schedules overlap req's
// window, in arrival order, in storage the next decision reuses. A
// re-routing engine returns every committed request: once committed flows
// can move, a request outside the window can still make room on a link for
// one inside it, so the pruning is unsound.
func (e *Engine) overlapping(req *vnet.Request) []*record {
	e.overlap = e.overlap[:0]
	for _, a := range e.active {
		if e.reroute || overlaps(a.decided.Start, a.decided.End, req.Earliest, req.Latest) {
			e.overlap = append(e.overlap, a)
		}
	}
	return e.overlap
}

// committedSystem lays out committed requests as a cΣ instance, in order:
// each window pinned to its committed schedule and each request
// force-accepted under the access-control objective, which the per-decision
// model replaces by objective (21).
func (e *Engine) committedSystem(committed []*record) (*core.Instance, core.BuildOptions) {
	var reqs []*vnet.Request
	var mapping vnet.NodeMapping
	var force []bool
	for _, a := range committed {
		pin := *a.req
		pin.Earliest = a.decided.Start
		pin.Latest = a.decided.End
		reqs = append(reqs, &pin)
		mapping = append(mapping, a.mapping)
		force = append(force, true)
	}
	return &core.Instance{Sub: e.cfg.Sub, Reqs: reqs, Horizon: e.cfg.Horizon}, core.BuildOptions{
		Objective:       core.AccessControl,
		FixedMapping:    mapping,
		CutMode:         e.cfg.CutMode,
		DisablePresolve: e.cfg.DisablePresolve,
		ForceAccept:     force,
	}
}

// boundRejects reports whether the root relaxation proves the arriving
// request rejected. Objective (21) scores an acceptance T·x_R + (T − t⁻)
// with x_R = 1 and t⁻ ≤ t^e, so every acceptance scores at least
// tau = 2T − t^e, and an optimal root bound below tau leaves none. The
// relative margin ObjTol absorbs the LP's own roundoff; it is wider than
// MIPIntTol, so an incumbent whose x_R falls a MIPIntTol short of 1, which
// the search would accept, still scores above it.
func boundRejects(root lp.Result, tau float64) bool {
	return root.Status == lp.StatusOptimal && root.Obj < tau-numtol.ObjTol*math.Abs(tau)
}

// integral reports whether the LP point is integral on every integer column.
func integral(m *model.Model, x []float64) bool {
	for j, isInt := range m.IntegerMask() {
		if !isInt {
			continue
		}
		if frac := math.Abs(x[j] - math.Round(x[j])); frac > numtol.MIPIntTol {
			return false
		}
	}
	return true
}

// commitRestart pins the decision into the already-solved LP instance with
// AppendRow band rows and re-solves warm from the captured basis and LU
// factors — the lazy-cut hot-restart machinery reused to certify the
// committed system with an LP bound. acc == nil pins a rejection.
func (e *Engine) commitRestart(inst *lp.Instance, b *core.Built, lpRes lp.Result, acc *acceptance, newIdx int, d *Decision) {
	if lpRes.Basis == nil {
		return // fast-tier LP did not finish; nothing to restart from
	}
	xr := int32(b.XR[newIdx].Index())
	if acc != nil {
		inst.AppendRow([]int32{xr}, []float64{1}, 0.5, lp.Inf)
		tp := int32(b.TPlus[newIdx].Index())
		inst.AppendRow([]int32{tp}, []float64{1}, acc.start-numtol.TimeTol, acc.start+numtol.TimeTol)
	} else {
		inst.AppendRow([]int32{xr}, []float64{1}, math.Inf(-1), 0.5)
	}
	e.stats.WarmAttempts++
	res := inst.Solve(&lp.Options{WarmBasis: lpRes.Basis, WarmFactors: lpRes.Factors})
	d.Stats.LPIterations += res.Iterations
	d.Stats.WarmUsed = res.WarmUsed
	d.Stats.BasisExtended = res.BasisExtended
	if res.WarmUsed {
		e.stats.WarmUsed++
	}
	if res.BasisExtended {
		e.stats.BasisExtended++
	}
	if res.Status == lp.StatusOptimal {
		d.Stats.PinnedBound = res.Obj
	}
	e.spares.Reuse(res)
}

// certifyDecision certifies an accepting decision before it is committed,
// as an extension of the committed system: the arriving embedding is laid
// over the committed requests whose schedules overlap it, in arrival order,
// and certify.Extension judges the arriving request's own Definition 2.1
// checks and capacity in the intervals it runs over. The committed system
// meets Extension's precondition: every acceptance before this one passed
// this certificate, and reoptimize commits new flows only after the
// whole-system certificate.
func (e *Engine) certifyDecision(rec *record, acc *acceptance) *certify.Report {
	var reqs []*vnet.Request
	var mapping vnet.NodeMapping
	sol := &solution.Solution{}
	add := func(r *vnet.Request, m []int, start, end float64, hosts []int, flows [][]float64) {
		reqs = append(reqs, r)
		mapping = append(mapping, m)
		sol.Accepted = append(sol.Accepted, true)
		sol.Start = append(sol.Start, start)
		sol.End = append(sol.End, end)
		sol.Hosts = append(sol.Hosts, hosts)
		sol.Flows = append(sol.Flows, flows)
	}
	for _, a := range e.active {
		if overlaps(a.decided.Start, a.decided.End, acc.start, acc.end) {
			add(a.req, a.mapping, a.decided.Start, a.decided.End, a.decided.Hosts, a.decided.Flows)
		}
	}
	add(rec.req, rec.mapping, acc.start, acc.end, acc.hosts, acc.flows)
	inst := &core.Instance{Sub: e.cfg.Sub, Reqs: reqs, Horizon: e.cfg.Horizon}
	return certify.Extension(inst, sol, len(reqs)-1, mapping)
}

// finishReject records a rejecting decision with the Definition-2.1 fixed
// times [t^s, t^s + d].
func (e *Engine) finishReject(rec *record, d *Decision, began time.Time) {
	d.Accepted = false
	d.Start = rec.req.Earliest
	d.End = rec.req.EarliestEnd()
	e.log = append(e.log, rec)
	e.stats.Decisions++
	e.stats.Rejected++
	e.observe(d, began)
	rec.decided = *d
}

// observe folds one decision into the aggregate statistics.
func (e *Engine) observe(d *Decision, began time.Time) {
	d.Stats.Latency = time.Since(began) //lint:allow nondet -- latency accounting only
	switch d.Stats.Tier {
	case TierPrecheck:
		e.stats.PrecheckTier++
	case TierLP:
		e.stats.LPTier++
	case TierRounding:
		e.stats.RoundingTier++
	case TierMIP:
		e.stats.MIPTier++
	}
	e.stats.TotalLPIters += d.Stats.LPIterations
	e.stats.TotalNodes += d.Stats.Nodes
	e.latencies = append(e.latencies, d.Stats.Latency.Seconds())
}

// reoptimize rebuilds the committed system (schedules and acceptances
// pinned) and re-solves it to rebalance the splittable link allocations —
// the batched re-optimization window. Decisions and schedules never change;
// only flows (and hosts when mappings were free, which they are not here)
// are refreshed, and only when the refreshed system passes certification.
func (e *Engine) reoptimize(ctx context.Context) {
	if len(e.active) == 0 {
		return
	}
	inst, opts := e.committedSystem(e.active)
	b := core.BuildCSigma(inst, opts)
	sol, ms := b.Solve(ctx, &e.cfg.Solve)
	e.stats.TotalLPIters += ms.LPIterations
	e.stats.TotalNodes += ms.Nodes
	if sol == nil {
		return
	}
	if e.cfg.Certify {
		rep := certify.Solution(inst, sol, certify.Options{SkipObjective: true, Mapping: opts.FixedMapping})
		if !rep.OK() {
			return
		}
	}
	for i, a := range e.active {
		a.decided.Flows = sol.Flows[i]
	}
	e.stats.Reopts++
}

// Stats returns a snapshot of the aggregate statistics, with latency
// percentiles computed over all decisions so far.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.stats
	if len(e.latencies) > 0 {
		s.LatencyP50 = time.Duration(stats.Quantile(e.latencies, 0.50) * float64(time.Second))
		s.LatencyP99 = time.Duration(stats.Quantile(e.latencies, 0.99) * float64(time.Second))
	}
	return s
}

// Decisions returns a copy of every decision made so far, in arrival order.
func (e *Engine) Decisions() []Decision {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Decision, len(e.log))
	for i, r := range e.log {
		out[i] = r.decided
	}
	return out
}

// Snapshot reconstructs the full instance seen so far and the engine's
// committed solution over it: accepted requests carry their committed
// schedules and embeddings, rejected requests the Definition-2.1 fixed
// times. The solution's objective is the access-control revenue of the
// accepted set, so the pair certifies directly with certify.Solution under
// core.AccessControl.
func (e *Engine) Snapshot() (*core.Instance, vnet.NodeMapping, *solution.Solution) {
	e.mu.Lock()
	defer e.mu.Unlock()
	k := len(e.log)
	inst := &core.Instance{Sub: e.cfg.Sub, Reqs: make([]*vnet.Request, k), Horizon: e.cfg.Horizon}
	mapping := make(vnet.NodeMapping, k)
	sol := &solution.Solution{
		Accepted: make([]bool, k),
		Start:    make([]float64, k),
		End:      make([]float64, k),
		Hosts:    make([][]int, k),
		Flows:    make([][][]float64, k),
		Optimal:  false,
	}
	for i, r := range e.log {
		cp := *r.req
		inst.Reqs[i] = &cp
		mapping[i] = r.mapping
		sol.Accepted[i] = r.decided.Accepted
		sol.Start[i] = r.decided.Start
		sol.End[i] = r.decided.End
		sol.Hosts[i] = r.decided.Hosts
		sol.Flows[i] = r.decided.Flows
		if r.decided.Accepted {
			sol.Objective += cp.Duration * cp.TotalNodeDemand()
		}
	}
	return inst, mapping, sol
}
