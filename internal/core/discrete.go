package core

import (
	"context"
	"fmt"
	"math"

	"tvnep/internal/model"
	"tvnep/internal/numtol"
	"tvnep/internal/solution"
)

// DiscreteBuilt is the compiled discrete-time baseline (see BuildDiscrete).
type DiscreteBuilt struct {
	*Built
	SlotLen  float64
	NumSlots int
	// Y[r][s] decides whether request r starts at slot boundary s·SlotLen.
	Y [][]model.Var
	// slots[r] is the number of whole slots request r occupies (duration
	// rounded up — the discretization error the paper's continuous-time
	// approach avoids).
	slots []int
}

// BuildDiscrete constructs the time-slotted baseline MIP the paper's
// continuous-time approach is motivated against (Section III: discrete
// models trade accuracy for a time grid). Start times are restricted to
// multiples of slotLen and durations are rounded *up* to whole slots, so
// the model is resource-safe but loses schedules that need off-grid starts
// — its optimum can only be ≤ the continuous optimum, approaching it as
// slotLen → 0 at the cost of one state per slot.
//
// Supported objectives: AccessControl, MaxEarliness, MinMakespan and
// DisableLinks (BalanceNodeLoad would need per-slot loads and is omitted).
func BuildDiscrete(inst *Instance, opts BuildOptions, slotLen float64) *DiscreteBuilt {
	if slotLen <= 0 {
		panic("core: BuildDiscrete needs a positive slot length")
	}
	k := len(inst.Reqs)
	b := &Built{
		Model: model.New(model.Maximize),
		Kind:  Formulation(-1), // not one of the paper's three
		Inst:  inst,
		Opts:  opts,
	}
	m := b.Model
	buildEmbedding(b)

	numSlots := int(math.Ceil(inst.Horizon/slotLen - numtol.WindowTol))
	db := &DiscreteBuilt{
		Built:    b,
		SlotLen:  slotLen,
		NumSlots: numSlots,
		Y:        make([][]model.Var, k),
		slots:    make([]int, k),
	}
	// TPlus/TMinus become derived continuous variables so extraction and
	// the earliness/makespan objectives work unchanged.
	b.TPlus = make([]model.Var, k)
	b.TMinus = make([]model.Var, k)

	// active is the per-slot scratch beside the builder's own three.
	active := model.Expr()
	for r, req := range inst.Reqs {
		db.slots[r] = int(math.Ceil(req.Duration/slotLen - numtol.WindowTol))
		if db.slots[r] < 1 {
			db.slots[r] = 1
		}
		db.Y[r] = make([]model.Var, numSlots)
		choice := b.sum.Reset()
		startExpr := b.part.Reset()
		for s := 0; s < numSlots; s++ {
			start := float64(s) * slotLen
			end := start + float64(db.slots[r])*slotLen
			// Grid feasibility: the slotted run must fit the window (this
			// is where discretization loses solutions).
			if start < req.Earliest-numtol.WindowTol || end > req.Latest+numtol.WindowTol {
				continue
			}
			db.Y[r][s] = m.Binary()
			choice.Add(1, db.Y[r][s])
			startExpr.Add(start, db.Y[r][s])
		}
		// Exactly one start slot iff embedded.
		choice.Add(-1, b.XR[r])
		m.AddEQ(choice, 0, model.Key1("choose", r))

		b.TPlus[r] = m.Continuous(0, inst.Horizon)
		b.TMinus[r] = m.Continuous(0, inst.Horizon)
		// t⁺ = Σ s·δ·y (+ earliest·(1−xR) so rejected requests keep a valid
		// window position, mirroring Definition 2.1).
		tPlusExpr := b.row.Reset().Add(1, b.TPlus[r])
		tPlusExpr.AddExpr(-1, startExpr)
		tPlusExpr.Add(req.Earliest, b.XR[r])
		m.AddEQ(tPlusExpr, req.Earliest, model.Key1("tplus", r))
		dur := b.row.Reset().Add(1, b.TMinus[r]).Add(-1, b.TPlus[r])
		m.AddEQ(dur, req.Duration, model.Key1("tminus", r))
	}

	// Per-slot capacity via the same big-M device as the Σ-Models:
	// a[r][q][rsc] ≥ alloc − c·(1 − active(r,q)).
	nRes := b.resourceCount()
	for q := 0; q < numSlots; q++ {
		for rsc := 0; rsc < nRes; rsc++ {
			capRsc := b.resourceCap(rsc)
			capacity := b.sum.Reset()
			any := false
			for r := 0; r < k; r++ {
				active.Reset()
				for s := q - db.slots[r] + 1; s <= q; s++ {
					if s >= 0 && s < numSlots && db.Y[r][s].Valid() {
						active.Add(1, db.Y[r][s])
					}
				}
				if active.Len() == 0 {
					continue
				}
				alloc := b.part.Reset()
				b.addAlloc(alloc, 1, r, rsc)
				if alloc.Len() == 0 {
					continue
				}
				a := m.Continuous(0, model.Inf())
				con := b.row.Reset().Add(1, a)
				con.AddExpr(-1, alloc)
				con.AddExpr(-capRsc, active)
				m.AddGE(con, -capRsc, model.Key3("slot", r, q, rsc))
				capacity.Add(1, a)
				any = true
			}
			if any {
				m.AddLE(capacity, capRsc, model.Key2("scap", q, rsc))
			}
		}
	}

	switch opts.Objective {
	case AccessControl, MaxEarliness, MinMakespan, DisableLinks:
		applyObjective(b)
	default:
		panic(fmt.Sprintf("core: discrete baseline does not support objective %v", opts.Objective))
	}
	return db
}

// Solve optimizes the discrete model and extracts a solution (the slotted
// schedule is exact, so the continuous checker applies unchanged). A nil
// ctx is treated as context.Background().
func (db *DiscreteBuilt) Solve(ctx context.Context, opts *model.SolveOptions) (*solution.Solution, *model.Solution) {
	ms := db.Model.Optimize(ctx, opts)
	return db.Built.Extract(ms), ms
}
