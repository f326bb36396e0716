package tvnep

import (
	"context"

	"tvnep/internal/admit"
	"tvnep/internal/core"
)

// engine returns the solver's admission engine, creating it on first use.
func (s *Solver) engine() (*admit.Engine, error) {
	s.engOnce.Do(func() {
		if s.cfg.horizon <= 0 {
			s.engErr = ErrNoHorizon
			return
		}
		if s.cfg.flowMode == core.FlowPath {
			// The admission tiers (integral-LP shortcut, rounding) all
			// decompose arc flows; path mode has no incremental
			// counterpart here.
			s.engErr = &OptionConflictError{Option: "WithFlowMode(path)", Online: true}
			return
		}
		var eng *admit.Engine
		eng, s.engErr = admit.New(admit.Config{
			Sub:             s.sub,
			Horizon:         s.cfg.horizon,
			Solve:           s.cfg.solve,
			CutMode:         s.cfg.cutMode,
			DisablePresolve: s.cfg.noPresolve,
			Rounding:        s.cfg.algorithm == Rounding,
			Seed:            s.cfg.solve.Seed,
			Certify:         s.cfg.certify,
			ReoptEvery:      s.cfg.reoptEvery,
		})
		s.eng.Store(eng)
	})
	return s.eng.Load(), s.engErr
}

// Admit streams one arriving request through the online admission engine:
// the request is accepted (and its schedule committed, never to change)
// exactly when a feasible embedding alongside all previously committed
// requests exists, following objective (21) of the greedy algorithm.
// mapping pins every virtual node a priori. Requires WithHorizon; decisions
// are made strictly in call order and, under the default node-limit budget,
// are a pure function of the submission sequence (bit-identical replays).
func (s *Solver) Admit(ctx context.Context, req *Request, mapping []int) (Decision, error) {
	eng, err := s.engine()
	if err != nil {
		return Decision{}, err
	}
	return eng.Admit(ctx, req, mapping)
}

// EngineStats returns the admission engine's aggregate statistics (zero
// before the first Admit call).
func (s *Solver) EngineStats() EngineStats {
	eng := s.eng.Load()
	if eng == nil {
		return EngineStats{}
	}
	return eng.Stats()
}

// Decisions returns every admission decision so far, in arrival order.
func (s *Solver) Decisions() []Decision {
	eng := s.eng.Load()
	if eng == nil {
		return nil
	}
	return eng.Decisions()
}

// Snapshot reconstructs the instance streamed so far and the engine's
// committed solution over it (accepted requests keep their committed
// schedules and embeddings; rejected requests carry the Definition-2.1
// fixed times). The pair certifies under the AccessControl objective.
func (s *Solver) Snapshot() (*Instance, NodeMapping, *Solution) {
	eng := s.eng.Load()
	if eng == nil {
		return &core.Instance{Sub: s.sub, Horizon: s.cfg.horizon}, nil, &Solution{}
	}
	return eng.Snapshot()
}
