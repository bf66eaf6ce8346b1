package sat

import "obfuslock/internal/obs"

// Telemetry histogram names registered by SetTelemetry.
const (
	// MetricConflictDepth is the decision level at each conflict.
	MetricConflictDepth = "sat.conflict_depth"
	// MetricLBD is the literal block distance (distinct decision levels)
	// of each learnt clause — the canonical learnt-quality signal.
	MetricLBD = "sat.lbd"
	// MetricPropsPerDecision is the number of propagations between
	// consecutive branching decisions.
	MetricPropsPerDecision = "sat.props_per_decision"
)

// SetTelemetry attaches distribution telemetry to the solver: every
// conflict records its decision depth and the learnt clause's LBD, and
// every decision records the propagations since the previous one, into
// the registry's shared histograms (several solvers aggregate into one
// distribution; the histograms are lock-free). A nil registry detaches
// telemetry; with it detached the search loop pays only a nil check per
// conflict. (LBD itself is always computed — the tiered learnt database
// needs it — telemetry only records the value.)
func (s *Solver) SetTelemetry(reg *obs.Registry) {
	if reg == nil {
		s.hConflictDepth, s.hLBD, s.hPropsPerDec = nil, nil, nil
		return
	}
	s.hConflictDepth = reg.Histogram(MetricConflictDepth)
	s.hLBD = reg.Histogram(MetricLBD)
	s.hPropsPerDec = reg.Histogram(MetricPropsPerDecision)
	s.lastDecProps = s.stats.Propagations
}

// lbd computes the literal block distance of a learnt clause: the
// number of distinct decision levels among its literals. It reuses a
// generation-stamped scratch array so repeated calls never allocate
// once the level space is sized.
func (s *Solver) lbd(learnt []Lit) int {
	need := len(s.trailLim) + 1
	if len(s.lbdStamp) < need {
		grown := make([]uint32, s.numVars+1)
		copy(grown, s.lbdStamp)
		s.lbdStamp = grown
	}
	s.lbdGen++
	n := 0
	for _, l := range learnt {
		lv := s.level[l.Var()]
		if s.lbdStamp[lv] != s.lbdGen {
			s.lbdStamp[lv] = s.lbdGen
			n++
		}
	}
	return n
}

// lbdOfClause is lbd over an arena clause's current assignment levels,
// used to re-score learnt antecedents during conflict analysis (every
// literal of a reason/conflict clause is assigned there).
func (s *Solver) lbdOfClause(c cref) int {
	need := len(s.trailLim) + 1
	if len(s.lbdStamp) < need {
		grown := make([]uint32, s.numVars+1)
		copy(grown, s.lbdStamp)
		s.lbdStamp = grown
	}
	s.lbdGen++
	n := 0
	for _, w := range s.ar.lits(c) {
		lv := s.level[Lit(w).Var()]
		if s.lbdStamp[lv] != s.lbdGen {
			s.lbdStamp[lv] = s.lbdGen
			n++
		}
	}
	return n
}
