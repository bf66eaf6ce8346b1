package sat

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
