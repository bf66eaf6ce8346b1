package sat

// SatELite-style clause-database simplification (Eén & Biere, SAT'05;
// MiniSat-2's SimpSolver): bounded variable elimination by resolution,
// backward subsumption and self-subsuming resolution over occurrence
// lists with signature hashing, top-level unit/pure-literal reduction,
// and clause vivification by unit propagation.
//
// The simplifier operates directly on the clause arena: clauses are
// shrunk in place (arena.shrink) and deleted by marking
// (Solver.deleteClause), never copied in or out. Because arena offsets
// are unstable across compaction, the occurrence-list phases work over
// dense clause ids — `refs` maps id -> cref, and occ/abst/inQueue are
// id-indexed — and the arena GC is deferred to finish, after the
// occurrence lists are dead. Each Simplify call allocates its own
// simplifier, so no scratch state outlives a pass.
//
// The simplifier works on the live incremental solver, so it must honor
// two contracts the preprocessing literature can take for granted:
//
//   - Frozen variables (FreezeLit) are exempt from elimination.
//     Any variable later used in an assumption, read through ModelValue,
//     or mentioned by a clause added after Simplify must be frozen
//     first; violating this panics rather than corrupting the answer.
//   - Eliminated variables have no model value. The clauses removed
//     with them are dropped, not kept for model reconstruction, so a
//     Sat answer's model, restricted to the variables not eliminated,
//     extends to a model of the original clauses but does not carry
//     that extension. ModelValue panics on an eliminated variable.
//
// All simplification is deterministic: occurrence lists and queues are
// slices filled and drained in ascending clause-id order, candidate
// variables are sorted with explicit tie-breaks, and no map is iterated
// anywhere on these paths.

import "sort"

// Simplify's tuning, the same for every caller.
const (
	// simpMaxOccur skips elimination of variables occurring in more
	// than this many clauses (SatELite's "don't touch heavily shared
	// variables" guard).
	simpMaxOccur = 30
	// simpMaxGrowth bounds the clause-count growth per eliminated
	// variable: resolvents kept must number at most
	// removed_clauses + simpMaxGrowth.
	simpMaxGrowth = 0
	// simpMaxResolventLen aborts an elimination producing a resolvent
	// longer than this, and caps the length of clauses considered for
	// vivification.
	simpMaxResolventLen = 24
	// simpVivifyMaxProps bounds the unit propagations spent by one
	// vivification pass.
	simpVivifyMaxProps = 300000
	// simpMaxRounds bounds the subsume/eliminate fixpoint iterations.
	simpMaxRounds = 3
)

// SimpStats counts simplification work, cumulative across Simplify calls.
type SimpStats struct {
	// Rounds counts Simplify invocations.
	Rounds int64
	// ElimVars counts variables eliminated by resolution.
	ElimVars int64
	// PureVars counts the subset of ElimVars removed as pure literals
	// (all occurrences in one polarity, so elimination adds nothing).
	PureVars int64
	// FixedVars counts variables fixed at the root level during
	// simplification (top-level units discovered).
	FixedVars int64
	// SubsumedClauses counts clauses deleted by backward subsumption.
	SubsumedClauses int64
	// StrengthenedLits counts literals removed by self-subsuming
	// resolution.
	StrengthenedLits int64
	// VivifiedLits counts literals removed by vivification.
	VivifiedLits int64
	// RemovedClauses counts problem clauses removed by variable
	// elimination (their resolvents are added back).
	RemovedClauses int64
	// ResolventsAdded counts resolvent clauses added by elimination.
	ResolventsAdded int64
}

// Sub returns the per-interval delta s - prev (all counters).
func (s SimpStats) Sub(prev SimpStats) SimpStats {
	return SimpStats{
		Rounds:           s.Rounds - prev.Rounds,
		ElimVars:         s.ElimVars - prev.ElimVars,
		PureVars:         s.PureVars - prev.PureVars,
		FixedVars:        s.FixedVars - prev.FixedVars,
		SubsumedClauses:  s.SubsumedClauses - prev.SubsumedClauses,
		StrengthenedLits: s.StrengthenedLits - prev.StrengthenedLits,
		VivifiedLits:     s.VivifiedLits - prev.VivifiedLits,
		RemovedClauses:   s.RemovedClauses - prev.RemovedClauses,
		ResolventsAdded:  s.ResolventsAdded - prev.ResolventsAdded,
	}
}

// FreezeLit exempts the literal's variable from elimination. Freeze
// every variable that will later appear in an assumption, a ModelValue
// read, or a clause added after Simplify.
func (s *Solver) FreezeLit(l Lit) { s.frozen[l.Var()] = true }

// Eliminated reports whether the variable has been eliminated by a
// Simplify call. It has no model value and may no longer appear in
// assumptions, new clauses or ModelValue reads.
func (s *Solver) Eliminated(v int) bool { return s.elim[v] }

// SimpStats returns simplification counters accumulated across all
// Simplify calls.
func (s *Solver) SimpStats() SimpStats { return s.simpStats }

// Simplify reduces the clause database in place: top-level
// unit/pure-literal reduction, backward subsumption, self-subsuming
// resolution, clause vivification and, when varElim is set, bounded
// variable elimination. Eliminating a variable is only sound for
// equisatisfiability: set varElim only when every literal the caller
// will assume, read or constrain later is frozen. It returns false when
// simplification proves the formula unsatisfiable (like AddClause).
// Solving continues to work afterwards: frozen variables keep their
// meaning, eliminated variables are gone from the model.
func (s *Solver) Simplify(varElim bool) bool {
	if !s.ok {
		return false
	}
	s.cancelUntil(0)
	if s.propagate() != crefUndef {
		s.ok = false
		return false
	}
	trailBase := len(s.trail)
	sp := &simplifier{s: s, varElim: varElim}
	ok := sp.run()
	if ok {
		ok = sp.vivifyAll()
	}
	s.simpStats.Rounds++
	s.simpStats.FixedVars += int64(len(s.trail) - trailBase)
	if !ok {
		s.ok = false
		return false
	}
	// Watermark for the next (incremental) pass: everything currently in
	// the clause index and on the root trail has been processed.
	s.simpMark = len(s.clauses)
	s.simpTrailMark = len(s.trail)
	return true
}

// simplifier is the working state of one Simplify pass.
type simplifier struct {
	s       *Solver
	varElim bool

	// refs maps dense clause ids to arena references for this pass
	// (problem clauses first, then learnts, then resolvents as they are
	// added). All other per-clause state below is id-indexed.
	refs []cref

	// occ maps each variable to the clause ids containing it in either
	// polarity, learnt clauses included. Valid while occLive. Lists are
	// tombstoned, not compacted: deleting a clause or stripping a
	// literal leaves stale entries behind (occDrop just decrements the
	// live count), and every reader re-verifies an entry against the
	// arena — deleted clauses by the deleted bit, stripped literals by
	// scanning the clause. occCnt holds the exact live occurrence count
	// per variable, so heuristics keyed on list length are unaffected.
	occ     [][]int32
	occLive bool
	abst    []uint64 // per-clause variable signature

	queue   []int32 // subsumption work queue (clause ids)
	qh      int
	inQueue []bool

	markL   []bool  // literal-indexed scratch marks
	scratch []int32 // occurrence-list iteration copy
	keep    []Lit   // vivification scratch

	// Incremental-pass state. A full pass (first Simplify on the solver)
	// considers everything; later passes seed subsumption with the
	// clauses added since the last pass and restrict elimination to
	// touched variables — vars in new clauses, vars losing occurrences
	// to deletion/strengthening, vars of fresh resolvents (SatELite's
	// touch protocol).
	full        bool
	newStart    int32 // first new problem clause id this pass
	problemEnd  int32 // ids below this are problem clauses
	vivStart    int   // first s.clauses index vivifyAll should visit
	touched     []bool
	touchedList []int32

	// Elimination scratch, reused across the pass's rounds.
	cands   []int
	pos     []int32
	neg     []int32
	lrnt    []int32
	resBuf  []Lit // flattened resolvents of the current tryEliminate
	resEnds []int32

	// occCnt is the exact live occurrence count per variable (buildOcc
	// seeds it, occDrop/addSimpClause maintain it).
	occCnt []int32
}

// touch records that a variable's occurrence set changed, making it an
// elimination candidate for the next round/pass.
func (sp *simplifier) touch(v int) {
	if !sp.touched[v] {
		sp.touched[v] = true
		sp.touchedList = append(sp.touchedList, int32(v))
	}
}

func (sp *simplifier) cref(id int32) cref    { return sp.refs[id] }
func (sp *simplifier) deleted(id int32) bool { return sp.s.ar.deleted(sp.refs[id]) }

// run performs the occurrence-list phases (everything but vivification)
// and leaves the solver in a consistent solving state: watches rebuilt,
// clause/learnt indices filtered, propagation queue settled, arena
// compacted when due.
func (sp *simplifier) run() bool {
	s := sp.s
	// Deferred-propagation protocol: from here until finish, units are
	// enqueued at level 0 but never propagated through the watch lists
	// (clause mutation would invalidate them). Clause/value consistency
	// is restored by normalize's fixpoint scans instead.
	sp.full = s.simpMark < 0
	oldMark := s.simpMark
	if sp.full {
		oldMark = 0
	}
	sp.newStart = -1
	for i, c := range s.clauses {
		if s.ar.deleted(c) {
			continue
		}
		if i >= oldMark && sp.newStart < 0 {
			sp.newStart = int32(len(sp.refs))
		}
		sp.refs = append(sp.refs, c)
	}
	sp.problemEnd = int32(len(sp.refs))
	if sp.newStart < 0 {
		sp.newStart = sp.problemEnd
	}
	for _, c := range s.learnts {
		if !s.ar.deleted(c) {
			sp.refs = append(sp.refs, c)
		}
	}
	sp.touched = make([]bool, s.numVars)
	if !sp.normalize() {
		return false
	}
	sp.buildOcc()
	sp.markL = make([]bool, 2*s.numVars)
	// Seed the touched set for an incremental pass: every variable of a
	// clause added since the last pass. (A full pass ignores the set and
	// scans all variables.)
	if !sp.full {
		for id := sp.newStart; id < sp.problemEnd; id++ {
			if sp.deleted(id) {
				continue
			}
			for _, w := range s.ar.lits(sp.refs[id]) {
				sp.touch(Lit(w).Var())
			}
		}
	}
	for r := 0; r < simpMaxRounds; r++ {
		if sp.full {
			sp.queueAll()
		} else if r == 0 {
			sp.queueNew()
		}
		// Incremental rounds > 0 drain whatever the previous round
		// strengthened or resolved (enqueueSub keeps the queue fed).
		changed, ok := sp.subsumeAll()
		if !ok {
			return false
		}
		if sp.varElim {
			n, ok := sp.eliminateVars()
			if !ok {
				return false
			}
			changed += n
		}
		if changed == 0 {
			break
		}
	}
	return sp.finish()
}

// normalize cleans every live clause against the level-0 assignment
// until no new unit facts appear: satisfied clauses are deleted, false
// literals stripped, and clauses shrunk to units enqueue their literal.
// It returns false on a root-level conflict.
func (sp *simplifier) normalize() bool {
	s := sp.s
	for {
		pre := len(s.trail)
		for id := int32(0); int(id) < len(sp.refs); id++ {
			if sp.deleted(id) {
				continue
			}
			if !sp.cleanClause(id) {
				return false
			}
		}
		if len(s.trail) == pre {
			return true
		}
	}
}

// cleanClause removes literals false at level 0 and deletes the clause
// if satisfied. A clause shrunk to a unit is deleted and its literal
// enqueued (not propagated; see the deferred-propagation protocol). It
// returns false on a root-level conflict.
func (sp *simplifier) cleanClause(id int32) bool {
	s := sp.s
	c := sp.refs[id]
	lits := s.ar.lits(c)
	for _, w := range lits {
		if s.valueLit(Lit(w)) == lTrue {
			sp.removeClause(id)
			return true
		}
	}
	j := 0
	for _, w := range lits {
		l := Lit(w)
		if s.valueLit(l) == lFalse {
			sp.occDrop(l.Var())
			sp.touch(l.Var())
			continue
		}
		lits[j] = w
		j++
	}
	if j == len(lits) {
		return true
	}
	switch j {
	case 0:
		return false
	case 1:
		l := Lit(lits[0])
		sp.removeClause(id)
		// l cannot be assigned here: true lits delete the clause above,
		// false lits were just stripped.
		s.uncheckedEnqueue(l, crefUndef)
		return true
	}
	s.ar.shrink(c, j)
	sp.updateAbst(id)
	return true
}

// removeClause deletes a clause (arena mark + learnt bookkeeping via
// Solver.deleteClause) and removes it from the occurrence lists. The
// clause/learnt indices are filtered later, in finish.
func (sp *simplifier) removeClause(id int32) {
	s := sp.s
	c := sp.refs[id]
	if s.ar.deleted(c) {
		return
	}
	for _, w := range s.ar.lits(c) {
		v := Lit(w).Var()
		sp.occDrop(v)
		sp.touch(v)
	}
	s.deleteClause(c)
}

// occDrop notes that a variable lost one live occurrence. The entry
// itself stays in the occurrence list as a tombstone — compacting the
// list would cost a linear scan per removal, which dominated
// simplification on cone-heavy instances. Readers filter tombstones
// against the arena instead; iteration order stays append order, so
// determinism is unaffected.
func (sp *simplifier) occDrop(v int) {
	if sp.occLive {
		sp.occCnt[v]--
	}
}

// buildOcc constructs the occurrence lists by counting first and then
// carving exact-capacity per-var slices out of one backing array, so a
// pass costs O(1) allocations instead of one growth chain per variable.
// Appends after the carve (resolvents) fall out of the shared backing
// into private storage automatically.
func (sp *simplifier) buildOcc() {
	s := sp.s
	sp.occ = make([][]int32, s.numVars)
	sp.occCnt = make([]int32, s.numVars)
	cnt := sp.occCnt
	sp.abst = make([]uint64, len(sp.refs))
	sp.inQueue = make([]bool, len(sp.refs))
	total := 0
	for id := int32(0); int(id) < len(sp.refs); id++ {
		if sp.deleted(id) {
			continue
		}
		for _, w := range s.ar.lits(sp.refs[id]) {
			cnt[Lit(w).Var()]++
			total++
		}
	}
	back := make([]int32, total)
	off := 0
	for v := 0; v < s.numVars; v++ {
		n := int(cnt[v])
		sp.occ[v] = back[off : off : off+n]
		off += n
	}
	sp.occLive = true
	for id := int32(0); int(id) < len(sp.refs); id++ {
		if sp.deleted(id) {
			continue
		}
		for _, w := range s.ar.lits(sp.refs[id]) {
			v := Lit(w).Var()
			sp.occ[v] = append(sp.occ[v], id)
		}
		sp.updateAbst(id)
	}
}

// updateAbst recomputes the clause's variable signature: a 64-bit
// Bloom-style filter used to reject non-subset candidates cheaply.
func (sp *simplifier) updateAbst(id int32) {
	if int(id) >= len(sp.abst) {
		return
	}
	var a uint64
	for _, w := range sp.s.ar.lits(sp.refs[id]) {
		a |= 1 << (uint(Lit(w).Var()) & 63)
	}
	sp.abst[id] = a
}

func (sp *simplifier) enqueueSub(id int32) {
	if int(id) < len(sp.inQueue) && !sp.inQueue[id] {
		sp.inQueue[id] = true
		sp.queue = append(sp.queue, id)
	}
}

// queueAll enqueues every live problem clause for backward subsumption,
// in ascending clause-id order (full pass).
func (sp *simplifier) queueAll() {
	sp.queue = sp.queue[:0]
	sp.qh = 0
	for id := int32(0); int(id) < len(sp.refs); id++ {
		if sp.deleted(id) || sp.s.ar.learnt(sp.refs[id]) {
			continue
		}
		sp.inQueue[id] = true
		sp.queue = append(sp.queue, id)
	}
}

// queueNew seeds the subsumption queue with only the problem clauses
// added since the last pass (incremental pass). Old-vs-old pairs were
// already checked then; an old clause newly subsumed by another old
// clause can only arise through strengthening, which requeues.
func (sp *simplifier) queueNew() {
	sp.queue = sp.queue[:0]
	sp.qh = 0
	for id := sp.newStart; id < sp.problemEnd; id++ {
		if sp.deleted(id) {
			continue
		}
		sp.inQueue[id] = true
		sp.queue = append(sp.queue, id)
	}
}

// subsumeAll drains the subsumption queue: each queued clause C is
// checked backward against every clause D sharing C's rarest variable.
// C ⊆ D deletes D; C ⊆ D with exactly one flipped literal strengthens D
// by self-subsuming resolution (learnt D included — that only shrinks a
// redundant clause). Learnt clauses are never used as the subsuming
// side: a problem clause deleted on a learnt's authority would become
// unsound to drop in reduceDB.
func (sp *simplifier) subsumeAll() (int, bool) {
	s := sp.s
	changed := 0
	for sp.qh < len(sp.queue) {
		id := sp.queue[sp.qh]
		sp.qh++
		sp.inQueue[id] = false
		c := sp.refs[id]
		if s.ar.deleted(c) || s.ar.learnt(c) {
			continue
		}
		if !sp.cleanClause(id) {
			return changed, false
		}
		if s.ar.deleted(c) {
			continue
		}
		clits := s.ar.lits(c)
		best := Lit(clits[0]).Var()
		for _, w := range clits[1:] {
			if v := Lit(w).Var(); sp.occCnt[v] < sp.occCnt[best] {
				best = v
			}
		}
		for _, w := range clits {
			sp.markL[Lit(w)] = true
		}
		cl := len(clits)
		ca := sp.abst[id]
		ok := true
		sp.scratch = append(sp.scratch[:0], sp.occ[best]...)
		for _, did := range sp.scratch {
			if did == id {
				continue
			}
			d := sp.refs[did]
			if s.ar.deleted(d) || s.ar.size(d) < cl {
				continue
			}
			if ca&^sp.abst[did] != 0 {
				continue
			}
			cnt := 0
			flips := 0
			flip := LitUndef
			for _, w := range s.ar.lits(d) {
				l := Lit(w)
				if sp.markL[l] {
					cnt++
				} else if sp.markL[l.Not()] {
					flips++
					flip = l
				}
			}
			if cnt == cl {
				sp.removeClause(did)
				s.simpStats.SubsumedClauses++
				changed++
			} else if cnt == cl-1 && flips == 1 {
				if !sp.strengthen(did, flip) {
					ok = false
					break
				}
				s.simpStats.StrengthenedLits++
				changed++
			}
		}
		for _, w := range s.ar.lits(c) {
			sp.markL[Lit(w)] = false
		}
		if !ok {
			return changed, false
		}
	}
	return changed, true
}

// strengthen removes one literal from a clause in place (self-subsuming
// resolution) and, for problem clauses only, requeues it for
// subsumption — learnt clauses must never become the subsuming side. It
// returns false on a root-level conflict.
func (sp *simplifier) strengthen(id int32, l Lit) bool {
	s := sp.s
	c := sp.refs[id]
	lits := s.ar.lits(c)
	j := 0
	for _, w := range lits {
		if Lit(w) == l {
			continue
		}
		lits[j] = w
		j++
	}
	sp.occDrop(l.Var())
	sp.touch(l.Var())
	switch j {
	case 0:
		return false
	case 1:
		u := Lit(lits[0])
		sp.removeClause(id)
		switch s.valueLit(u) {
		case lTrue:
			return true
		case lFalse:
			return false
		}
		s.uncheckedEnqueue(u, crefUndef)
		return true
	}
	s.ar.shrink(c, j)
	sp.updateAbst(id)
	if !s.ar.learnt(c) {
		sp.enqueueSub(id)
	}
	return true
}

// eliminateVars tries bounded variable elimination, cheapest occurrence
// count first (ties by variable index — deterministic). A full pass
// scans every variable; an incremental pass consumes the touched set
// (vars whose occurrence lists changed since the last pass or round),
// which it resets so the try loop can accumulate touches for the next
// round.
func (sp *simplifier) eliminateVars() (int, bool) {
	s := sp.s
	cands := sp.cands[:0]
	consider := func(v int) {
		if s.frozen[v] || s.elim[v] || s.valueVar(v) != lUndef {
			return
		}
		n := int(sp.occCnt[v])
		if n == 0 || n > simpMaxOccur {
			return
		}
		cands = append(cands, v)
	}
	if sp.full {
		for v := 0; v < s.numVars; v++ {
			consider(v)
		}
	} else {
		for _, v := range sp.touchedList {
			consider(int(v))
		}
		for _, v := range sp.touchedList {
			sp.touched[v] = false
		}
		sp.touchedList = sp.touchedList[:0]
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if la, lb := sp.occCnt[a], sp.occCnt[b]; la != lb {
			return la < lb
		}
		return a < b
	})
	eliminated := 0
	for _, v := range cands {
		if s.valueVar(v) != lUndef || s.elim[v] {
			continue
		}
		ok, did := sp.tryEliminate(v)
		if !ok {
			sp.cands = cands[:0]
			return eliminated, false
		}
		if did {
			eliminated++
		}
	}
	sp.cands = cands[:0]
	return eliminated, true
}

// tryEliminate attempts to eliminate v by resolution: it resolves every
// positive problem clause against every negative one, and commits when
// the surviving resolvents do not outnumber the removed clauses by more
// than MaxGrowth (SatELite's growth bound). Removed problem clauses are
// dropped, not recorded: no caller reads an eliminated variable's value.
// Learnt clauses mentioning v are dropped too (they are redundant, and
// keeping them would constrain an eliminated variable).
func (sp *simplifier) tryEliminate(v int) (ok, did bool) {
	s := sp.s
	pos, neg, lrnt := sp.pos[:0], sp.neg[:0], sp.lrnt[:0]
	defer func() {
		sp.pos, sp.neg, sp.lrnt = pos[:0], neg[:0], lrnt[:0]
	}()
	sp.scratch = append(sp.scratch[:0], sp.occ[v]...)
	for _, id := range sp.scratch {
		c := sp.refs[id]
		if s.ar.deleted(c) {
			continue
		}
		if !sp.cleanClause(id) {
			return false, false
		}
		if s.ar.deleted(c) {
			continue
		}
		if s.ar.learnt(c) {
			lrnt = append(lrnt, id)
			continue
		}
		found := false
		polNeg := false
		for _, w := range s.ar.lits(c) {
			if l := Lit(w); l.Var() == v {
				found = true
				polNeg = l.Neg()
				break
			}
		}
		if !found {
			// Tombstone: v was stripped from this still-live clause by
			// strengthening or level-0 cleaning. It neither resolves on
			// v nor may be removed here.
			continue
		}
		if polNeg {
			neg = append(neg, id)
		} else {
			pos = append(pos, id)
		}
	}
	// Cleaning can enqueue a unit on v itself; elimination of an
	// assigned variable is meaningless (normalize handles it).
	if s.valueVar(v) != lUndef {
		return true, false
	}
	pure := len(pos) == 0 || len(neg) == 0
	sp.resBuf = sp.resBuf[:0]
	sp.resEnds = sp.resEnds[:0]
	if !pure {
		limit := len(pos) + len(neg) + simpMaxGrowth
		for _, pc := range pos {
			for _, nc := range neg {
				n, keep := sp.resolve(pc, nc, v)
				if !keep {
					continue
				}
				if n > simpMaxResolventLen {
					return true, false
				}
				sp.resEnds = append(sp.resEnds, int32(len(sp.resBuf)))
				if len(sp.resEnds) > limit {
					return true, false
				}
			}
		}
	}
	// Commit: drop everything touching v, add the resolvents.
	s.elim[v] = true
	s.numElim++
	for _, side := range [][]int32{pos, neg} {
		for _, id := range side {
			sp.removeClause(id)
			s.simpStats.RemovedClauses++
		}
	}
	for _, id := range lrnt {
		sp.removeClause(id)
	}
	start := int32(0)
	for _, end := range sp.resEnds {
		if !sp.addSimpClause(sp.resBuf[start:end]) {
			return false, true
		}
		start = end
	}
	s.simpStats.ElimVars++
	if pure {
		s.simpStats.PureVars++
	}
	return true, true
}

// resolve computes the resolvent of a positive and a negative clause of
// v, appending its literals to sp.resBuf (the caller records the
// boundary). keep is false when the resolvent is a tautology or already
// satisfied at level 0, in which case resBuf is rolled back; n is the
// number of literals appended.
func (sp *simplifier) resolve(pc, nc int32, v int) (n int, keep bool) {
	s := sp.s
	base := len(sp.resBuf)
	add := func(l Lit) {
		if !sp.markL[l] {
			sp.markL[l] = true
			sp.resBuf = append(sp.resBuf, l)
		}
	}
	unmark := func() {
		for _, l := range sp.resBuf[base:] {
			sp.markL[l] = false
		}
	}
	for _, w := range s.ar.lits(sp.refs[pc]) {
		l := Lit(w)
		if l.Var() == v {
			continue
		}
		switch s.valueLit(l) {
		case lTrue:
			unmark()
			sp.resBuf = sp.resBuf[:base]
			return 0, false
		case lFalse:
			continue
		}
		add(l)
	}
	for _, w := range s.ar.lits(sp.refs[nc]) {
		l := Lit(w)
		if l.Var() == v {
			continue
		}
		sat := s.valueLit(l) == lTrue
		if sat || sp.markL[l.Not()] {
			unmark()
			sp.resBuf = sp.resBuf[:base]
			return 0, false // satisfied or tautology
		}
		if s.valueLit(l) == lFalse {
			continue
		}
		add(l)
	}
	unmark()
	return len(sp.resBuf) - base, true
}

// addSimpClause inserts a resolvent as a problem clause mid-
// simplification: values are re-checked (units may have fired since the
// resolvent was built), the clause is packed into the arena and indexed
// under a fresh dense id, occurrence lists and signatures are extended,
// and the clause is queued for subsumption. Watches are not touched;
// finish rebuilds them. It returns false on a root-level conflict.
func (sp *simplifier) addSimpClause(lits []Lit) bool {
	s := sp.s
	out := lits[:0]
	for _, l := range lits {
		switch s.valueLit(l) {
		case lTrue:
			return true
		case lFalse:
			continue
		}
		out = append(out, l)
	}
	switch len(out) {
	case 0:
		return false
	case 1:
		s.uncheckedEnqueue(out[0], crefUndef)
		return true
	}
	c := s.ar.alloc(out, false, 0)
	s.clauses = append(s.clauses, c)
	id := int32(len(sp.refs))
	sp.refs = append(sp.refs, c)
	sp.abst = append(sp.abst, 0)
	sp.inQueue = append(sp.inQueue, false)
	for _, l := range out {
		sp.occ[l.Var()] = append(sp.occ[l.Var()], id)
		sp.occCnt[l.Var()]++
		sp.touch(l.Var())
	}
	sp.updateAbst(id)
	sp.enqueueSub(id)
	s.simpStats.ResolventsAdded++
	return true
}

// finish restores the solver to a consistent solving state after the
// occurrence-list phases: a final normalize fixpoint (so no surviving
// clause mentions an assigned variable), the clause/learnt indices
// filtered of deleted refs, stale level-0 reasons cleared, all watch
// lists rebuilt from scratch, the propagation queue settled at the
// trail head, and the arena compacted if the pass freed enough words.
func (sp *simplifier) finish() bool {
	s := sp.s
	if !sp.normalize() {
		return false
	}
	sp.occLive = false
	oldMark := s.simpMark
	if oldMark < 0 {
		oldMark = 0
	}
	kept := s.clauses[:0]
	sp.vivStart = 0
	for i, c := range s.clauses {
		if !s.ar.deleted(c) {
			if i < oldMark {
				sp.vivStart++ // clauses vivified by an earlier pass
			}
			kept = append(kept, c)
		}
	}
	s.clauses = kept
	keptL := s.learnts[:0]
	for _, c := range s.learnts {
		if !s.ar.deleted(c) {
			keptL = append(keptL, c)
		}
	}
	s.learnts = keptL
	for _, l := range s.trail {
		s.reason[l.Var()] = crefUndef
	}
	for i := range s.watches {
		s.watches[i] = s.watches[i][:0]
	}
	for _, c := range s.clauses {
		s.watch(s.ar.litAt(c, 0), c, s.ar.litAt(c, 1))
		s.watch(s.ar.litAt(c, 1), c, s.ar.litAt(c, 0))
	}
	for _, c := range s.learnts {
		s.watch(s.ar.litAt(c, 0), c, s.ar.litAt(c, 1))
		s.watch(s.ar.litAt(c, 1), c, s.ar.litAt(c, 0))
	}
	// Every root assignment's consequences are already structural
	// (satisfied clauses deleted, false literals stripped), so there is
	// nothing left to propagate.
	s.qhead = len(s.trail)
	// The occurrence lists are dead now, so crefs may move.
	s.maybeGC()
	return true
}

// vivifyAll runs clause vivification over the problem clauses, after
// finish has rebuilt the watches: for clause (l1 ∨ … ∨ lk), assume
// ¬l1, ¬l2, … one temporary decision level at a time and propagate. A
// conflict or an implied-true literal proves the prefix subsumes the
// clause; an implied-false literal is redundant and dropped. The pass
// is bounded by simpVivifyMaxProps unit propagations.
func (sp *simplifier) vivifyAll() bool {
	s := sp.s
	if !s.ok {
		return false
	}
	const budget, maxLen = simpVivifyMaxProps, simpMaxResolventLen
	start := s.stats.Propagations
	// An incremental pass only vivifies clauses added since the last
	// pass (earlier clauses already had their turn; strengthened forms
	// of them are cheap enough to leave to the search).
	for ci := sp.vivStart; ci < len(s.clauses); ci++ {
		if s.stats.Propagations-start >= budget {
			break
		}
		c := s.clauses[ci]
		if s.ar.deleted(c) {
			continue
		}
		size := s.ar.size(c)
		if size < 2 || size > maxLen {
			continue
		}
		// Skip clauses touched by units discovered earlier in this
		// pass; the next Simplify round cleans them.
		touched := false
		for _, w := range s.ar.lits(c) {
			if s.valueLit(Lit(w)) != lUndef {
				touched = true
				break
			}
		}
		if touched {
			continue
		}
		// Detach: the clause must not propagate against itself.
		sp.unwatch(s.ar.litAt(c, 0), c)
		sp.unwatch(s.ar.litAt(c, 1), c)
		keep := sp.keep[:0]
		shortened := false
		done := false
		for _, w := range s.ar.lits(c) {
			l := Lit(w)
			switch s.valueLit(l) {
			case lTrue:
				keep = append(keep, l)
				shortened = len(keep) < size
				done = true
			case lFalse:
				shortened = true
			default:
				keep = append(keep, l)
				s.trailLim = append(s.trailLim, len(s.trail))
				s.uncheckedEnqueue(l.Not(), crefUndef)
				if s.propagate() != crefUndef {
					shortened = len(keep) < size
					done = true
				}
			}
			if done {
				break
			}
		}
		s.cancelUntil(0)
		sp.keep = keep[:0]
		if !shortened || len(keep) >= size {
			s.watch(s.ar.litAt(c, 0), c, s.ar.litAt(c, 1))
			s.watch(s.ar.litAt(c, 1), c, s.ar.litAt(c, 0))
			continue
		}
		s.simpStats.VivifiedLits += int64(size - len(keep))
		if len(keep) == 1 {
			u := keep[0]
			s.deleteClause(c)
			if s.valueLit(u) == lUndef {
				s.uncheckedEnqueue(u, crefUndef)
			}
			if s.valueLit(u) == lFalse || s.propagate() != crefUndef {
				return false
			}
			continue
		}
		lits := s.ar.lits(c)
		for i, l := range keep {
			lits[i] = uint32(l)
		}
		s.ar.shrink(c, len(keep))
		s.watch(s.ar.litAt(c, 0), c, s.ar.litAt(c, 1))
		s.watch(s.ar.litAt(c, 1), c, s.ar.litAt(c, 0))
	}
	return true
}

// unwatch removes one clause's watcher from a literal's watch list,
// preserving order.
func (sp *simplifier) unwatch(l Lit, c cref) {
	ws := sp.s.watches[l]
	for i := range ws {
		if ws[i].cref == c {
			copy(ws[i:], ws[i+1:])
			sp.s.watches[l] = ws[:len(ws)-1]
			return
		}
	}
}
