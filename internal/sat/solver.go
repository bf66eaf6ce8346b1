// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver in pure Go, in the MiniSat/glucose lineage: clauses packed
// into a flat arena (see arena.go), two-literal watching with blockers,
// first-UIP conflict analysis with basic clause minimization, VSIDS
// variable ordering, phase saving, Luby restarts, LBD-tiered
// learnt-clause management and chronological backtracking for
// long-distance backjumps.
//
// The solver is incremental: clauses can be added between calls to Solve,
// and Solve accepts assumption literals. Conflict budgets, a stop
// callback and context cancellation (SetContext) support the bounded
// attack loops used elsewhere in the repository.
package sat

import (
	"context"
	"fmt"
	"slices"
	"sort"
)

// Lit is a literal: variable v as 2*v (positive) or 2*v+1 (negated).
type Lit int32

// LitUndef is the absent literal.
const LitUndef Lit = -1

// MkLit builds a literal from a variable index (0-based) and a sign.
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable.
func (l Lit) Var() int { return int(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complement literal.
func (l Lit) Not() Lit { return l ^ 1 }

func (l Lit) String() string {
	if l.Neg() {
		return fmt.Sprintf("-%d", l.Var()+1)
	}
	return fmt.Sprintf("%d", l.Var()+1)
}

// Status is the outcome of a Solve call.
type Status int

// Solve outcomes.
const (
	Unknown Status = iota
	Sat
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	}
	return "UNKNOWN"
}

const (
	lUndef int8 = 0
	lTrue  int8 = 1
	lFalse int8 = -1
)

// chronoLim is the backjump distance beyond which the solver backtracks
// chronologically (one level) instead of jumping to the assertion
// level, keeping the still-valid trail segment alive (Nadel & Ryvchin,
// SAT'18 — the conservative assign-at-current-level variant).
const chronoLim = 32

type watcher struct {
	cref    cref
	blocker Lit
}

// Stats counts solver work.
type Stats struct {
	Decisions    int64
	Propagations int64
	Conflicts    int64
	Restarts     int64
	// Learnt counts clauses learnt from conflict analysis.
	Learnt int64
	// Deleted counts learnt clauses removed by database reduction.
	Deleted int64
	// Reductions counts learnt-database reduction passes.
	Reductions int64
	// GCs counts arena compaction passes (garbage collection of the
	// flat clause store).
	GCs int64
	// Chrono counts chronological backtracks: conflicts where the
	// solver retreated one level instead of backjumping far.
	Chrono int64
}

// Sub returns the per-interval delta s - prev (all counters).
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Decisions:    s.Decisions - prev.Decisions,
		Propagations: s.Propagations - prev.Propagations,
		Conflicts:    s.Conflicts - prev.Conflicts,
		Restarts:     s.Restarts - prev.Restarts,
		Learnt:       s.Learnt - prev.Learnt,
		Deleted:      s.Deleted - prev.Deleted,
		Reductions:   s.Reductions - prev.Reductions,
		GCs:          s.GCs - prev.GCs,
		Chrono:       s.Chrono - prev.Chrono,
	}
}

// Add returns the counter-wise sum s + o (aggregating the work of
// several solvers into one report).
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Decisions:    s.Decisions + o.Decisions,
		Propagations: s.Propagations + o.Propagations,
		Conflicts:    s.Conflicts + o.Conflicts,
		Restarts:     s.Restarts + o.Restarts,
		Learnt:       s.Learnt + o.Learnt,
		Deleted:      s.Deleted + o.Deleted,
		Reductions:   s.Reductions + o.Reductions,
		GCs:          s.GCs + o.GCs,
		Chrono:       s.Chrono + o.Chrono,
	}
}

// Progress is the snapshot handed to the SetProgress callback.
type Progress struct {
	Stats
	// Vars and Clauses describe the live formula.
	Vars    int
	Clauses int
}

// Solver is a CDCL SAT solver. Create with New.
type Solver struct {
	ar       arena
	clauses  []cref // problem clauses, creation order (may contain deleted until GC)
	learnts  []cref // learnt clauses (may contain deleted until reduce/GC)
	numLocal int    // live learnts in tierLocal, reduceDB's trigger
	watches  [][]watcher

	vals     []int8 // per literal: vals[l] is l's value, vals[l^1] its negation's
	level    []int32
	reason   []cref
	polarity []bool // saved phases
	activity []float64
	seen     []bool

	trail    []Lit
	trailLim []int
	qhead    int

	order  varHeap
	varInc float64
	claInc float64

	rndPol   bool
	rndState uint64

	ok        bool
	numVars   int
	model     []int8
	stats     Stats
	limited   bool
	budget    int64 // remaining conflicts when limited
	exhausted bool
	stopTick  int
	ctxDone   <-chan struct{}

	progressFn    func(Progress)
	progressEvery int64
	progressNext  int64

	// Reused hot-path scratch: the learnt-clause builder and seen-list
	// of analyze, AddClause's normalization buffer and reduceDB's sort
	// slice. Keeping these on the solver makes the conflict loop
	// allocation-free in steady state (pinned by the alloc guard test).
	learntBuf  []Lit
	clearBuf   []int32
	addBuf     []Lit
	redScratch []cref

	// LBD scratch (see lbd.go).
	lbdStamp []uint32
	lbdGen   uint32

	// Simplification state (see simp.go). frozen vars are exempt from
	// variable elimination; elim vars have been resolved away, together
	// with the clauses that mentioned them, and have no model value.
	frozen []bool
	elim   []bool
	// numElim counts the set elim flags: once the trail holds the other
	// numVars-numElim variables, the assignment is total.
	numElim   int
	simpStats SimpStats
	// Incremental-simplification watermarks: problem clauses at index >=
	// simpMark and root assignments at trail index >= simpTrailMark are
	// new since the last Simplify finished. simpMark < 0 means no pass
	// has run yet (the next one is a full pass). garbageCollect keeps
	// simpMark consistent when it filters the clause index.
	simpMark      int
	simpTrailMark int
}

// reduceBase is the learnt-database reduction trigger floor: reduceDB
// fires when numLocal exceeds reduceBase + Conflicts/10.
const reduceBase = 2000

// New returns an empty solver.
func New() *Solver {
	s := &Solver{ok: true, varInc: 1, claInc: 1, simpMark: -1}
	s.order.s = s
	return s
}

// Clone returns an independent deep copy of the solver: the same
// formula, learnt clauses, assignment, heuristic state, elimination
// flags and counters, so the copy answers every later call exactly as
// the original would. The copy shares no backing array with the
// original. It has no progress callback and no context, and it starts
// without the pooled simplifier and hot-path scratch, which hold no
// state between calls. Preparing a formula once (encode, Simplify) and
// cloning it per use saves rebuilding it.
func (s *Solver) Clone() *Solver {
	c := *s
	c.ar.data = slices.Clone(s.ar.data)
	c.clauses = slices.Clone(s.clauses)
	c.learnts = slices.Clone(s.learnts)
	// All watch lists share one backing array, each capped at its own
	// length so that an append moves it out instead of overwriting the
	// next list.
	n := 0
	for _, ws := range s.watches {
		n += len(ws)
	}
	flat := make([]watcher, 0, n)
	c.watches = make([][]watcher, len(s.watches))
	for i, ws := range s.watches {
		lo := len(flat)
		flat = append(flat, ws...)
		c.watches[i] = flat[lo:len(flat):len(flat)]
	}
	c.vals = slices.Clone(s.vals)
	c.level = slices.Clone(s.level)
	c.reason = slices.Clone(s.reason)
	c.polarity = slices.Clone(s.polarity)
	c.activity = slices.Clone(s.activity)
	c.seen = slices.Clone(s.seen)
	c.trail = slices.Clone(s.trail)
	c.trailLim = slices.Clone(s.trailLim)
	c.order = varHeap{s: &c, heap: slices.Clone(s.order.heap), indices: slices.Clone(s.order.indices)}
	c.model = slices.Clone(s.model)
	c.lbdStamp = slices.Clone(s.lbdStamp)
	c.frozen = slices.Clone(s.frozen)
	c.elim = slices.Clone(s.elim)
	c.ctxDone = nil
	c.progressFn, c.progressEvery, c.progressNext = nil, 0, 0
	c.learntBuf, c.clearBuf, c.addBuf, c.redScratch = nil, nil, nil, nil
	return &c
}

// NumVars returns the number of variables created so far.
func (s *Solver) NumVars() int { return s.numVars }

// NumClauses returns the number of live problem clauses plus learnts.
func (s *Solver) NumClauses() int {
	n := 0
	for _, c := range s.clauses {
		if !s.ar.deleted(c) {
			n++
		}
	}
	for _, c := range s.learnts {
		if !s.ar.deleted(c) {
			n++
		}
	}
	return n
}

// Stats returns work counters accumulated across all Solve calls.
func (s *Solver) Stats() Stats { return s.stats }

// SetBudget limits the total number of conflicts available to subsequent
// Solve calls; Solve returns Unknown when it is exhausted. A negative value
// removes the limit.
func (s *Solver) SetBudget(conflicts int64) {
	s.limited = conflicts >= 0
	s.budget = conflicts
	s.exhausted = false
}

// SetContext installs a cancellation context. Its Done channel is polled
// every 64 stop checks of the search; once the context is
// cancelled, Solve returns Unknown. A nil context removes the hook.
func (s *Solver) SetContext(ctx context.Context) {
	if ctx == nil {
		s.ctxDone = nil
		return
	}
	s.ctxDone = ctx.Done()
}

// cancelled is the non-blocking context poll.
func (s *Solver) cancelled() bool {
	if s.ctxDone == nil {
		return false
	}
	select {
	case <-s.ctxDone:
		return true
	default:
		return false
	}
}

// SetProgress installs a callback invoked every `every` conflicts
// (cumulative across Solve calls) with a snapshot of the solver
// counters. A nil callback or non-positive interval disables reporting.
// The callback runs on the solving goroutine; keep it cheap.
func (s *Solver) SetProgress(every int64, f func(Progress)) {
	if f == nil || every <= 0 {
		s.progressFn = nil
		s.progressEvery = 0
		return
	}
	s.progressFn = f
	s.progressEvery = every
	s.progressNext = s.stats.Conflicts + every
}

// SetRandomPolarity makes branching decisions use pseudo-random phases
// derived from seed instead of saved phases. Model samplers use this to
// diversify the completions of partially pinned assignments.
func (s *Solver) SetRandomPolarity(seed int64) {
	s.rndPol = true
	s.rndState = uint64(seed)*2685821657736338717 + 1
}

// NewVar creates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := s.numVars
	s.numVars++
	s.vals = append(s.vals, lUndef, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, crefUndef)
	s.polarity = append(s.polarity, true) // default phase: false (negated)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.frozen = append(s.frozen, false)
	s.elim = append(s.elim, false)
	s.order.insert(v)
	return v
}

func (s *Solver) valueLit(l Lit) int8 { return s.vals[l] }

// valueVar is the value of variable v's positive literal.
func (s *Solver) valueVar(v int) int8 { return s.vals[v<<1] }

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// AddClause adds a clause. It returns false when the formula is already
// known to be unsatisfiable (now or earlier). Literals falsified at level 0
// are removed; tautologies are dropped.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	s.cancelUntil(0)
	// Sort-free simplification: dedupe, drop false, detect taut/sat.
	out := s.addBuf[:0]
	for _, l := range lits {
		if l.Var() >= s.numVars {
			panic("sat: literal references unknown variable")
		}
		if s.elim[l.Var()] {
			panic("sat: clause references eliminated variable (freeze it before Simplify)")
		}
		switch s.valueLit(l) {
		case lTrue:
			return true // satisfied at level 0
		case lFalse:
			continue
		}
		dup := false
		for _, o := range out {
			if o == l {
				dup = true
				break
			}
			if o == l.Not() {
				return true // tautology
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	s.addBuf = out[:0]
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], crefUndef)
		if s.propagate() != crefUndef {
			s.ok = false
			return false
		}
		return true
	}
	s.attachProblem(out)
	return true
}

// attachProblem packs a problem clause into the arena and watches it.
func (s *Solver) attachProblem(lits []Lit) cref {
	c := s.ar.alloc(lits, false, 0)
	s.clauses = append(s.clauses, c)
	s.watch(lits[0], c, lits[1])
	s.watch(lits[1], c, lits[0])
	return c
}

// attachLearnt packs a learnt clause into the arena, tiers it by LBD
// and watches it.
func (s *Solver) attachLearnt(lits []Lit, lbd int) cref {
	c := s.ar.alloc(lits, true, lbd)
	s.learnts = append(s.learnts, c)
	if s.ar.tier(c) == tierLocal {
		s.numLocal++
	}
	s.watch(lits[0], c, lits[1])
	s.watch(lits[1], c, lits[0])
	return c
}

func (s *Solver) watch(l Lit, c cref, blocker Lit) {
	s.watches[l] = append(s.watches[l], watcher{c, blocker})
}

// deleteClause marks a clause dead in the arena, maintaining the learnt
// counters. Watcher entries are dropped lazily (propagate) or at the
// next GC; callers must never delete a locked (reason) clause.
func (s *Solver) deleteClause(c cref) {
	if s.ar.deleted(c) {
		return
	}
	if s.ar.learnt(c) {
		if s.ar.tier(c) == tierLocal {
			s.numLocal--
		}
		s.stats.Deleted++
	}
	s.ar.del(c)
}

// locked reports whether the clause is the reason of its first literal.
func (s *Solver) locked(c cref) bool {
	l := s.ar.litAt(c, 0)
	return s.reason[l.Var()] == c && s.valueLit(l) == lTrue
}

func (s *Solver) uncheckedEnqueue(l Lit, from cref) {
	v := l.Var()
	s.vals[l] = lTrue
	s.vals[l^1] = lFalse
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns the reference of a
// conflicting clause or crefUndef.
func (s *Solver) propagate() cref {
	// Neither the value array nor the arena grows during propagation.
	vals, data := s.vals, s.ar.data
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.stats.Propagations++
		falseLit := p.Not()
		ws := s.watches[falseLit]
		j := 0
	nextWatch:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if vals[w.blocker] == lTrue {
				ws[j] = w
				j++
				continue
			}
			hdr := data[w.cref]
			if hdr&hdrDeleted != 0 {
				continue // lazy watcher cleanup
			}
			off := w.cref + 1
			if hdr&hdrLearnt != 0 {
				off += learntExtra
			}
			lits := data[off : off+cref(hdr>>hdrSizeShift)]
			if Lit(lits[0]) == falseLit {
				lits[0], lits[1] = lits[1], lits[0]
			}
			// Invariant now: lits[1] == falseLit.
			first := Lit(lits[0])
			if first != w.blocker && vals[first] == lTrue {
				ws[j] = watcher{w.cref, first}
				j++
				continue
			}
			for k := 2; k < len(lits); k++ {
				if vals[lits[k]] != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					s.watch(Lit(lits[1]), w.cref, first)
					continue nextWatch
				}
			}
			// Clause is unit or conflicting.
			ws[j] = watcher{w.cref, first}
			j++
			if vals[first] == lFalse {
				// Conflict: copy the remaining watchers and bail.
				for i++; i < len(ws); i++ {
					ws[j] = ws[i]
					j++
				}
				s.watches[falseLit] = ws[:j]
				s.qhead = len(s.trail)
				return w.cref
			}
			s.uncheckedEnqueue(first, w.cref)
		}
		s.watches[falseLit] = ws[:j]
	}
	return crefUndef
}

func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	bound := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].Var()
		s.polarity[v] = s.valueVar(v) == lFalse
		s.vals[v<<1], s.vals[v<<1|1] = lUndef, lUndef
		s.reason[v] = crefUndef
		s.order.insert(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

// bumpLearnt is the per-antecedent upkeep of conflict analysis: bump
// the clause's activity, mark it used (tier2 retention signal), and
// re-evaluate its LBD against the current trail — a clause whose LBD
// improved is promoted toward core and escapes future reductions.
func (s *Solver) bumpLearnt(c cref) {
	act := s.ar.act(c) + float32(s.claInc)
	s.ar.setAct(c, act)
	if act > 1e20 {
		for _, ci := range s.learnts {
			if !s.ar.deleted(ci) {
				s.ar.setAct(ci, s.ar.act(ci)*1e-20)
			}
		}
		s.claInc *= 1e-20
	}
	s.ar.setUsed(c, true)
	if t := s.ar.tier(c); t != tierCore {
		nl := s.lbdOfClause(c)
		if nl < s.ar.lbd(c) {
			s.ar.setLBD(c, nl)
			if nt := tierFor(nl); nt > t {
				if t == tierLocal {
					s.numLocal--
				}
				s.ar.setTier(c, nt)
			}
		}
	}
}

// analyze computes a first-UIP learnt clause from a conflict, returning the
// clause (asserting literal first) and the backtrack level. The returned
// slice aliases the solver's reusable buffer; it is valid until the next
// analyze call.
func (s *Solver) analyze(confl cref) ([]Lit, int) {
	learnt := append(s.learntBuf[:0], LitUndef)
	toClear := s.clearBuf[:0]
	pathC := 0
	p := LitUndef
	index := len(s.trail) - 1

	for {
		if s.ar.learnt(confl) {
			s.bumpLearnt(confl)
		}
		lits := s.ar.lits(confl)
		start := 0
		if p != LitUndef {
			start = 1
		}
		for _, w := range lits[start:] {
			q := Lit(w)
			v := q.Var()
			if !s.seen[v] && s.level[v] > 0 {
				s.bumpVar(v)
				s.seen[v] = true
				toClear = append(toClear, int32(v))
				if int(s.level[v]) >= s.decisionLevel() {
					pathC++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		for !s.seen[s.trail[index].Var()] {
			index--
		}
		p = s.trail[index]
		index--
		confl = s.reason[p.Var()]
		s.seen[p.Var()] = false
		pathC--
		if pathC <= 0 {
			break
		}
	}
	learnt[0] = p.Not()

	// Basic clause minimization: drop literals implied by the rest.
	j := 1
	for i := 1; i < len(learnt); i++ {
		v := learnt[i].Var()
		if s.reason[v] == crefUndef || !s.litRedundant(learnt[i]) {
			learnt[j] = learnt[i]
			j++
		}
	}
	learnt = learnt[:j]

	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.level[learnt[1].Var()])
	}

	for _, v := range toClear {
		s.seen[v] = false
	}
	s.learntBuf = learnt
	s.clearBuf = toClear[:0]
	return learnt, btLevel
}

// litRedundant implements the "basic" minimization test: a literal is
// redundant when every literal of its reason clause is either seen (already
// in the learnt clause) or assigned at level 0.
func (s *Solver) litRedundant(l Lit) bool {
	lits := s.ar.lits(s.reason[l.Var()])
	for _, w := range lits[1:] {
		v := Lit(w).Var()
		if !s.seen[v] && s.level[v] > 0 {
			return false
		}
	}
	return true
}

// pickBranchLit pops the most active unassigned variable off the heap
// and returns it in its decision phase, or LitUndef once every
// non-eliminated variable is assigned. The heap holds every unassigned
// non-eliminated variable, so a total assignment is told by the trail's
// length without draining the heap; Solve resets the heap on Sat.
func (s *Solver) pickBranchLit() Lit {
	if len(s.trail) == s.numVars-s.numElim {
		return LitUndef
	}
	for !s.order.empty() {
		v := s.order.removeMin()
		if s.valueVar(v) == lUndef && !s.elim[v] {
			pol := s.polarity[v]
			if s.rndPol {
				s.rndState ^= s.rndState << 13
				s.rndState ^= s.rndState >> 7
				s.rndState ^= s.rndState << 17
				pol = s.rndState&1 == 1
			}
			return MkLit(v, pol)
		}
	}
	return LitUndef
}

// luby computes the Luby restart sequence element (1-based index):
// 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,...
func luby(i int64) int64 {
	x := i - 1
	size, seq := int64(1), 0
	for size < x+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != x {
		size = (size - 1) / 2
		seq--
		x %= size
	}
	return int64(1) << uint(seq)
}

func (s *Solver) stopped() bool {
	if s.ctxDone == nil {
		return false
	}
	s.stopTick++
	if s.stopTick&63 != 0 {
		return false
	}
	return s.cancelled()
}

// search runs CDCL until a model is found, a conflict at root level proves
// UNSAT, or nConflicts conflicts pass (restart), whichever first.
func (s *Solver) search(nConflicts int64, assumps []Lit) Status {
	conflictC := int64(0)
	for {
		confl := s.propagate()
		if confl != crefUndef {
			s.stats.Conflicts++
			conflictC++
			if s.progressFn != nil && s.stats.Conflicts >= s.progressNext {
				s.progressNext = s.stats.Conflicts + s.progressEvery
				s.progressFn(Progress{Stats: s.stats, Vars: s.numVars, Clauses: s.NumClauses()})
			}
			if s.limited {
				s.budget--
				if s.budget < 0 {
					s.exhausted = true
					return Unknown
				}
			}
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			learnt, btLevel := s.analyze(confl)
			lbd := s.lbd(learnt)
			// A backjump that would discard a long trail segment is
			// replaced by a single chronological step: the learnt clause
			// is still asserting at the previous level (its non-UIP
			// literals are false at or below the assertion level).
			if len(learnt) > 1 && s.decisionLevel()-btLevel > chronoLim {
				btLevel = s.decisionLevel() - 1
				s.stats.Chrono++
			}
			// Backtracking may pop assumptions; the decision loop below
			// re-places them, and an assumption found false there proves
			// UNSAT under assumptions.
			s.cancelUntil(btLevel)
			s.stats.Learnt++
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], crefUndef)
			} else {
				c := s.attachLearnt(learnt, lbd)
				s.uncheckedEnqueue(learnt[0], c)
			}
			s.varInc /= 0.95
			s.claInc /= 0.999
			continue
		}
		if conflictC >= nConflicts {
			return Unknown // restart point
		}
		if s.stopped() {
			s.exhausted = true
			return Unknown
		}
		if s.numLocal > reduceBase+int(s.stats.Conflicts/10) {
			s.reduceDB()
		}
		// Place assumptions, then decide.
		next := LitUndef
		for s.decisionLevel() < len(assumps) {
			p := assumps[s.decisionLevel()]
			switch s.valueLit(p) {
			case lTrue:
				s.trailLim = append(s.trailLim, len(s.trail)) // dummy level
			case lFalse:
				return Unsat
			default:
				next = p
			}
			if next != LitUndef {
				break
			}
		}
		if next == LitUndef {
			next = s.pickBranchLit()
			if next == LitUndef {
				return Sat // all variables assigned
			}
			s.stats.Decisions++
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(next, crefUndef)
	}
}

// reduceDB trims the learnt database by tier: core clauses (LBD <= 3)
// are permanent; tier2 clauses survive while conflict analysis keeps
// using them and are demoted to local otherwise; the local tier is
// halved, dropping high-LBD low-activity clauses first. Deleted clauses
// are only marked — watcher entries disappear lazily in propagate and
// the storage is reclaimed by the arena GC, replacing the old
// full-watch-list rebuild per reduction.
func (s *Solver) reduceDB() {
	s.stats.Reductions++
	locals := s.redScratch[:0]
	for _, c := range s.learnts {
		if s.ar.deleted(c) {
			continue
		}
		switch s.ar.tier(c) {
		case tierCore:
			continue
		case tierMid:
			if s.ar.used(c) {
				s.ar.setUsed(c, false)
				continue
			}
			s.ar.setTier(c, tierLocal)
			s.numLocal++
		}
		locals = append(locals, c)
	}
	// Worst-first: high LBD, then low activity, then youngest (full
	// tie-break keeps the pass deterministic).
	sort.Slice(locals, func(i, j int) bool {
		ci, cj := locals[i], locals[j]
		if li, lj := s.ar.lbd(ci), s.ar.lbd(cj); li != lj {
			return li > lj
		}
		if ai, aj := s.ar.act(ci), s.ar.act(cj); ai != aj {
			return ai < aj
		}
		return ci > cj
	})
	target := len(locals) / 2
	removed := 0
	for _, c := range locals {
		if removed >= target {
			break
		}
		if s.ar.size(c) <= 2 || s.locked(c) {
			continue
		}
		s.deleteClause(c)
		removed++
	}
	s.redScratch = locals[:0]
	kept := s.learnts[:0]
	for _, c := range s.learnts {
		if !s.ar.deleted(c) {
			kept = append(kept, c)
		}
	}
	s.learnts = kept
	s.maybeGC()
}

// Solve runs the solver under the given assumptions. It returns Sat, Unsat,
// or Unknown when a budget/stop/context limit fires. After Sat, the model
// is available via ModelValue.
func (s *Solver) Solve(assumps ...Lit) Status {
	if !s.ok {
		return Unsat
	}
	for _, a := range assumps {
		if s.elim[a.Var()] {
			panic("sat: assumption over eliminated variable (freeze it before Simplify)")
		}
	}
	if s.cancelled() {
		s.exhausted = true
		return Unknown
	}
	s.cancelUntil(0)
	if s.propagate() != crefUndef {
		s.ok = false
		return Unsat
	}
	s.exhausted = false
	status := Unknown
	for round := int64(1); ; round++ {
		status = s.search(100*luby(round), assumps)
		if status != Unknown {
			break
		}
		if s.exhausted {
			break // budget spent or stop callback fired
		}
		if s.cancelled() {
			// The in-search poll is sampled (every 64 ticks), so a
			// context cancelled before or during a short round could
			// otherwise start another full round.
			s.exhausted = true
			break
		}
		s.stats.Restarts++
		s.cancelUntil(0)
	}
	if status == Sat {
		s.model = slices.Grow(s.model[:0], s.numVars)[:s.numVars]
		// Only eliminated vars are unassigned; ModelValue refuses them.
		for v := range s.model {
			s.model[v] = s.valueVar(v)
		}
		// The answer left assigned variables in the heap. Emptying it
		// first makes cancelUntil's reinsertion in reverse trail order
		// build the heap a full drain would have left.
		s.order.clear()
	}
	s.cancelUntil(0)
	return status
}

// ModelValue returns the value of a literal in the last satisfying model.
// The literal's variable must not have been eliminated: an eliminated
// variable has no model value, and reading one panics.
func (s *Solver) ModelValue(l Lit) bool {
	if s.elim[l.Var()] {
		panic("sat: model read of eliminated variable (freeze it before Simplify)")
	}
	v := s.model[l.Var()] == lTrue
	if l.Neg() {
		return !v
	}
	return v
}

// varHeap is a max-heap of variables ordered by activity.
type varHeap struct {
	s       *Solver
	heap    []int
	indices []int // var -> heap position, -1 if absent
}

func (h *varHeap) empty() bool { return len(h.heap) == 0 }

// clear removes every variable from the heap.
func (h *varHeap) clear() {
	for _, v := range h.heap {
		h.indices[v] = -1
	}
	h.heap = h.heap[:0]
}

func (h *varHeap) inHeap(v int) bool {
	return v < len(h.indices) && h.indices[v] >= 0
}

func (h *varHeap) insert(v int) {
	for len(h.indices) <= v {
		h.indices = append(h.indices, -1)
	}
	if h.inHeap(v) {
		return
	}
	h.indices[v] = len(h.heap)
	h.heap = append(h.heap, v)
	h.percolateUp(h.indices[v])
}

func (h *varHeap) update(v int) {
	if h.inHeap(v) {
		h.percolateUp(h.indices[v])
	}
}

func (h *varHeap) removeMin() int {
	v := h.heap[0]
	last := h.heap[len(h.heap)-1]
	h.heap = h.heap[:len(h.heap)-1]
	h.indices[v] = -1
	if len(h.heap) > 0 {
		h.heap[0] = last
		h.indices[last] = 0
		h.percolateDown(0)
	}
	return v
}

func (h *varHeap) less(a, b int) bool {
	return h.s.activity[a] > h.s.activity[b]
}

func (h *varHeap) percolateUp(i int) {
	v := h.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(v, h.heap[p]) {
			break
		}
		h.heap[i] = h.heap[p]
		h.indices[h.heap[i]] = i
		i = p
	}
	h.heap[i] = v
	h.indices[v] = i
}

func (h *varHeap) percolateDown(i int) {
	v := h.heap[i]
	for {
		l, r := 2*i+1, 2*i+2
		if l >= len(h.heap) {
			break
		}
		c := l
		if r < len(h.heap) && h.less(h.heap[r], h.heap[l]) {
			c = r
		}
		if !h.less(h.heap[c], v) {
			break
		}
		h.heap[i] = h.heap[c]
		h.indices[h.heap[i]] = i
		i = c
	}
	h.heap[i] = v
	h.indices[v] = i
}
