// Package fraig implements simulation-guided SAT sweeping (ABC-style
// "fraiging"): candidate equivalence classes seeded from 64-way
// bit-parallel simulation signatures are refined with solver
// counterexamples and discharged oldest-first on a single incremental SAT
// solver, merging proven-equivalent nodes into a reduced AIG.
//
// The engine is the substrate of the swept equivalence-checking mode in
// internal/cec: fraiging the combined miter graph collapses the shared
// logic of the two sides before the final (much smaller) miter solve.
//
// Invariants:
//
//   - classes only ever split — a counterexample pattern partitions every
//     class by the simulated value, and two nodes separated once never
//     rejoin;
//   - nodes merge only after an Unsat proof (or a structural hash hit in
//     the rebuilt graph); budget-exhausted queries leave the node intact
//     and mark the sweep undecided;
//   - the sweep is deterministic: patterns come from the seed alone, nodes
//     are processed in ascending variable order (topological, oldest
//     first), and class representatives are always the lowest processed
//     variable, so equal inputs give byte-identical reduced graphs.
package fraig

import (
	"context"

	"obfuslock/internal/aig"
	"obfuslock/internal/cnf"
	"obfuslock/internal/exec"
	"obfuslock/internal/obs"
	"obfuslock/internal/sat"
	"obfuslock/internal/sim"
	"obfuslock/internal/simp"
)

// Options configures a sweep.
type Options struct {
	// Seed drives the random patterns; equal seeds give identical sweeps.
	Seed int64
	// Budget bounds each SAT query (Conflicts is a per-query cap; the
	// wall-clock side is enforced through ctx). An exhausted query leaves
	// its node unmerged and marks the result undecided.
	Budget exec.Budget
	// Trace receives the fraig.sweep span and the fraig.* counters
	// (nil: disabled, zero cost).
	Trace *obs.Tracer
}

// sigWords of 64 random simulation patterns seed the candidate
// equivalence classes.
const sigWords = 8

// Stats counts the work of one sweep.
type Stats struct {
	// Classes is the number of initial candidate classes (two or more
	// members with identical normalized signatures).
	Classes int
	// Candidates is the number of nodes initially slated for a proof
	// (class members beyond each representative).
	Candidates int
	// Merges is the number of nodes replaced by an equivalent
	// representative in the reduced graph.
	Merges int
	// SatProved counts merges discharged by an Unsat answer; Structural
	// counts merges that the rebuilt graph's hashing had already
	// performed by the time the proof was attempted.
	SatProved  int
	Structural int
	// SatRefuted counts Sat answers: real counterexamples fed back as new
	// simulation patterns.
	SatRefuted int
	// SimRefuted counts class splits caused by counterexample refinement.
	SimRefuted int
	// Undecided counts queries that exhausted their conflict budget (or
	// were cancelled) and left their node unmerged.
	Undecided int
	// Rounds is the number of counterexample refinement rounds.
	Rounds int
}

// Result reports a completed sweep.
type Result struct {
	// Reduced is the swept graph: identical interface (input/output order
	// and names) and function, with proven-equivalent nodes merged and
	// unreachable logic removed.
	Reduced *aig.AIG
	// Graph is the rebuilt graph before cleanup: Reduced's interface and
	// function, every node of the input graph still reachable through Map.
	Graph *aig.AIG
	// Map takes each variable of the input graph to its literal in Graph.
	Map []aig.Lit
	// Stats counts classes, merges, refutations and proofs.
	Stats Stats
	// Decided is false when at least one query exhausted its budget or
	// the context was cancelled: the reduction is still sound (only
	// proven merges were applied), but possibly incomplete.
	Decided bool
	// SolverStats is the SAT work of the sweep's shared prover.
	SolverStats sat.Stats
}

// simpEvery is the inprocessing cadence of Sweep, in SAT queries.
const simpEvery = 64

// sweeper carries the mutable state of one Sweep call.
type sweeper struct {
	g       *aig.AIG
	ng      *aig.AIG
	m       []aig.Lit // old var -> literal in ng
	nf      []bool    // signature normalization phase per old var
	classOf []int32   // old var -> class index, -1 when unclassified
	classes [][]uint32
	st      Stats
}

// Sweep reduces g by merging functionally equivalent nodes. The input
// graph is not modified. Cancelling ctx stops proving (the remaining
// logic is copied unmerged) and marks the result undecided.
func Sweep(ctx context.Context, g *aig.AIG, opt Options) *Result {
	tr := opt.Trace
	sp := tr.Span("fraig.sweep",
		obs.Int("nodes", int64(g.NumNodes())),
		obs.Int("words", sigWords))

	sw := &sweeper{g: g, ng: aig.New()}
	sw.ng.Name = g.Name
	sw.buildClasses(opt)

	// Rebuild oldest-first on a single incremental solver. Learnt clauses
	// and proven equalities (added as unit clauses over the query
	// selectors) persist across queries.
	s := sat.New()
	s.SetContext(ctx)
	enc := cnf.NewEncoder(sw.ng, s)
	sw.m = make([]aig.Lit, g.MaxVar()+1)
	sw.m[0] = aig.ConstFalse
	for i := 0; i < g.NumInputs(); i++ {
		sw.m[g.InputVar(i)] = sw.ng.AddInput(g.InputName(i))
		enc.InputLit(i) // pre-create the solver variable for cex extraction
	}

	// Inprocessing: every simpEvery SAT queries, re-simplify the shared
	// solver (subsumption/strengthening/vivification only — the sweep
	// keeps adding cones over internal variables, so elimination is off).
	lastSimp := 0

	decided := true
	proving := true
	for v := uint32(1); v <= g.MaxVar(); v++ {
		fan := g.Fanins(v)
		f := func(i int) aig.Lit { return sw.m[fan[i].Var()].NotIf(fan[i].IsCompl()) }
		switch g.Op(v) {
		case aig.OpInput:
			continue // mapped above
		case aig.OpAnd:
			sw.m[v] = sw.ng.And(f(0), f(1))
		case aig.OpXor:
			sw.m[v] = sw.ng.Xor(f(0), f(1))
		case aig.OpMaj:
			sw.m[v] = sw.ng.Maj(f(0), f(1), f(2))
		}
		if sw.classOf[v] < 0 || !proving {
			continue
		}
		if ctx != nil && ctx.Err() != nil {
			proving, decided = false, false
			continue
		}
		switch sw.prove(ctx, v, s, enc, opt, sp) {
		case proveUndecided:
			decided = false
			if ctx != nil && ctx.Err() != nil {
				proving = false
			}
		}
		if q := sw.st.SatProved + sw.st.SatRefuted + sw.st.Undecided; q-lastSimp >= simpEvery {
			lastSimp = q
			simp.Apply(s, false, tr)
		}
	}
	for i, po := range g.Outputs() {
		sw.ng.AddOutput(sw.m[po.Var()].NotIf(po.IsCompl()), g.OutputName(i))
	}
	reduced := sw.ng.Cleanup()

	sp.End(
		obs.Int("classes", int64(sw.st.Classes)),
		obs.Int("merges", int64(sw.st.Merges)),
		obs.Int("sim_refuted", int64(sw.st.SimRefuted)),
		obs.Int("sat_proved", int64(sw.st.SatProved)),
		obs.Int("undecided", int64(sw.st.Undecided)),
		obs.Int("rounds", int64(sw.st.Rounds)),
		obs.Int("nodes_out", int64(reduced.NumNodes())),
		obs.Bool("decided", decided))
	return &Result{Reduced: reduced, Graph: sw.ng, Map: sw.m, Stats: sw.st, Decided: decided, SolverStats: s.Stats()}
}

// buildClasses seeds the candidate classes from phase-normalized
// simulation signatures. Variable 0 (constant false) participates, so
// constant-valued nodes become candidates against the constant.
func (sw *sweeper) buildClasses(opt Options) {
	g := sw.g
	vec := sim.RunRandom(g, sigWords, opt.Seed)
	sw.nf = make([]bool, g.MaxVar()+1)
	sw.classOf = make([]int32, g.MaxVar()+1)
	buckets := make(map[string]int32)
	var keyBuf []byte
	for v := uint32(0); v <= g.MaxVar(); v++ {
		sw.classOf[v] = -1
		words := vec.Node(v)
		// Normalize so that a node and its complement share a class: flip
		// the signature when its first bit is set.
		sw.nf[v] = len(words) > 0 && words[0]&1 == 1
		keyBuf = keyBuf[:0]
		for _, w := range words {
			if sw.nf[v] {
				w = ^w
			}
			keyBuf = append(keyBuf,
				byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
				byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
		}
		key := string(keyBuf)
		if cid, ok := buckets[key]; ok {
			sw.classes[cid] = append(sw.classes[cid], v)
			sw.classOf[v] = cid
		} else {
			cid = int32(len(sw.classes))
			buckets[key] = cid
			sw.classes = append(sw.classes, []uint32{v})
			sw.classOf[v] = cid
		}
	}
	// Unclassify singletons so the rebuild loop skips them outright.
	for cid, members := range sw.classes {
		if len(members) < 2 {
			for _, v := range members {
				sw.classOf[v] = -1
			}
			sw.classes[cid] = nil
			continue
		}
		sw.st.Classes++
		sw.st.Candidates += len(members) - 1
	}
}

type proveOutcome int

const (
	proveDone proveOutcome = iota
	proveUndecided
)

// prove tries to merge v into the representative of its class, feeding Sat
// counterexamples back as refinement patterns and retrying against the new
// representative until v either merges, becomes its own representative, or
// the budget runs out.
func (sw *sweeper) prove(ctx context.Context, v uint32, s *sat.Solver, enc *cnf.Encoder, opt Options, sp *obs.Span) proveOutcome {
	for {
		members := sw.classes[sw.classOf[v]]
		u := members[0]
		if u == v {
			return proveDone // v is the representative
		}
		target := sw.m[u].NotIf(sw.nf[v] != sw.nf[u])
		if sw.m[v] == target {
			// The rebuild's structural hashing already merged them.
			sw.st.Merges++
			sw.st.Structural++
			return proveDone
		}
		lits := enc.Encode(sw.m[v], target)
		d := cnf.XorLit(s, lits[0], lits[1])
		s.SetBudget(opt.Budget.ConflictCap())
		switch s.Solve(d) {
		case sat.Unsat:
			s.AddClause(d.Not()) // lock the proven equality in for later queries
			sw.m[v] = target
			sw.st.Merges++
			sw.st.SatProved++
			return proveDone
		case sat.Sat:
			sw.st.SatRefuted++
			pattern := make([]bool, sw.ng.NumInputs())
			for i := range pattern {
				pattern[i] = s.ModelValue(enc.InputLit(i))
			}
			splits := sw.refine(pattern)
			sw.st.Rounds++
			sp.Event("fraig.refine",
				obs.Int("round", int64(sw.st.Rounds)),
				obs.Int("splits", int64(splits)))
			// v is now provably separated from u; loop against the new
			// representative (strictly fewer older members remain).
		default:
			sw.st.Undecided++
			return proveUndecided
		}
	}
}

// refine replays one counterexample pattern on the original graph and
// partitions every candidate class by the observed (normalized) value.
// Classes only ever split; each split keeps its representative group under
// the old class index and appends the other group as a new class.
func (sw *sweeper) refine(pattern []bool) int {
	vals := sim.EvalAll(sw.g, pattern)
	splits := 0
	n := len(sw.classes) // new classes appended below are already consistent
	for cid := 0; cid < n; cid++ {
		members := sw.classes[cid]
		if len(members) < 2 {
			continue
		}
		ref := vals[members[0]] != sw.nf[members[0]]
		var stay, move []uint32
		for _, u := range members {
			if (vals[u] != sw.nf[u]) == ref {
				stay = append(stay, u)
			} else {
				move = append(move, u)
			}
		}
		if len(move) == 0 {
			continue
		}
		splits++
		sw.st.SimRefuted++
		sw.classes[cid] = stay
		nid := int32(len(sw.classes))
		sw.classes = append(sw.classes, move)
		for _, u := range move {
			sw.classOf[u] = nid
		}
	}
	return splits
}
