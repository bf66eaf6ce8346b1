package attacks

import (
	"fmt"
	"sync"
	"time"

	"obfuslock/internal/cnf"
	"obfuslock/internal/locking"
	"obfuslock/internal/memo"
	"obfuslock/internal/sat"
)

// defaultDIPBatch is the per-round DIP enumeration width when
// IOOptions.DIPBatch is 0. Sixty-four fills one bit-parallel
// simulation word exactly, so a round's oracle pass costs the same as
// a single pattern while the solve count drops 64-fold; since the
// solver (not simplification) dominates round cost, the widest batch
// wins on the point-function benchmarks (see EXPERIMENTS.md). The
// geometric width ramp keeps the wide default from burning iteration
// budgets on instances that terminate after a handful of DIPs.
const defaultDIPBatch = 64

// DIPQueue shares answered I/O pairs between concurrent attacks on the
// same locked circuit. A portfolio wires one queue per group of
// variants that race the same Locked/oracle pair: whenever a variant
// answers a DIP batch it publishes the ground-truth (input, output)
// pairs, and every other variant drains them into its own constraint
// set at the start of its next round — one variant's oracle work
// shrinks the others' key space for free. Pairs are ground truth for
// the shared circuit, so importing them is always sound; arrival order
// depends on scheduling, which is why only the (already
// scheduling-dependent) portfolio path uses a queue.
type DIPQueue struct {
	mu      sync.Mutex
	xs, ys  [][]bool
	src     []int
	members int
}

// NewDIPQueue returns an empty shared queue.
func NewDIPQueue() *DIPQueue { return &DIPQueue{} }

// Join registers one attack as a queue member and returns its private
// subscription handle. Each concurrent attack needs its own handle.
func (q *DIPQueue) Join() *DIPSub {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.members++
	return &DIPSub{q: q, id: q.members}
}

// DIPSub is one attack's view of a shared DIPQueue: a publisher
// identity plus a read cursor. It is owned by a single goroutine; the
// queue itself handles cross-goroutine synchronization.
type DIPSub struct {
	q      *DIPQueue
	id     int
	cursor int
}

// Publish records a batch of answered pairs for the other members.
// Ownership of the slices transfers to the queue: callers must not
// mutate them afterwards.
func (s *DIPSub) Publish(xs, ys [][]bool) {
	if s == nil || len(xs) == 0 {
		return
	}
	s.q.mu.Lock()
	for range xs {
		s.q.src = append(s.q.src, s.id)
	}
	s.q.xs = append(s.q.xs, xs...)
	s.q.ys = append(s.q.ys, ys...)
	s.q.mu.Unlock()
}

// Drain invokes f for every pair published by other members since the
// previous Drain and returns how many were delivered. Entries are
// delivered in publication order; the subscriber's own entries are
// skipped.
func (s *DIPSub) Drain(f func(x, y []bool)) int {
	if s == nil {
		return 0
	}
	s.q.mu.Lock()
	n := len(s.q.xs)
	xs := s.q.xs[s.cursor:n]
	ys := s.q.ys[s.cursor:n]
	src := s.q.src[s.cursor:n]
	s.cursor = n
	s.q.mu.Unlock()
	delivered := 0
	for i := range xs {
		if src[i] == s.id {
			continue
		}
		f(xs[i], ys[i])
		delivered++
	}
	return delivered
}

// miterImage is the memoized form of a constructed attack miter: a
// replayable solver snapshot plus the interface literals the loop needs.
// All fields are exported so the value survives the memo disk spill.
type miterImage struct {
	Img *sat.Image `json:"img"`
	X   []sat.Lit  `json:"x"`
	K1  []sat.Lit  `json:"k1"`
	K2  []sat.Lit  `json:"k2"`
	Act sat.Lit    `json:"act"`
}

// valid checks a (possibly disk-decoded) image against the circuit the
// attack is actually running on; anything inconsistent is rebuilt.
func (m *miterImage) valid(l *locking.Locked) bool {
	return m != nil && m.Img.Valid() &&
		len(m.X) == l.NumInputs && len(m.K1) == l.KeyBits && len(m.K2) == l.KeyBits
}

// buildMiter constructs the two-copy difference miter: both copies of
// the locked circuit share the input literals x, keep independent key
// literals k1/k2, and the output XORs are OR-ed into a difference signal
// guarded by the frozen activation literal act (act -> diff).
func buildMiter(l *locking.Locked) (s *sat.Solver, x, k1, k2 []sat.Lit, act sat.Lit) {
	s = sat.New()
	e1 := cnf.NewEncoder(l.Enc, s)
	e2 := cnf.NewEncoder(l.Enc, s)
	x = make([]sat.Lit, l.NumInputs)
	for i := range x {
		x[i] = e1.InputLit(i)
		e2.TieInput(i, x[i])
	}
	k1 = make([]sat.Lit, l.KeyBits)
	k2 = make([]sat.Lit, l.KeyBits)
	for i := 0; i < l.KeyBits; i++ {
		k1[i] = e1.InputLit(l.NumInputs + i)
		k2[i] = e2.InputLit(l.NumInputs + i)
	}
	o1 := e1.Encode()
	o2 := e2.Encode()
	diffs := make([]sat.Lit, len(o1))
	for i := range o1 {
		diffs[i] = cnf.XorLit(s, o1[i], o2[i])
	}
	diff := cnf.OrLit(s, diffs...)
	act = sat.MkLit(s.NewVar(), false)
	// act -> diff: the miter is active only under assumption act. The
	// activation literal is assumed both ways later, so it must survive
	// preprocessing.
	s.FreezeLit(act)
	s.AddClause(diff, act.Not())
	return s, x, k1, k2, act
}

// miterKey is the memo key of a locked circuit's attack miter. The
// fingerprint is renumbering-invariant, so isomorphic circuits share an
// entry: the replayed search is bit-identical for the graph the image
// was built from, and sound (same function, same interface positions)
// for any fingerprint-equal graph — see DESIGN.md for the one nuance
// this implies for cross-numbering search identity.
func miterKey(l *locking.Locked) string {
	return fmt.Sprintf("attack.miter/%s/m%d/k%d", l.Enc.Fingerprint(), l.NumInputs, l.KeyBits)
}

// cachedMiter returns a ready miter solver, replaying a memoized image
// when the cache holds one and building (and memoizing) it otherwise.
// With a nil cache it builds directly, image-free.
func cachedMiter(cache *memo.Cache, l *locking.Locked) (s *sat.Solver, x, k1, k2 []sat.Lit, act sat.Lit) {
	if cache == nil {
		return buildMiter(l)
	}
	mi, err := memo.Do(cache, miterKey(l), func() (*miterImage, error) {
		ms, mx, mk1, mk2, mact := buildMiter(l)
		return &miterImage{Img: ms.Export(), X: mx, K1: mk1, K2: mk2, Act: mact}, nil
	})
	if err == nil && mi.valid(l) {
		if rs := sat.NewFromImage(mi.Img); rs != nil {
			return rs, mi.X, mi.K1, mi.K2, mi.Act
		}
	}
	return buildMiter(l)
}

// blockDIP permanently excludes one input pattern from DIP enumeration.
// The clause carries the deactivated miter literal, so it can never
// constrain key extraction (which assumes act false), and once the
// pattern's I/O constraint is recorded the clause is implied outright —
// adding it can therefore never flip a later round's termination
// answer.
func (st *attackState) blockDIP(dip []bool) {
	lits := append(st.blockBuf[:0], st.actDiff.Not())
	for i, xl := range st.xLits {
		if dip[i] {
			lits = append(lits, xl.Not())
		} else {
			lits = append(lits, xl)
		}
	}
	st.blockBuf = lits
	st.s.AddClause(lits...)
}

// dipRound runs the solve-and-enumerate half of one pipeline round: it
// solves the active miter and, on Sat, harvests up to k distinct DIPs by
// blocking each one and re-solving. The returned status is the round's
// *first* solve answer — the only one that decides termination. A
// non-Sat answer during enumeration merely ends the batch early: Unsat
// there just means no pattern distinct from the blocked ones exists
// until the I/O constraints land, and Unknown (budget or cancellation)
// is noticed by the caller on the next round.
func (st *attackState) dipRound(k int) (sat.Status, [][]bool) {
	status := st.s.Solve(st.actDiff)
	if status != sat.Sat {
		return status, nil
	}
	dips := make([][]bool, 0, k)
	for {
		dip := make([]bool, len(st.xLits))
		for i, xl := range st.xLits {
			dip[i] = st.s.ModelValue(xl)
		}
		dips = append(dips, dip)
		if len(dips) >= k {
			break
		}
		st.blockDIP(dip)
		if st.s.Solve(st.actDiff) != sat.Sat {
			break
		}
	}
	return sat.Sat, dips
}

// answerBatch feeds one enumerated batch through the bit-parallel
// oracle and records the batching histograms. Drained queue pairs never
// pass through here — they were answered by their publisher.
func (st *attackState) answerBatch(dips [][]bool) [][]bool {
	if st.hDPS != nil {
		st.hDPS.Record(int64(len(dips)))
	}
	var t0 time.Time
	if st.hOracle != nil {
		t0 = time.Now()
	}
	ys := st.oracle.QueryBatch(dips)
	if st.hOracle != nil {
		st.hOracle.RecordDuration(time.Since(t0))
	}
	if st.hBatch != nil {
		st.hBatch.Record(int64(len(dips)))
	}
	return ys
}

// extractKey returns the lexicographically smallest key consistent with
// every recorded I/O constraint, or nil when none exists. After an
// exact termination the consistent keys are exactly the functionally
// correct keys, so the canonical choice makes the recovered key a
// property of the circuit alone: byte-identical at any DIP batch width,
// worker count or constraint order.
//
// The minimization reuses each Sat model to skip bits already false, so
// it solves at most once per model-true bit. If a trial solve is cut
// off (cancellation), the prefix decided so far completed with the
// current model is still a consistent key and is returned as-is.
func (st *attackState) extractKey() []bool {
	off := st.actDiff.Not()
	if st.s.Solve(off) != sat.Sat {
		return nil
	}
	key := make([]bool, st.l.KeyBits)
	for i, kl := range st.k1Lits {
		key[i] = st.s.ModelValue(kl)
	}
	assumps := make([]sat.Lit, 1, st.l.KeyBits+2)
	assumps[0] = off
	for i, kl := range st.k1Lits {
		if !key[i] {
			assumps = append(assumps, kl.Not())
			continue
		}
		trial := append(assumps[:len(assumps):len(assumps)], kl.Not())
		switch st.s.Solve(trial...) {
		case sat.Sat:
			key[i] = false
			for j := i + 1; j < st.l.KeyBits; j++ {
				key[j] = st.s.ModelValue(st.k1Lits[j])
			}
			assumps = append(assumps, kl.Not())
		case sat.Unsat:
			assumps = append(assumps, kl)
		default:
			return key
		}
	}
	return key
}
