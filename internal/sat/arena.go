package sat

import "math"

// Flat clause arena. Every clause lives in one shared []uint32: a header
// word, two extra words for learnt clauses (activity, LBD|tier|used
// meta), then the literals. Clause references (cref) are arena offsets
// of the header word, so following a reference is one slice index — no
// pointer chase, no per-clause allocation, and the whole database is
// contiguous for the propagation loop.
//
// Deletion marks the header and accounts the words as wasted; the
// storage is reclaimed by a compacting garbage collector
// (Solver.garbageCollect) that copies live clauses into a fresh arena,
// leaves a forwarding reference behind each moved clause, and remaps
// every watcher, reason and database index through the forwarding
// table. In-place shrinking (simplification strengthening a clause)
// likewise accounts the dropped tail words as wasted.
//
// Layout:
//
//	problem clause: [hdr][lit0]...[litN-1]
//	learnt clause:  [hdr][act][meta][lit0]...[litN-1]
//	hdr  = size<<3 | reloc<<2 | deleted<<1 | learnt
//	act  = float32 bits (claInc-bumped activity, local-tier ordering)
//	meta = used<<18 | tier<<16 | min(lbd, 0xffff)
//
// A relocated clause keeps its header (sizes stay readable during GC)
// with the reloc bit set, and its first post-header word holds the
// forwarding cref. Clauses always have >= 2 literals (units go to the
// trail), so that word exists.

// cref is a clause reference: the arena offset of the clause header.
type cref uint32

// crefUndef is the absent clause reference (no reason / no conflict).
const crefUndef cref = ^cref(0)

const (
	hdrLearnt    uint32 = 1 << 0
	hdrDeleted   uint32 = 1 << 1
	hdrReloc     uint32 = 1 << 2
	hdrSizeShift        = 3
)

// Learnt-clause tiers (glucose/Chanseok-Oh style three-tier management).
const (
	tierLocal uint32 = iota // reducible: sorted out by reduceDB
	tierMid                 // LBD <= 6: kept while it keeps being used
	tierCore                // LBD <= 3: kept forever
)

const (
	metaLBDMask   uint32 = 0xffff
	metaTierShift        = 16
	metaTierMask  uint32 = 3 << metaTierShift
	metaUsedBit   uint32 = 1 << 18
	learntExtra          = 2 // words between header and literals
)

// tierFor maps an LBD to the tier a fresh learnt clause lands in.
func tierFor(lbd int) uint32 {
	switch {
	case lbd <= 3:
		return tierCore
	case lbd <= 6:
		return tierMid
	}
	return tierLocal
}

type arena struct {
	data   []uint32
	wasted int // words owned by deleted clauses and shrunk tails
}

// alloc packs a clause into the arena and returns its reference.
func (a *arena) alloc(lits []Lit, learnt bool, lbd int) cref {
	c := cref(len(a.data))
	hdr := uint32(len(lits)) << hdrSizeShift
	if learnt {
		hdr |= hdrLearnt
	}
	a.data = append(a.data, hdr)
	if learnt {
		meta := uint32(lbd)
		if meta > metaLBDMask {
			meta = metaLBDMask
		}
		meta |= tierFor(lbd) << metaTierShift
		a.data = append(a.data, 0, meta)
	}
	for _, l := range lits {
		a.data = append(a.data, uint32(l))
	}
	return c
}

func (a *arena) size(c cref) int     { return int(a.data[c] >> hdrSizeShift) }
func (a *arena) learnt(c cref) bool  { return a.data[c]&hdrLearnt != 0 }
func (a *arena) deleted(c cref) bool { return a.data[c]&hdrDeleted != 0 }

// words is the clause's total footprint including header and extras.
func (a *arena) words(c cref) int {
	n := 1 + a.size(c)
	if a.data[c]&hdrLearnt != 0 {
		n += learntExtra
	}
	return n
}

func (a *arena) litOff(c cref) cref {
	if a.data[c]&hdrLearnt != 0 {
		return c + 1 + learntExtra
	}
	return c + 1
}

// lits returns the clause's literal words. Callers read/write literals
// as Lit(w) / uint32(l); the slice aliases the arena, so it is
// invalidated by alloc and garbageCollect.
func (a *arena) lits(c cref) []uint32 {
	off := a.litOff(c)
	return a.data[off : off+cref(a.size(c))]
}

// litAt reads one literal.
func (a *arena) litAt(c cref, i int) Lit { return Lit(a.data[a.litOff(c)+cref(i)]) }

// del marks the clause deleted and accounts its words as garbage. The
// literals stay readable until the next garbageCollect, so lazily
// cleaned watcher lists can still inspect the header.
func (a *arena) del(c cref) {
	a.data[c] |= hdrDeleted
	a.wasted += a.words(c)
}

// shrink truncates the clause to its first n literals, accounting the
// dropped tail as garbage.
func (a *arena) shrink(c cref, n int) {
	old := a.size(c)
	if n >= old {
		return
	}
	const flagMask = uint32(1)<<hdrSizeShift - 1
	a.data[c] = a.data[c]&flagMask | uint32(n)<<hdrSizeShift
	a.wasted += old - n
}

func (a *arena) act(c cref) float32 { return math.Float32frombits(a.data[c+1]) }
func (a *arena) setAct(c cref, v float32) {
	a.data[c+1] = math.Float32bits(v)
}

func (a *arena) lbd(c cref) int { return int(a.data[c+2] & metaLBDMask) }
func (a *arena) setLBD(c cref, lbd int) {
	v := uint32(lbd)
	if v > metaLBDMask {
		v = metaLBDMask
	}
	a.data[c+2] = a.data[c+2]&^metaLBDMask | v
}

func (a *arena) tier(c cref) uint32 { return (a.data[c+2] & metaTierMask) >> metaTierShift }
func (a *arena) setTier(c cref, t uint32) {
	a.data[c+2] = a.data[c+2]&^metaTierMask | t<<metaTierShift
}

func (a *arena) used(c cref) bool { return a.data[c+2]&metaUsedBit != 0 }
func (a *arena) setUsed(c cref, u bool) {
	if u {
		a.data[c+2] |= metaUsedBit
	} else {
		a.data[c+2] &^= metaUsedBit
	}
}

// gcDue reports whether enough garbage accumulated to pay for a
// compaction pass (a third of the arena, and enough absolute waste that
// tiny solvers never bother).
func (a *arena) gcDue() bool {
	return a.wasted > 1024 && 3*a.wasted > len(a.data)
}

// maybeGC compacts the arena when enough garbage accumulated. Callers
// must be at a point where watcher lists and reasons are the only
// outstanding cref holders (i.e. not mid-simplification, where
// occurrence lists also hold refs).
func (s *Solver) maybeGC() {
	if s.ar.gcDue() {
		s.garbageCollect()
	}
}

// garbageCollect compacts the clause arena: live clauses are copied to
// a fresh arena in database order (problem clauses first, then
// learnts), each old header gains a forwarding reference, and every
// outstanding cref — clause/learnt indices, trail reasons, watcher
// lists — is remapped. Deleted clauses are dropped from the watcher
// lists here, which replaces the old tombstone-flag + full-watch-rebuild
// protocol in reduceDB.
func (s *Solver) garbageCollect() {
	old := s.ar.data
	to := make([]uint32, 0, len(old)-s.ar.wasted+16)
	move := func(c cref) cref {
		if old[c]&hdrReloc != 0 {
			return cref(old[c+1])
		}
		n := 1 + int(old[c]>>hdrSizeShift)
		if old[c]&hdrLearnt != 0 {
			n += learntExtra
		}
		nc := cref(len(to))
		to = append(to, old[c:c+cref(n)]...)
		old[c] |= hdrReloc
		old[c+1] = uint32(nc)
		return nc
	}
	keep := s.clauses[:0]
	newMark := 0
	for i, c := range s.clauses {
		if old[c]&hdrDeleted == 0 {
			if i < s.simpMark {
				newMark++
			}
			keep = append(keep, move(c))
		}
	}
	s.clauses = keep
	if s.simpMark >= 0 {
		s.simpMark = newMark
	}
	keepL := s.learnts[:0]
	for _, c := range s.learnts {
		if old[c]&hdrDeleted == 0 {
			keepL = append(keepL, move(c))
		}
	}
	s.learnts = keepL
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r != crefUndef {
			if old[r]&hdrDeleted != 0 {
				// A root-level reason whose clause was since removed
				// (vivification propagations); root reasons are never
				// dereferenced, so drop the edge instead of keeping the
				// dead clause alive.
				s.reason[l.Var()] = crefUndef
				continue
			}
			s.reason[l.Var()] = move(r)
		}
	}
	for i := range s.watches {
		ws := s.watches[i][:0]
		for _, w := range s.watches[i] {
			if old[w.cref]&hdrDeleted != 0 {
				continue
			}
			w.cref = move(w.cref)
			ws = append(ws, w)
		}
		s.watches[i] = ws
	}
	s.ar.data = to
	s.ar.wasted = 0
	s.stats.GCs++
}
