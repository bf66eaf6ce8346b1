package sat

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
)

// randomPreSearchSolver builds a solver with random clauses (including
// units, duplicates and level-0 propagation chains) but no search.
func randomPreSearchSolver(t *testing.T, seed int64) (*Solver, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := New()
	n := 8 + rng.Intn(12)
	for i := 0; i < n; i++ {
		s.NewVar()
	}
	for i := 0; i < n/3; i++ {
		s.FreezeLit(MkLit(rng.Intn(n), false))
	}
	clauses := 3 * n
	for i := 0; i < clauses && s.ok; i++ {
		width := 1 + rng.Intn(4)
		lits := make([]Lit, width)
		for j := range lits {
			lits[j] = MkLit(rng.Intn(n), rng.Intn(2) == 1)
		}
		s.AddClause(lits...)
	}
	return s, n
}

// driveIdentically runs the same post-snapshot workload on two solvers
// and asserts identical answers, models and statistics at every step.
func driveIdentically(t *testing.T, a, b *Solver, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for step := 0; step < 6; step++ {
		width := 2 + rng.Intn(3)
		lits := make([]Lit, width)
		for j := range lits {
			lits[j] = MkLit(rng.Intn(n), rng.Intn(2) == 1)
		}
		oka := a.AddClause(lits...)
		okb := b.AddClause(lits...)
		if oka != okb {
			t.Fatalf("step %d: AddClause diverged: %v vs %v", step, oka, okb)
		}
		var assumps []Lit
		if rng.Intn(2) == 0 {
			assumps = []Lit{MkLit(rng.Intn(n), rng.Intn(2) == 1)}
		}
		sta := a.Solve(assumps...)
		stb := b.Solve(assumps...)
		if sta != stb {
			t.Fatalf("step %d: Solve diverged: %v vs %v", step, sta, stb)
		}
		if sta == Sat {
			for v := 0; v < n; v++ {
				l := MkLit(v, false)
				if a.ModelValue(l) != b.ModelValue(l) {
					t.Fatalf("step %d: model diverged at var %d", step, v)
				}
			}
		}
		if a.Stats() != b.Stats() {
			t.Fatalf("step %d: stats diverged:\n%+v\n%+v", step, a.Stats(), b.Stats())
		}
	}
}

func TestImageReplayIdentical(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		s, n := randomPreSearchSolver(t, seed)
		img := s.Export()
		if !img.Valid() {
			t.Fatalf("seed %d: exported image invalid", seed)
		}
		r := NewFromImage(img)
		if r == nil {
			t.Fatalf("seed %d: replay refused a valid image", seed)
		}
		if r.NumVars() != s.NumVars() || r.Stats() != s.Stats() {
			t.Fatalf("seed %d: replayed shape differs", seed)
		}
		driveIdentically(t, s, r, n, seed^0x5eed)
	}
}

func TestImageJSONRoundTrip(t *testing.T) {
	s, n := randomPreSearchSolver(t, 42)
	img := s.Export()
	raw, err := json.Marshal(img)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Image
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(img, &back) {
		t.Fatal("image changed across JSON round trip")
	}
	r := NewFromImage(&back)
	if r == nil {
		t.Fatal("replay refused round-tripped image")
	}
	driveIdentically(t, s, r, n, 7)
}

func TestImageReplayIndependent(t *testing.T) {
	// Mutating the replayed solver must not leak back into the image: a
	// second replay from the same image behaves like the first did.
	s, n := randomPreSearchSolver(t, 9)
	img := s.Export()
	r1 := NewFromImage(img)
	driveIdentically(t, s, r1, n, 11)
	r2 := NewFromImage(img)
	fresh := NewFromImage(img)
	driveIdentically(t, fresh, r2, n, 11)
}

// TestImageRestoredSolversConcurrent proves two solvers restored from
// the same image share no mutable state: driven concurrently with
// different workloads, each must produce exactly the answers a
// serially-driven twin produces.
func TestImageRestoredSolversConcurrent(t *testing.T) {
	s, n := randomPreSearchSolver(t, 17)
	img := s.Export()

	type outcome struct {
		st    Status
		model []bool
	}
	drive := func(r *Solver, extra Lit) []outcome {
		var outs []outcome
		for step := 0; step < 4; step++ {
			st := r.Solve(extra)
			o := outcome{st: st}
			if st == Sat {
				o.model = r.Model()
				var block []Lit
				for v := 0; v < n; v++ {
					block = append(block, MkLit(v, o.model[v]))
				}
				r.AddClause(block...)
			}
			outs = append(outs, o)
			if st != Sat {
				break
			}
		}
		return outs
	}

	litA, litB := MkLit(0, false), MkLit(1, true)
	// Serial references first.
	wantA := drive(NewFromImage(img), litA)
	wantB := drive(NewFromImage(img), litB)

	ra, rb := NewFromImage(img), NewFromImage(img)
	done := make(chan []outcome, 2)
	go func() { done <- drive(ra, litA) }()
	go func() { done <- drive(rb, litB) }()
	got1, got2 := <-done, <-done
	match := func(got, want []outcome) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].st != want[i].st || !reflect.DeepEqual(got[i].model, want[i].model) {
				return false
			}
		}
		return true
	}
	okA := match(got1, wantA) || match(got2, wantA)
	okB := match(got1, wantB) || match(got2, wantB)
	if !okA || !okB {
		t.Fatalf("concurrently driven restored solvers diverged from serial twins:\nA want %+v\nB want %+v\ngot %+v / %+v",
			wantA, wantB, got1, got2)
	}
}

func TestImageInvalid(t *testing.T) {
	var nilImg *Image
	if nilImg.Valid() {
		t.Fatal("nil image reported valid")
	}
	if NewFromImage(nilImg) != nil {
		t.Fatal("replay of nil image should fail")
	}
	// A zero-value image (what decoding "{}" yields) is the empty solver.
	empty := &Image{}
	if !empty.Valid() {
		t.Fatal("empty image should be valid")
	}
	s, _ := randomPreSearchSolver(t, 3)
	img := s.Export()
	img.Assign = img.Assign[:len(img.Assign)-1]
	if img.Valid() {
		t.Fatal("truncated image reported valid")
	}
	if NewFromImage(img) != nil {
		t.Fatal("replay of truncated image should fail")
	}
}

func TestExportPanicsAfterSearch(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(MkLit(a, false), MkLit(b, false))
	s.AddClause(MkLit(a, true), MkLit(b, false))
	s.AddClause(MkLit(a, false), MkLit(b, true))
	s.AddClause(MkLit(a, true), MkLit(b, true))
	if s.Solve() != Unsat {
		t.Fatal("expected UNSAT")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Export after search did not panic")
		}
	}()
	s.Export()
}

func TestExportPanicsAfterSimplify(t *testing.T) {
	s := New()
	for i := 0; i < 6; i++ {
		s.NewVar()
	}
	s.AddClause(MkLit(0, false), MkLit(1, false))
	s.AddClause(MkLit(1, true), MkLit(2, false))
	s.FreezeLit(MkLit(0, false))
	s.Simplify(DefaultSimpOptions())
	defer func() {
		if recover() == nil {
			t.Fatal("Export after Simplify did not panic")
		}
	}()
	s.Export()
}
