package attacks

import (
	"context"
	"testing"

	"obfuslock/internal/lockbase"
	"obfuslock/internal/locking"
	"obfuslock/internal/netlistgen"
)

// The SAT attack's exactness claim must survive any preprocessing
// configuration: whenever the DIP loop reaches UNSAT, the extracted key
// has to restore the original function exactly — with full elimination
// and inprocessing, and with simp off. The keys themselves may differ
// between configurations (several keys can be correct), so the check is
// functional, not positional. Both DIP widths run: the serial loop folds
// one DIP per round, the default width folds a whole batch into one
// round graph. SARLock's serial attack takes dozens of DIPs, so "on"
// inprocesses between rounds (every 16 DIPs) there.
func TestSATAttackSimpOnOffBothExact(t *testing.T) {
	type instance struct {
		name string
		mk   func(seed int64) (*locking.Locked, error)
	}
	instances := []instance{
		{"rll", func(seed int64) (*locking.Locked, error) {
			return lockbase.RLL(netlistgen.Multiplier(4), 10, seed)
		}},
		{"sarlock", func(seed int64) (*locking.Locked, error) {
			return lockbase.SARLock(netlistgen.AdderCmp(4), 6, seed)
		}},
		{"antisat", func(seed int64) (*locking.Locked, error) {
			return lockbase.AntiSAT(netlistgen.Multiplier(4), 6, seed)
		}},
	}
	configs := map[string]bool{
		"on":  false,
		"off": true,
	}
	for seed := int64(0); seed < 8; seed++ {
		for _, ins := range instances {
			l, err := ins.mk(seed)
			if err != nil {
				t.Fatal(err)
			}
			orig := l.ApplyKey(l.Key)
			for name, noSimp := range configs {
				for _, batch := range []int{1, 0} {
					opt := DefaultIOOptions()
					opt.Seed = seed
					opt.NoSimp = noSimp
					opt.DIPBatch = batch
					r := SATAttack(context.Background(), l, locking.NewOracle(orig), opt)
					if !r.Exact {
						t.Fatalf("%s seed %d simp=%s batch=%d: attack did not terminate exact",
							ins.name, seed, name, batch)
					}
					ok, err := l.VerifyKey(orig, r.Key)
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						t.Errorf("%s seed %d simp=%s batch=%d: exact claim with a wrong key (iters=%d)",
							ins.name, seed, name, batch, r.Iterations)
					}
				}
			}
		}
	}
}

// The DIP loop inprocesses once in every round whose iteration span
// (lo, hi] reaches a multiple of 16 DIPs: the serial loop at DIPs 16,
// 32, ..., a batched round once however many multiples it covers.
func TestInprocessDue(t *testing.T) {
	cases := []struct {
		lo, hi int
		want   bool
	}{
		{0, 0, false}, {0, 1, false}, {14, 15, false}, {15, 16, true},
		{16, 17, false}, {31, 32, true}, {32, 33, false},
		{16, 31, false}, {15, 17, true}, {17, 48, true}, {0, 64, true},
	}
	for _, c := range cases {
		if got := inprocessDue(c.lo, c.hi); got != c.want {
			t.Errorf("inprocessDue(%d, %d) = %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
}
