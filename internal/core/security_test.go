package core

import (
	"context"
	"testing"
	"time"

	"obfuslock/internal/aig"
	"obfuslock/internal/attacks"
	"obfuslock/internal/cec"
	"obfuslock/internal/exec"
	"obfuslock/internal/lockbase"
	"obfuslock/internal/locking"
	"obfuslock/internal/netlistgen"
)

// lockedFixture locks a 25-input adder at 10 bits of skewness once for the
// whole security suite.
func lockedFixture(t *testing.T, seed int64) (*aig.AIG, *Result) {
	t.Helper()
	c := netlistgen.AdderCmp(12)
	opt := DefaultOptions()
	opt.TargetSkewBits = 10
	opt.Seed = seed
	opt.AllowDirect = false
	res, err := Lock(context.Background(), c, opt)
	if err != nil {
		t.Fatal(err)
	}
	return c, res
}

// The SAT attack must not finish within a DIP budget far below 2^skew.
func TestObfusLockResistsSATAttack(t *testing.T) {
	c, res := lockedFixture(t, 21)
	oracle := locking.NewOracle(c)
	opt := attacks.DefaultIOOptions()
	opt.MaxIterations = 60 // ~2^10 needed
	r := attacks.SATAttack(context.Background(), res.Locked, oracle, opt)
	if r.Exact {
		t.Fatalf("SAT attack finished ObfusLock in %d iterations", r.Iterations)
	}
	if r.Key != nil {
		ok, err := res.Locked.VerifyKey(c, r.Key)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatal("SAT attack's partial key is correct — skew analysis must be wrong")
		}
	}
}

// AppSAT at a modest iteration cap must return a wrong key (the paper's
// "wrong" cells in Table I).
func TestObfusLockDefeatsAppSAT(t *testing.T) {
	c, res := lockedFixture(t, 22)
	oracle := locking.NewOracle(c)
	opt := attacks.DefaultIOOptions()
	opt.MaxIterations = 40
	opt.Seed = 1
	r := attacks.AppSAT(context.Background(), res.Locked, oracle, opt)
	if r.Key == nil {
		t.Fatal("AppSAT returned no key at all")
	}
	if r.Exact {
		t.Fatal("AppSAT finished exactly — should not at this skew")
	}
	ok, err := res.Locked.VerifyKey(c, r.Key)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("AppSAT's approximate key is exactly correct — vanishingly unlikely")
	}
}

// All key bits must be sensitized together: the sensitization attack
// recovers nothing.
func TestObfusLockResistsSensitization(t *testing.T) {
	c, res := lockedFixture(t, 23)
	oracle := locking.NewOracle(c)
	r := attacks.Sensitization(context.Background(), res.Locked, oracle, exec.WithConflicts(100000))
	if r.NumIsolatable != 0 {
		t.Fatalf("%d key bits isolatable; input permutation should mute none", r.NumIsolatable)
	}
}

// Bypass must drown: every input pattern is protected by permutation.
func TestObfusLockResistsBypass(t *testing.T) {
	c, res := lockedFixture(t, 24)
	wrong := append([]bool(nil), res.Locked.Key...)
	wrong[0] = !wrong[0]
	wrong[1] = !wrong[1]
	r := attacks.Bypass(context.Background(), res.Locked, c, wrong, 64, exec.WithConflicts(500000))
	if r.Success {
		t.Fatalf("bypass succeeded with %d patterns", r.Patterns)
	}
}

// The critical nodes — root of C's protected cone and root of L — must be
// eliminated: no node of the (wrong-key-bound) netlist computes either
// function.
func TestObfusLockEliminatesCriticalNodes(t *testing.T) {
	c, res := lockedFixture(t, 25)
	po := res.Report.ProtectedOutput
	spec := c.Output(po)
	fopt := cec.FindOptions{SimWords: 8, Seed: 3, Budget: exec.WithConflicts(200000)}
	if lit, found := attacks.CriticalNodeSurvives(context.Background(), res.Locked, c, spec, fopt); found {
		t.Fatalf("original root survives as %v", lit)
	}
}

// Valkyrie-style perturb/restore search must fail: no node pair replacement
// reproduces the oracle.
func TestObfusLockResistsValkyrie(t *testing.T) {
	c, res := lockedFixture(t, 26)
	opt := cec.DefaultOptions()
	opt.Budget = exec.WithConflicts(50000)
	r := attacks.Valkyrie(context.Background(), res.Locked, c, 6, 64, 4, opt)
	if r.FoundPair {
		t.Fatalf("valkyrie broke ObfusLock: %+v", r)
	}
}

// SPI must return an incorrect key.
func TestObfusLockDefeatsSPI(t *testing.T) {
	c, res := lockedFixture(t, 27)
	r := attacks.SPI(res.Locked, 6)
	ok, err := res.Locked.VerifyKey(c, r.Key)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("SPI recovered the ObfusLock key")
	}
}

// Removal attack on the SPS shortlist must fail.
func TestObfusLockResistsRemoval(t *testing.T) {
	c, res := lockedFixture(t, 28)
	sps := attacks.SPS(res.Locked, 64, 5, 8)
	opt := cec.DefaultOptions()
	opt.Budget = exec.WithConflicts(50000)
	r := attacks.Removal(context.Background(), res.Locked, c, sps.Candidates, opt)
	if r.Success {
		t.Fatalf("removal broke ObfusLock at node %d", r.Node)
	}
}

// Sanity: the attack budget used above is genuinely able to crack an easy
// scheme, so the resistance results are meaningful (no broken-attack
// false negatives).
func TestAttackBudgetSanity(t *testing.T) {
	c := netlistgen.AdderCmp(12)
	l, err := lockbaseRLL(c)
	if err != nil {
		t.Fatal(err)
	}
	oracle := locking.NewOracle(c)
	opt := attacks.DefaultIOOptions()
	opt.MaxIterations = 60
	opt.Timeout = 30 * time.Second
	r := attacks.SATAttack(context.Background(), l, oracle, opt)
	if !r.Exact {
		t.Fatalf("budgeted SAT attack cannot even crack RLL: %+v", r)
	}
}

func lockbaseRLL(c *aig.AIG) (*locking.Locked, error) {
	// Local shim to avoid importing lockbase at top level twice.
	return rllShim(c)
}

// rllShim wires the lockbase baseline without cluttering the imports above.
func rllShim(c *aig.AIG) (*locking.Locked, error) {
	return lockbase.RLL(c, 10, 1)
}
