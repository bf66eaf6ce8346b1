// IP-protection walkthrough: the full defender + red-team flow on the
// c6288-class multiplier — lock, measure PPA overhead, then run the entire
// attack battery (I/O and structural) against the shipped netlist.
//
// This is the workload the paper's introduction motivates: an untrusted
// foundry holds the encrypted netlist and a working chip, and must not be
// able to recover the function.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"obfuslock"
	"obfuslock/internal/attacks"
	"obfuslock/internal/cec"
	"obfuslock/internal/exec"
	"obfuslock/internal/experiments"
	"obfuslock/internal/locking"
	"obfuslock/internal/netlistgen"
)

func main() {
	// The IP to protect: a 16-bit adder/comparator datapath (c7552
	// family, reduced so the demo finishes in seconds; 33 inputs keep the
	// wrong-key corruption set at ~2^23 patterns, far beyond any bypass
	// budget — multiplier-class IPs work too but their XOR-dense miters
	// make the red-team equivalence proofs slow).
	c := netlistgen.AdderCmp(16)
	fmt.Printf("IP: %s — %s\n", c.Name, c.Stats())

	// ---- Defender side -------------------------------------------------
	opt := obfuslock.DefaultOptions()
	opt.TargetSkewBits = 10
	opt.Seed = 7
	opt.AllowDirect = false
	start := time.Now()
	res, err := obfuslock.Lock(c, opt)
	if err != nil {
		log.Fatal(err)
	}
	l := res.Locked
	fmt.Printf("locked in %v: key=%d bits, L skew=%.1f bits (%d operator attachments)\n",
		time.Since(start), res.Report.KeyBits, res.Report.SkewBits, res.Report.Attachments)

	if err := l.Verify(c); err != nil {
		log.Fatal(err)
	}
	fmt.Println("key verified by SAT equivalence checking")

	orig := obfuslock.AnalyzePPA(c, 8, 1)
	locked := obfuslock.AnalyzePPA(l.Enc, 8, 1)
	ov := obfuslock.ComparePPA(orig, locked)
	fmt.Printf("PPA: original %v\n     locked   %v\n", orig, locked)
	fmt.Printf("overhead: area %.1f%%, power %.1f%%, delay %.1f%%\n",
		ov.AreaPct, ov.PowerPct, ov.DelayPct)

	// Fig. 4 style check: before/after structural transformation.
	before, after, err := experiments.Fig4(context.Background(), c, 10, 7, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Fig4 before transformation: critical node visible = %v (max skew %.1f bits)\n",
		before.CriticalVisible, before.MaxSkewBits)
	fmt.Printf("Fig4 after  transformation: critical node visible = %v\n",
		after.CriticalVisible)

	// ---- Attacker side -------------------------------------------------
	oracle := locking.NewOracle(c)
	fmt.Println("\nred team: oracle-guided I/O attacks")
	aopt := attacks.DefaultIOOptions()
	aopt.MaxIterations = 64
	aopt.Timeout = time.Minute
	sat := attacks.SATAttack(context.Background(), l, oracle, aopt)
	fmt.Printf("  SAT attack:   %s\n", verdict(l, c, sat))
	app := attacks.AppSAT(context.Background(), l, oracle, aopt)
	fmt.Printf("  AppSAT:       %s\n", verdict(l, c, app))

	sens := attacks.Sensitization(context.Background(), l, oracle, exec.WithConflicts(200000))
	fmt.Printf("  sensitization: %d/%d key bits isolatable\n", sens.NumIsolatable, l.KeyBits)

	fmt.Println("red team: structural attacks")
	// Bind an arbitrary key and search the bound netlist for the protected
	// output's function: found, refuted (no node computes it) or undecided
	// (the search ran out of budget, which proves nothing either way).
	bound := l.ApplyKey(make([]bool, l.KeyBits))
	_, critical := cec.FindNode(context.Background(), bound, c, c.Output(res.Report.ProtectedOutput), cec.DefaultFindOptions())
	fmt.Printf("  critical node CEC search: %v\n", critical)

	copt := cec.DefaultOptions()
	copt.Budget = exec.WithConflicts(50000)
	sps := attacks.SPS(l, 128, 1, 8)
	rm := attacks.Removal(context.Background(), l, c, sps.Candidates, copt)
	fmt.Printf("  SPS+removal:  success=%v (%d candidates tried, %d undecided)\n", rm.Success, rm.Tried, rm.Undecided)

	vk := attacks.Valkyrie(context.Background(), l, c, 6, 64, 1, copt)
	fmt.Printf("  valkyrie:     found perturb/restore pair=%v (%d pairs tried, %d undecided)\n",
		vk.FoundPair, vk.PairsTried, vk.Undecided)

	spi := attacks.SPI(l, 6)
	ok, _ := l.VerifyKey(c, spi.Key)
	fmt.Printf("  SPI:          returned correct key=%v\n", ok)

	wrong := make([]bool, l.KeyBits)
	bp := attacks.Bypass(context.Background(), l, c, wrong, 128, exec.WithConflicts(500000))
	fmt.Printf("  bypass:       feasible=%v (corrupted patterns enumerated: %d, budget exhausted: %v)\n",
		bp.Success, bp.Patterns, bp.Exhausted)
}

func verdict(l *obfuslock.Locked, c *obfuslock.Circuit, r attacks.IOResult) string {
	if r.Key != nil {
		if ok, _ := l.VerifyKey(c, r.Key); ok {
			return fmt.Sprintf("BROKEN in %d iterations (%v)", r.Iterations, r.Runtime)
		}
	}
	return fmt.Sprintf("defeated — %d iterations, wrong/no key (%v)", r.Iterations, r.Runtime)
}
