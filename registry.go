// Registries for the baseline locking schemes and the oracle-guided
// attacks. The CLIs and examples select by name through these instead of
// hand-rolled switch statements, so adding a scheme or an attack is one
// registry entry, not N call sites.
package obfuslock

import (
	"context"
	"fmt"
	"sort"

	"obfuslock/internal/attacks"
	"obfuslock/internal/lockbase"
)

// SchemeOptions parameterizes the baseline locking schemes that LockWith
// applies. Each scheme reads the fields it needs and ignores the rest;
// zero values fall back to per-scheme defaults.
type SchemeOptions struct {
	// KeyBits is the number of inserted key gates (RLL).
	KeyBits int
	// ProtWidth is the protected input width (SARLock, Anti-SAT, TTLock,
	// SFLL-HD): the flip logic watches this many inputs.
	ProtWidth int
	// HammingDistance is SFLL-HD's protected distance h.
	HammingDistance int
	// Seed drives each scheme's randomized choices.
	Seed int64
}

// schemeFunc adapts one baseline to the common registry signature.
type schemeFunc func(c *Circuit, opt SchemeOptions) (*Locked, error)

// schemeRegistry maps scheme names to constructors. Names are the
// lower-case identifiers the CLIs accept.
var schemeRegistry = map[string]schemeFunc{
	"rll": func(c *Circuit, opt SchemeOptions) (*Locked, error) {
		return lockbase.RLL(c, defaultInt(opt.KeyBits, 16), opt.Seed)
	},
	"sarlock": func(c *Circuit, opt SchemeOptions) (*Locked, error) {
		return lockbase.SARLock(c, defaultInt(opt.ProtWidth, 10), opt.Seed)
	},
	"antisat": func(c *Circuit, opt SchemeOptions) (*Locked, error) {
		return lockbase.AntiSAT(c, defaultInt(opt.ProtWidth, 10), opt.Seed)
	},
	"ttlock": func(c *Circuit, opt SchemeOptions) (*Locked, error) {
		return lockbase.TTLock(c, defaultInt(opt.ProtWidth, 10), opt.Seed)
	},
	"sfll-hd": func(c *Circuit, opt SchemeOptions) (*Locked, error) {
		return lockbase.SFLLHD(c, defaultInt(opt.ProtWidth, 10), opt.HammingDistance, opt.Seed)
	},
}

func defaultInt(v, d int) int {
	if v == 0 {
		return d
	}
	return v
}

// schemes lists the registered baseline locking schemes, sorted by name,
// for LockWith's unknown-name error.
func schemes() []string {
	names := make([]string, 0, len(schemeRegistry))
	for name := range schemeRegistry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// LockWith applies the named baseline locking scheme to the circuit.
// Unknown names report an error listing the registry. Cancelling ctx
// before the call starts aborts it; the baselines themselves are fast
// (no SAT solving) and run to completion once started.
func LockWith(ctx context.Context, name string, c *Circuit, opt SchemeOptions) (*Locked, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("obfuslock: lock %s cancelled: %w", name, err)
		}
	}
	fn, ok := schemeRegistry[name]
	if !ok {
		return nil, fmt.Errorf("obfuslock: unknown scheme %q (have %v)", name, schemes())
	}
	return fn(c, opt)
}

// Attack is one oracle-guided key-recovery attack. Implementations are
// stateless; Run may be called concurrently with distinct oracles.
type Attack interface {
	// Run attacks the locked design with query access to the oracle.
	// Cancelling ctx stops the attack within one solver progress
	// interval; opt bounds it (AttackOptions.Timeout, .MaxIterations).
	Run(ctx context.Context, l *Locked, o *Oracle, opt AttackOptions) AttackResult
}

// attackFunc adapts one attack entry point to the Attack interface.
type attackFunc func(ctx context.Context, l *Locked, o *Oracle, opt AttackOptions) AttackResult

func (f attackFunc) Run(ctx context.Context, l *Locked, o *Oracle, opt AttackOptions) AttackResult {
	return f(ctx, l, o, opt)
}

// attackRegistry maps attack names to the two entry points of the shared
// DIP loop: the SAT attack (Subramanyan et al.) and AppSAT (Shamsi et al.).
var attackRegistry = map[string]attackFunc{
	"sat":    attacks.SATAttack,
	"appsat": attacks.AppSAT,
}

// AttackNamed returns the registered attack with the given name.
func AttackNamed(name string) (Attack, bool) {
	a, ok := attackRegistry[name]
	if !ok {
		return nil, false
	}
	return a, true
}
