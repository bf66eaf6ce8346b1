package attacks

import (
	"context"
	"runtime"
	"testing"
	"time"

	"obfuslock/internal/exec"
	"obfuslock/internal/lockbase"
	"obfuslock/internal/locking"
	"obfuslock/internal/obs"
)

// cancelOnDIP is an obs.Sink that fires a CancelFunc on the attack's
// first per-iteration "dip" event. The event is emitted synchronously
// inside the DIP loop, right before its cancellation check, so the
// cancellation is pinned mid-attack no matter how fast the solver
// finishes — a wall-clock sleep would race attack completion.
type cancelOnDIP struct{ cancel context.CancelFunc }

func (c *cancelOnDIP) SpanStart(obs.SpanData) {}
func (c *cancelOnDIP) SpanEnd(obs.SpanData)   {}
func (c *cancelOnDIP) Event(_ uint64, name string, _ time.Time, _ []obs.Field) {
	if name == "dip" {
		c.cancel()
	}
}

// waitForGoroutines polls until the goroutine count drops back to at most
// base (plus the runtime's own slack) or the deadline passes, and returns
// the final count. Direct equality is too brittle — the runtime keeps a
// few service goroutines alive — so callers compare against a tolerance.
func waitForGoroutines(base int, deadline time.Duration) int {
	var n int
	for start := time.Now(); time.Since(start) < deadline; {
		n = runtime.NumGoroutine()
		if n <= base {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// ioAttacks are the two entry points of the shared DIP loop.
var ioAttacks = []struct {
	name string
	run  func(context.Context, *locking.Locked, *locking.Oracle, IOOptions) IOResult
}{
	{"sat", SATAttack},
	{"appsat", AppSAT},
}

// Cancelling the context mid-attack must stop either I/O attack promptly
// with a timeout-style result and leak no goroutines. The context is
// cancelled from the first DIP iteration's trace event, so the attack is
// provably mid-run when cancellation lands.
func TestSATAttackPromptCancellation(t *testing.T) {
	orig := smallCircuit()
	l, err := lockbase.SARLock(orig, 14, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range ioAttacks {
		t.Run(a.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			opt := DefaultIOOptions()
			opt.Trace = obs.New(&cancelOnDIP{cancel: cancel})
			start := time.Now()
			res := a.run(ctx, l, locking.NewOracle(orig), opt)
			elapsed := time.Since(start)
			if !res.TimedOut {
				t.Fatalf("cancelled attack did not report TimedOut: %+v", res)
			}
			if res.Exact {
				t.Fatalf("cancelled attack claims an exact key: %+v", res)
			}
			// The solver polls cancellation every 64 conflict-loop ticks
			// plus each DIP round boundary; well under a second here.
			if elapsed > 5*time.Second {
				t.Fatalf("cancellation took %v, want prompt return", elapsed)
			}
			if n := waitForGoroutines(base, 2*time.Second); n > base+2 {
				t.Fatalf("goroutines leaked: %d before, %d after", base, n)
			}
		})
	}
}

// A context cancelled before either I/O attack starts must return
// immediately.
func TestSATAttackPreCancelled(t *testing.T) {
	orig := smallCircuit()
	l, err := lockbase.SARLock(orig, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range ioAttacks {
		t.Run(a.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			start := time.Now()
			res := a.run(ctx, l, locking.NewOracle(orig), DefaultIOOptions())
			if !res.TimedOut || res.Exact {
				t.Fatalf("pre-cancelled attack ran anyway: %+v", res)
			}
			if time.Since(start) > time.Second {
				t.Fatalf("pre-cancelled attack took %v", time.Since(start))
			}
		})
	}
}

// Cancellation must reach the Sensitization per-bit solves too.
func TestSensitizationCancellation(t *testing.T) {
	orig := smallCircuit()
	l, err := lockbase.RLL(orig, 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := Sensitization(ctx, l, locking.NewOracle(orig), exec.WithConflicts(100000))
	if !res.TimedOut {
		t.Fatalf("pre-cancelled sensitization did not report TimedOut: %+v", res)
	}
	if res.NumIsolatable != 0 {
		t.Fatalf("pre-cancelled sensitization isolated %d bits", res.NumIsolatable)
	}
}
