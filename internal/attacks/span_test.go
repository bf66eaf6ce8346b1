package attacks

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"obfuslock/internal/lockbase"
	"obfuslock/internal/locking"
	"obfuslock/internal/netlistgen"
	"obfuslock/internal/obs"
)

// spanEnds records the end fields and duration of every span by name.
type spanEnds struct {
	mu   sync.Mutex
	ends map[string]map[string]any
	durs map[string]time.Duration
}

func (s *spanEnds) SpanStart(obs.SpanData) {}
func (s *spanEnds) SpanEnd(sd obs.SpanData) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fields := map[string]any{}
	for _, f := range sd.Fields {
		fields[f.Key] = f.Value()
	}
	s.ends[sd.Name] = fields
	s.durs[sd.Name] = sd.Duration
}
func (s *spanEnds) Event(uint64, string, time.Time, []obs.Field) {}

// The attack spans end with the formula's size — key_nodes folded by the
// I/O constraints, the solver's variable count and reencoded_nodes, the
// graph nodes given a fresh variable after inprocessing eliminated
// theirs — and recording them never changes the attack. SARLock's 40
// DIPs run inprocessing twice and reach eliminated nodes again; with
// inprocessing off no node is ever re-encoded.
func TestAttackSpanReportsFormulaSize(t *testing.T) {
	orig := netlistgen.Multiplier(4)
	l, err := lockbase.SARLock(orig, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func(context.Context, *locking.Locked, *locking.Oracle, IOOptions) IOResult{
		"attack.sat":    SATAttack,
		"attack.appsat": AppSAT,
	} {
		opt := DefaultIOOptions()
		opt.MaxIterations = 40
		plain := run(context.Background(), l, locking.NewOracle(orig), opt)
		sink := &spanEnds{ends: map[string]map[string]any{}, durs: map[string]time.Duration{}}
		opt.Trace = obs.New(sink)
		traced := run(context.Background(), l, locking.NewOracle(orig), opt)
		plain.Runtime, traced.Runtime = 0, 0
		if !reflect.DeepEqual(plain, traced) {
			t.Fatalf("%s: tracing changed the attack:\n%+v\n%+v", name, plain, traced)
		}
		end := sink.ends[name]
		for _, k := range []string{"key_nodes", "vars", "reencoded_nodes"} {
			if v, ok := end[k].(int64); !ok || v <= 0 {
				t.Errorf("%s: span end %s = %v, want a positive count", name, k, end[k])
			}
		}
		opt.NoSimp = true
		run(context.Background(), l, locking.NewOracle(orig), opt)
		if v := sink.ends[name]["reencoded_nodes"]; v != int64(0) {
			t.Errorf("%s with inprocessing off: reencoded_nodes = %v, want 0", name, v)
		}
	}
}

// The attack spans split their time into the solves (DIPs and key
// extraction), the encoding of each round's I/O constraints and the
// oracle queries; the three parts are disjoint stretches of the span.
func TestAttackSpanSplitsTime(t *testing.T) {
	orig := netlistgen.Multiplier(4)
	l, err := lockbase.RLL(orig, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func(context.Context, *locking.Locked, *locking.Oracle, IOOptions) IOResult{
		"attack.sat":    SATAttack,
		"attack.appsat": AppSAT,
	} {
		opt := DefaultIOOptions()
		opt.MaxIterations = 40
		sink := &spanEnds{ends: map[string]map[string]any{}, durs: map[string]time.Duration{}}
		opt.Trace = obs.New(sink)
		run(context.Background(), l, locking.NewOracle(orig), opt)
		end := sink.ends[name]
		var sum int64
		for _, k := range []string{"solve_us", "encode_us", "oracle_us"} {
			v, ok := end[k].(int64)
			if !ok || v < 0 {
				t.Fatalf("%s: span end %s = %v, want a duration in µs", name, k, end[k])
			}
			sum += v
		}
		if dur := sink.durs[name].Microseconds(); sum > dur {
			t.Errorf("%s: solve+encode+oracle = %d µs, more than the span's %d µs", name, sum, dur)
		}
	}
}
