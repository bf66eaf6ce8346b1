package core

import (
	"context"
	"testing"

	"obfuslock/internal/netlistgen"
	"obfuslock/internal/obs"
)

// TestLockTraceSpans asserts that a traced lock emits one completed span
// per pipeline phase, with per-attachment gain events under the
// L-construction span.
func TestLockTraceSpans(t *testing.T) {
	col := obs.NewCollector()
	c := netlistgen.Multiplier(6)
	opt := DefaultOptions()
	opt.TargetSkewBits = 8
	opt.Seed = 3
	opt.AllowDirect = false
	opt.Trace = obs.New(col)
	res, err := Lock(context.Background(), c, opt)
	if err != nil {
		t.Fatal(err)
	}
	// lock.assess_skew is absent: it only runs with AllowDirect.
	for _, name := range []string{
		"lock", "lock.build_l", "lock.permute",
		"lock.cec", "lock.blend", "lock.assemble", "lock.rewrite",
	} {
		sd, ok := col.SpanNamed(name)
		if !ok {
			t.Fatalf("missing span %q", name)
		}
		if name != "lock" && sd.Parent == 0 {
			t.Fatalf("span %q has no parent", name)
		}
	}
	// The root span carries the outcome.
	root, _ := col.SpanNamed("lock")
	fields := map[string]any{}
	for _, f := range root.Fields {
		fields[f.Key] = f.Value()
	}
	if fields["key_bits"] != int64(res.Report.KeyBits) {
		t.Fatalf("root span key_bits %v, report %d", fields["key_bits"], res.Report.KeyBits)
	}
	// L-construction emits one attach event per accepted attachment.
	attach := col.EventsNamed("attach")
	if len(attach) == 0 {
		t.Fatal("no attach events")
	}
	if got := attach[len(attach)-1].Fields["n"].(int64); got != int64(res.Report.Attachments) {
		t.Fatalf("last attach n=%d, report counts %d", got, res.Report.Attachments)
	}
	// The tries of one attachment level sample the same condition, so
	// its witness solver is prepared once and cloned for the others.
	if res.Report.Attachments < 2 {
		t.Fatalf("lock made %d attachments; the sampler check needs several", res.Report.Attachments)
	}
	bl, _ := col.SpanNamed("lock.build_l")
	ends := map[string]any{}
	for _, f := range bl.Fields {
		ends[f.Key] = f.Value()
	}
	samplers, _ := ends["samplers"].(int64)
	builds, _ := ends["sampler_builds"].(int64)
	if builds <= 0 || builds >= samplers {
		t.Fatalf("lock.build_l: %d sampler builds for %d samplers, want 0 < builds < samplers", builds, samplers)
	}
	// A failed level retries its tries with the same seeds, so some
	// draws and rejection samples repeat and come from the pool's memo.
	hits, ok1 := ends["sample_hits"].(int64)
	rej, ok2 := ends["rejection_hits"].(int64)
	if !ok1 || !ok2 || hits <= 0 || rej <= 0 {
		t.Fatalf("lock.build_l: sample_hits %v, rejection_hits %v; want both present and positive", ends["sample_hits"], ends["rejection_hits"])
	}
}

// TestLockSubCircuitTraceSpans asserts the sub-circuit path adds the cut
// selection span with the counter's trial events.
func TestLockSubCircuitTraceSpans(t *testing.T) {
	col := obs.NewCollector()
	c := netlistgen.Multiplier(7)
	opt := DefaultOptions()
	opt.TargetSkewBits = 8
	opt.Seed = 1
	opt.SubCircuit = true
	opt.Trace = obs.New(col)
	if _, err := Lock(context.Background(), c, opt); err != nil {
		t.Fatal(err)
	}
	if _, ok := col.SpanNamed("lock.select_cut"); !ok {
		t.Fatal("missing lock.select_cut span")
	}
	if _, ok := col.SpanNamed("count.approx"); !ok {
		t.Fatal("missing count.approx span from cut selection")
	}
}
