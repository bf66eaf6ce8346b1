package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestValidateFlags pins which command lines each mode accepts: every
// flag a mode does not read is rejected by name, and the invocations the
// docs and CI use stay valid.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring of the error; "" means accepted
	}{
		// Invocations from CI, the README and EXPERIMENTS.md.
		{[]string{"-table1", "-small", "-det", "-skews", "8", "-maxiter", "40", "-workers", "4", "-metrics", "m.json"}, ""},
		{[]string{"-table1", "-small", "-det", "-skews", "8", "-maxiter", "40", "-simp=false", "-workers", "1"}, ""},
		{[]string{"-table1", "-small", "-det", "-skews", "8", "-maxiter", "40", "-dip-batch", "1"}, ""},
		{[]string{"-table1", "-small", "-det", "-trace", "t.jsonl", "-ledger", "l.json", "-pprof", "p"}, ""},
		{[]string{"-table1", "-skews", "10,20,30", "-timeout", "30m"}, ""},
		{[]string{"-structural", "-small", "-skews", "10", "-workers", "2"}, ""},
		{[]string{"-fig4"}, ""},
		{[]string{"-fig5", "-skews", "10,20,30,50"}, ""},
		{[]string{"-enc", "l.bench", "-oracle", "o.bench", "-attack", "sat", "-timeout", "120s", "-trace", "t.jsonl", "-ledger", "l.json", "-v"}, ""},
		{[]string{"-enc", "l.bench", "-oracle", "o.bench", "-attack", "sat", "-maxiter", "20", "-timeout", "30s"}, ""},
		{[]string{"-enc", "l.bench", "-oracle", "o.bench", "-attack", "appsat", "-simp=false"}, ""},
		{[]string{"-enc", "l.bench", "-oracle", "o.bench", "-dip-batch", "1", "-pprof", "p"}, ""},
		{[]string{"-enc", "l.bench", "-oracle", "o.bench", "-attack", "spi"}, ""},
		{[]string{"-enc", "l.bench", "-oracle", "o.bench", "-attack", "removal", "-sweep=false", "-trace", "t.jsonl"}, ""},
		{[]string{"-enc", "l.bench", "-oracle", "o.bench", "-attack", "valkyrie", "-sweep=false", "-seed", "3"}, ""},

		// Flags the experiment modes other than -table1 never read.
		{[]string{"-structural", "-small", "-skews", "10", "-trace", "x.jsonl"}, "-trace not read by -structural"},
		{[]string{"-fig4", "-small", "-simp=false"}, "-simp not read by -fig4"},
		{[]string{"-fig5", "-dip-batch", "1"}, "-dip-batch not read by -fig5"},
		{[]string{"-structural", "-sweep=false"}, "-sweep not read by -structural"},
		{[]string{"-structural", "-small", "-sweep"}, "-sweep not read by -structural"},
		{[]string{"-fig4", "-timeout", "1s"}, "-timeout not read by -fig4"},
		{[]string{"-fig5", "-maxiter", "10"}, "-maxiter not read by -fig5"},
		{[]string{"-structural", "-metrics", "m.json"}, "-metrics not read by -structural"},
		{[]string{"-fig4", "-det"}, "-det not read by -fig4"},
		{[]string{"-fig4", "-trace", "x", "-maxiter", "1"}, "-maxiter, -trace not read by -fig4"},

		// -table1 reads neither the attack-only flags nor -v.
		{[]string{"-table1", "-small", "-det", "-sweep=false"}, "-sweep not read by -table1"},
		{[]string{"-table1", "-sweep=true"}, "-sweep not read by -table1"},
		{[]string{"-table1", "-v"}, "-v not read by -table1"},
		{[]string{"-table1", "-enc", "l.bench"}, "-enc not read by -table1"},
		{[]string{"-table1", "-attack", "appsat"}, "-attack not read by -table1"},

		// Single-attack mode reads no experiment flag, and each attack
		// only its own knobs.
		{[]string{"-enc", "l.bench", "-oracle", "o.bench", "-metrics", "m.json"}, "-metrics not read by -attack sat"},
		{[]string{"-enc", "l.bench", "-oracle", "o.bench", "-small", "-workers", "2"}, "-small, -workers not read by -attack sat"},
		{[]string{"-enc", "l.bench", "-oracle", "o.bench", "-sweep=false"}, "-sweep not read by -attack sat"},
		{[]string{"-enc", "l.bench", "-oracle", "o.bench", "-attack", "spi", "-timeout", "1s"}, "-timeout not read by -attack spi"},
		{[]string{"-enc", "l.bench", "-oracle", "o.bench", "-attack", "sensitization", "-trace", "x"}, "-trace not read by -attack sensitization"},
		{[]string{"-enc", "l.bench", "-oracle", "o.bench", "-attack", "removal", "-maxiter", "5"}, "-maxiter not read by -attack removal"},
		{[]string{"-enc", "l.bench", "-oracle", "o.bench", "-attack", "sensitization", "-simp=false"}, "-simp not read by -attack sensitization"},
		{[]string{"-enc", "l.bench", "-oracle", "o.bench", "-attack", "removal", "-simp=false"}, "-simp not read by -attack removal"},
		{[]string{"-enc", "l.bench", "-oracle", "o.bench", "-attack", "bypass", "-simp"}, "-simp not read by -attack bypass"},
		{[]string{"-enc", "l.bench", "-oracle", "o.bench", "-attack", "valkyrie", "-simp=false"}, "-simp not read by -attack valkyrie"},

		// Mode selection itself.
		{[]string{"-table1", "-fig4"}, "pick one experiment mode"},
		{[]string{"-enc", "l.bench"}, "-enc and -oracle are required"},
		{nil, "-enc and -oracle are required"},
		{[]string{"-enc", "l.bench", "-oracle", "o.bench", "-attack", "portfolio"}, `unknown attack "portfolio"`},
	}
	for _, tc := range cases {
		fs := flag.NewFlagSet("attack", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		var cfg config
		cfg.register(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%q: parse: %v", tc.args, err)
		}
		err := validateFlags(fs, &cfg)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%q rejected: %v", tc.args, err)
		case tc.want != "" && err == nil:
			t.Errorf("%q accepted, want an error containing %q", tc.args, tc.want)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%q: error %q, want it to contain %q", tc.args, err, tc.want)
		}
	}
}
