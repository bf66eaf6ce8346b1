package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestValidateFlags pins the command lines obfuslock accepts and the
// flags it rejects because the run would not read them.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring of the error; "" means accepted
	}{
		// Invocations from CI, the README and the package doc.
		{[]string{"-in", "design.bench", "-skew", "20", "-out", "locked.bench", "-key", "key.txt"}, ""},
		{[]string{"-bench", "c6288", "-skew", "30", "-sub", "-out", "locked.bench"}, ""},
		{[]string{"-bench", "c7552-s", "-skew", "8", "-trace", "t.jsonl", "-ledger", "l.json", "-pprof", "p", "-v"}, ""},
		{[]string{"-bench", "c7552-s", "-resilience", "10s", "-dip-batch", "1"}, ""},
		{[]string{"-bench", "c7552-s", "-sweep=false"}, ""},
		{[]string{"-bench", "c7552-s", "-verify=true", "-sweep"}, ""},
		{[]string{"-bench", "c7552-s", "-resilience", "10s", "-simp=false"}, ""},
		{[]string{"-bench", "c6288", "-sub", "-mincut", "12"}, ""},

		// Flags the run does not read.
		{[]string{"-bench", "c7552-s", "-dip-batch", "4"}, "-dip-batch not read without -resilience"},
		{[]string{"-bench", "c7552-s", "-resilience", "0", "-dip-batch", "1"}, "-dip-batch not read without -resilience"},
		{[]string{"-bench", "c7552-s", "-verify=false", "-simp=false"}, "-simp not read without -resilience"},
		{[]string{"-bench", "c7552-s", "-simp"}, "-simp not read without -resilience"},
		{[]string{"-bench", "c7552-s", "-verify=false", "-sweep"}, "-sweep not read with -verify=false"},
		{[]string{"-bench", "c7552-s", "-sweep=false", "-verify=false"}, "-sweep not read with -verify=false"},
		{[]string{"-bench", "c7552-s", "-mincut", "8"}, "-mincut not read without -sub"},
		{[]string{"-bench", "c7552-s", "-sub=false", "-mincut", "8"}, "-mincut not read without -sub"},
		{[]string{"-bench", "c7552-s", "-mincut", "8", "-dip-batch", "1"},
			"-dip-batch not read without -resilience; -mincut not read without -sub"},
	}
	for _, tc := range cases {
		fs := flag.NewFlagSet("obfuslock", flag.ContinueOnError)
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
