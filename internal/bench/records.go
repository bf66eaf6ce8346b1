package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"obfuslock/internal/sat"
)

// Record is one row of the BENCH_*.json artifacts the benchmark harness
// emits (BENCH_sat.json, BENCH_attack.json): wall time and heap
// allocations per op, the cumulative SAT-solver work behind them, and —
// for the attack benchmarks — the oracle-query and DIP-iteration counts
// that make equal-work comparisons honest. All BENCH files share this
// one type so their schemas cannot drift apart; fields a given
// benchmark does not measure are simply omitted.
type Record struct {
	NsPerOp     int64     `json:"ns_per_op"`
	AllocsPerOp int64     `json:"allocs_per_op"`
	Queries     int       `json:"queries,omitempty"`
	Iterations  int       `json:"iterations,omitempty"`
	Solver      sat.Stats `json:"solver"`
}

// ReadRecords parses a BENCH_*.json artifact: a JSON object mapping
// benchmark names to Records. Scalar summary entries living beside the
// records (BENCH_attack.json's "speedup" and "equal_queries") are
// skipped rather than rejected, and unknown per-record fields are
// ignored, so older readers tolerate newer artifacts.
func ReadRecords(r io.Reader) (map[string]Record, error) {
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(r).Decode(&raw); err != nil {
		return nil, err
	}
	out := make(map[string]Record, len(raw))
	for name, msg := range raw {
		trimmed := bytes.TrimSpace(msg)
		if len(trimmed) == 0 || trimmed[0] != '{' {
			continue // summary scalar, not a record
		}
		var rec Record
		if err := json.Unmarshal(trimmed, &rec); err != nil {
			return nil, fmt.Errorf("bench: record %q: %w", name, err)
		}
		out[name] = rec
	}
	return out, nil
}
