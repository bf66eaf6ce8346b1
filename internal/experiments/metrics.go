package experiments

import (
	"encoding/json"
	"io"
)

// MetricsSchema identifies the metrics.json layout; bump on breaking
// changes so downstream tooling can detect stale files.
const MetricsSchema = "obfuslock-table1/v1"

// MetricsRow is the machine-readable form of one TableIRow.
type MetricsRow struct {
	Bench       string  `json:"bench"`
	Nodes       int     `json:"nodes"`
	SkewBits    float64 `json:"skew_bits"`
	KeyBits     int     `json:"key_bits"`
	LockSeconds float64 `json:"lock_seconds"`
	// Attacks maps attack-cell name (sat_sub, sat_whole, appsat_sub,
	// appsat_whole) to the paper's cell convention: decrypt seconds as a
	// string, "TO", or "wrong".
	Attacks map[string]string `json:"attacks"`
}

// MetricsFile is the top-level metrics.json document written by
// cmd/attack -table1.
type MetricsFile struct {
	Schema string       `json:"schema"`
	Rows   []MetricsRow `json:"rows"`
}

// NewMetricsFile converts sweep rows into the metrics.json document.
func NewMetricsFile(rows []TableIRow) MetricsFile {
	mf := MetricsFile{Schema: MetricsSchema, Rows: make([]MetricsRow, 0, len(rows))}
	for _, r := range rows {
		lockSeconds := r.LockTime.Seconds()
		if r.Deterministic {
			// Wall-clock time is the one column that cannot be byte-stable
			// across runs; deterministic sweeps zero it.
			lockSeconds = 0
		}
		mf.Rows = append(mf.Rows, MetricsRow{
			Bench:       r.Bench,
			Nodes:       r.Nodes,
			SkewBits:    r.SkewBits,
			KeyBits:     r.KeyBits,
			LockSeconds: lockSeconds,
			Attacks: map[string]string{
				"sat_sub":      r.SATSub,
				"sat_whole":    r.SATWhole,
				"appsat_sub":   r.AppSATSub,
				"appsat_whole": r.AppSATWhole,
			},
		})
	}
	return mf
}

// WriteMetricsJSON writes the metrics.json document for a Table I sweep.
func WriteMetricsJSON(w io.Writer, rows []TableIRow) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(NewMetricsFile(rows))
}
