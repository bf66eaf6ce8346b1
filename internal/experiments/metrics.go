package experiments

import (
	"encoding/json"
	"io"

	"obfuslock/internal/obs"
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

// MetricsMetric mirrors one obs.MetricSnapshot in JSON form.
type MetricsMetric struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"`
	Value float64 `json:"value,omitempty"`
	Count int64   `json:"count,omitempty"`
	Sum   float64 `json:"sum,omitempty"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
	P50   float64 `json:"p50,omitempty"`
	P90   float64 `json:"p90,omitempty"`
	P99   float64 `json:"p99,omitempty"`
}

// MetricsFile is the top-level metrics.json document written by
// cmd/attack -table1.
type MetricsFile struct {
	Schema  string          `json:"schema"`
	Rows    []MetricsRow    `json:"rows"`
	Metrics []MetricsMetric `json:"metrics,omitempty"`
}

// NewMetricsFile converts sweep rows (and, when tr is non-nil, its
// registered counters and histograms) into the metrics.json document.
func NewMetricsFile(rows []TableIRow, tr *obs.Tracer) MetricsFile {
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
	for _, m := range tr.Metrics() {
		mf.Metrics = append(mf.Metrics, MetricsMetric{
			Name: m.Name, Kind: m.Kind, Value: m.Value,
			Count: m.Count, Sum: m.Sum, Min: m.Min, Max: m.Max,
			P50: m.P50, P90: m.P90, P99: m.P99,
		})
	}
	return mf
}

// WriteMetricsJSON writes the metrics.json document for a Table I sweep.
func WriteMetricsJSON(w io.Writer, rows []TableIRow, tr *obs.Tracer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(NewMetricsFile(rows, tr))
}
