package obs

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// LedgerSchema identifies the ledger.json layout; bump on breaking
// changes so cross-run trajectory tooling can detect stale files.
const LedgerSchema = "obfuslock-ledger/v2"

// Ledger is the run ledger: one JSON document per CLI invocation
// recording what ran (tool, args, build), on what (go version,
// GOOS/GOARCH), for how long, at what peak memory, and the per-phase
// span rollup. Accumulated across runs, ledgers give the perf trajectory
// of the project — the cross-run counterpart to a single run's
// metrics.json.
type Ledger struct {
	Schema    string   `json:"schema"`
	Tool      string   `json:"tool"`
	Args      []string `json:"args"`
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	// BuildRevision is the VCS revision baked into the binary
	// (git-describe style: short hash, "+dirty" when the tree was
	// modified, or "devel" when no VCS stamp is present).
	BuildRevision string    `json:"build_revision"`
	Start         time.Time `json:"start"`
	End           time.Time `json:"end"`
	WallSeconds   float64   `json:"wall_seconds"`
	// PeakRSSBytes is the process's high-water resident set size (VmHWM
	// on Linux; 0 where the platform offers no cheap source).
	PeakRSSBytes int64 `json:"peak_rss_bytes"`
	// Spans is the run's span rollup, sorted by span name.
	Spans []SpanTotal `json:"spans,omitempty"`
}

// NewLedger opens a ledger for the named tool, stamping the start time,
// command-line args, and build identity.
func NewLedger(tool string) *Ledger {
	return &Ledger{
		Schema:        LedgerSchema,
		Tool:          tool,
		Args:          append([]string(nil), os.Args[1:]...),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		BuildRevision: buildRevision(),
		Start:         time.Now(),
	}
}

// Finish stamps the end time, wall duration, peak RSS, and the span
// totals of r (which may be nil).
func (l *Ledger) Finish(r *Rollup) {
	l.End = time.Now()
	l.WallSeconds = l.End.Sub(l.Start).Seconds()
	l.PeakRSSBytes = peakRSSBytes()
	l.Spans = r.Spans()
}

// WriteFile writes the ledger as indented JSON to path.
func (l *Ledger) WriteFile(path string) error {
	data, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// buildRevision extracts a git-describe-style revision from the
// binary's embedded build info.
func buildRevision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "devel"
	}
	rev, dirty := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "devel"
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// peakRSSBytes returns the process's peak resident set size, or 0 when
// the platform offers no cheap source. On Linux it parses VmHWM from
// /proc/self/status.
func peakRSSBytes() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb * 1024
	}
	return 0
}
