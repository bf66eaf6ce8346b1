package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"strconv"
)

// newDebugMux builds the live introspection mux served by -debug-addr:
//
//	/metrics        ordered text snapshot of the registry (?format=json for JSON)
//	/flight         flight-recorder dump as JSONL
//	/debug/pprof/*  the standard runtime profiling endpoints
//
// It registers on a private mux, not http.DefaultServeMux, so the
// process's global handler space stays untouched. tr and fl may be nil;
// the endpoints then serve empty documents.
func newDebugMux(tr *Tracer, fl *Flight) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		snaps := tr.Metrics()
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			out := make([]LedgerMetric, 0, len(snaps))
			for _, m := range snaps {
				out = append(out, LedgerMetric{
					Name: m.Name, Kind: m.Kind, Value: m.Value,
					Count: m.Count, Sum: m.Sum, Min: m.Min, Max: m.Max,
					P50: m.P50, P90: m.P90, P99: m.P99,
				})
			}
			json.NewEncoder(w).Encode(out)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, m := range snaps {
			switch m.Kind {
			case "histogram":
				fmt.Fprintf(w, "%s{kind=histogram} count=%d sum=%s min=%s max=%s p50=%s p90=%s p99=%s\n",
					m.Name, m.Count, ftoa(m.Sum), ftoa(m.Min), ftoa(m.Max),
					ftoa(m.P50), ftoa(m.P90), ftoa(m.P99))
			default:
				fmt.Fprintf(w, "%s{kind=%s} %s\n", m.Name, m.Kind, ftoa(m.Value))
			}
		}
	})
	mux.HandleFunc("/flight", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		fl.WriteTo(w)
	})
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	return mux
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// ListenDebug starts the introspection server on addr (":0" picks a
// free port) and returns the bound address. The server runs on a
// background goroutine for the life of the process; errors after a
// successful bind are dropped, matching the best-effort nature of a
// debug surface.
func ListenDebug(addr string, tr *Tracer, fl *Flight) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: newDebugMux(tr, fl)}
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}
