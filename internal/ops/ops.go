// Package ops is the live operations plane of the DistScroll reproduction:
// a dependency-free HTTP server that exposes a running fleet's telemetry
// registry while the run is in flight. The paper measures DistScroll after
// the fact; a service pushing a million simulated devices needs to be
// watchable *during* the run — scrape progress, spot a stall, pull a
// profile — without stopping it.
//
// Endpoints:
//
//	/metrics       Prometheus text exposition of a registry snapshot
//	/vars          the same snapshot as indented JSON
//	/healthz       200 while the SLO watchdog is clean, 503 with the
//	               breach list as JSON once it fires (always 200 without one)
//	/api/history   retained telemetry history as JSON (?k=, ?series=, ?prefix=)
//	/api/device    one device's receive counters and latency histogram as
//	               JSON (?id=N), read from its session: the drill-down for
//	               devices past the per-device series budget
//	/dash          self-contained live HTML+SVG dashboard over /api/history
//	/debug/pprof/  the standard Go profiling endpoints
//
// Every scrape takes one registry snapshot: counters are atomics and the
// scale path's shard collector reads only published copies, so scraping
// never blocks a tick loop. Overhead is bounded by snapshot cost times
// scrape rate, not by fleet size per request beyond the merge itself.
package ops

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hcilab/distscroll/internal/core"
	"github.com/hcilab/distscroll/internal/history"
	"github.com/hcilab/distscroll/internal/telemetry"
)

// Config wires a server to its data sources.
type Config struct {
	// Registry is scraped on every /metrics and /vars request.
	Registry *telemetry.Registry
	// Watchdog, when set, drives /healthz: 503 once it has breached.
	Watchdog *Watchdog
	// History, when set, serves /api/history and feeds /dash.
	History *history.Store
	// Lookup, when set, serves /api/device: it resolves a device id to
	// its hub session, false when the device is unknown.
	Lookup func(id uint32) (*core.Session, bool)
}

// Server is a running ops HTTP server.
type Server struct {
	ln  net.Listener
	srv *http.Server
	wd  atomic.Pointer[Watchdog]

	// Close is idempotent: concurrent and repeated closes collapse to
	// one srv.Close, every caller seeing its error.
	closeOnce sync.Once
	closeErr  error
}

// Serve starts the ops plane on addr (host:port; port 0 picks a free one)
// and returns once the listener is bound, so the reported Addr is always
// scrapeable. The HTTP loop runs on its own goroutine until Close.
func Serve(addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ops: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln}
	if cfg.Watchdog != nil {
		s.wd.Store(cfg.Watchdog)
	}
	s.srv = &http.Server{
		// /healthz reads its watchdog through the server so SetWatchdog
		// can attach it after the listener is already up (a fleet binds
		// its port at construction, its watchdog at run start).
		Handler:           withDevice(handler(cfg.Registry, s.wd.Load, cfg.History), cfg.Lookup),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go s.srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return s, nil
}

// SetWatchdog points /healthz at w (nil detaches, making the endpoint
// always healthy). Safe while serving and safe on nil.
func (s *Server) SetWatchdog(w *Watchdog) {
	if s == nil {
		return
	}
	s.wd.Store(w)
}

// Addr returns the bound listen address (useful with port 0).
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// URL returns the server's base URL.
func (s *Server) URL() string {
	if s == nil {
		return ""
	}
	return "http://" + s.Addr()
}

// Close stops the listener and the HTTP loop. Safe on nil, idempotent,
// and safe against concurrent callers and in-flight scrapes: every call
// returns the first close's result.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	s.closeOnce.Do(func() { s.closeErr = s.srv.Close() })
	return s.closeErr
}

// Handler builds the ops mux without binding a listener — the unit-test
// and embedding entry point.
func Handler(cfg Config) http.Handler {
	return withDevice(handler(cfg.Registry,
		func() *Watchdog { return cfg.Watchdog }, cfg.History), cfg.Lookup)
}

// healthzBody is the /healthz 503 JSON schema.
type healthzBody struct {
	Status   string   `json:"status"`
	Breaches []Breach `json:"breaches"`
}

// deviceBody is the /api/device JSON schema. Latency is absent for an
// uninstrumented session.
type deviceBody struct {
	Device  uint32                       `json:"device"`
	Stats   core.HostStats               `json:"stats"`
	Latency *telemetry.HistogramSnapshot `json:"latency,omitempty"`
}

// withDevice adds the /api/device drill-down over lookup to mux. A nil
// lookup serves 404: the process has no sessions to read (a scale run, a
// client forwarding to a remote gateway).
func withDevice(mux *http.ServeMux, lookup func(uint32) (*core.Session, bool)) http.Handler {
	mux.HandleFunc("/api/device", func(w http.ResponseWriter, r *http.Request) {
		if lookup == nil {
			http.Error(w, "device drill-down not available in this process", http.StatusNotFound)
			return
		}
		id, err := strconv.ParseUint(r.URL.Query().Get("id"), 10, 32)
		if err != nil {
			http.Error(w, "id must be a device id in [0, 4294967295]", http.StatusBadRequest)
			return
		}
		s, ok := lookup(uint32(id))
		if !ok {
			http.Error(w, fmt.Sprintf("device %d unknown", id), http.StatusNotFound)
			return
		}
		body := deviceBody{Device: uint32(id), Stats: s.Stats()}
		if h, ok := s.Latency(); ok {
			h.P50, h.P90, h.P99 = h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99)
			body.Latency = &h
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(body) //nolint:errcheck // client went away
	})
	return mux
}

// handler is the mux over a registry, a watchdog accessor (read per
// request, so a served fleet can attach its watchdog late) and a history
// store (nil serves 404).
func handler(reg *telemetry.Registry, watchdog func() *Watchdog, hist *history.Store) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "distscroll ops plane\n\n"+
			"/metrics       Prometheus exposition\n"+
			"/vars          JSON snapshot\n"+
			"/healthz       SLO watchdog state\n"+
			"/api/history   retained telemetry history (JSON)\n"+
			"/api/device    one device's counters and latency (?id=N)\n"+
			"/dash          live dashboard\n"+
			"/debug/pprof/  Go profiling\n")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.Snapshot().WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if err := reg.Snapshot().WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		wd := watchdog()
		if wd.Healthy() {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprint(w, "ok\n")
			return
		}
		// Breached: structured JSON so tooling gets the rule, metric,
		// value, limit, and window without parsing prose.
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.WriteHeader(http.StatusServiceUnavailable)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(healthzBody{Status: "slo breach", Breaches: wd.Breaches()}) //nolint:errcheck
	})
	mux.HandleFunc("/api/history", func(w http.ResponseWriter, r *http.Request) {
		if hist == nil {
			http.Error(w, "history disabled (enable WithHistory / -history-windows)", http.StatusNotFound)
			return
		}
		var q history.Query
		if v := r.URL.Query().Get("k"); v != "" {
			k, err := strconv.Atoi(v)
			if err != nil || k < 0 {
				http.Error(w, "k must be a non-negative integer", http.StatusBadRequest)
				return
			}
			q.LastK = k
		}
		if v := r.URL.Query().Get("series"); v != "" {
			q.Series = strings.Split(v, ",")
		}
		if v := r.URL.Query().Get("prefix"); v != "" {
			q.Prefixes = strings.Split(v, ",")
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		hist.WriteJSON(w, q) //nolint:errcheck // client went away
	})
	mux.HandleFunc("/dash", func(w http.ResponseWriter, _ *http.Request) {
		if hist == nil {
			http.Error(w, "history disabled (enable WithHistory / -history-windows)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		io.WriteString(w, dashHTML) //nolint:errcheck
	})
	// net/http/pprof self-registers on DefaultServeMux at import; wire its
	// handlers onto this private mux instead so the ops port is the only
	// place they appear.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
