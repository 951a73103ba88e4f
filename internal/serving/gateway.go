package serving

import (
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"strconv"
	"time"

	"smiless/internal/metrics"
	"smiless/internal/simulator"
)

// InvokeResponse is the JSON body returned by POST /invoke.
type InvokeResponse struct {
	Request          int     `json:"request"`
	ArrivalSeconds   float64 `json:"arrival_seconds"`
	E2ESeconds       float64 `json:"e2e_seconds"`
	Failed           bool    `json:"failed"`
	DeadlineExceeded bool    `json:"deadline_exceeded,omitempty"`
	Abandoned        bool    `json:"abandoned,omitempty"`
	SLAViolated      bool    `json:"sla_violated"`
}

// HealthResponse is the JSON body returned by GET /healthz.
type HealthResponse struct {
	Status   string  `json:"status"`
	App      string  `json:"app"`
	SLA      float64 `json:"sla_seconds"`
	Window   float64 `json:"window_seconds"`
	Draining bool    `json:"draining"`
	Inflight int     `json:"inflight"`
	Rejected int     `json:"rejected"`
}

// Gateway exposes a Runtime over HTTP:
//
//	POST /invoke           admit one request, block until its terminal Result;
//	                       ?deadline=SECONDS sets a per-request deadline, and
//	                       the client's disconnect cancels (abandons) the request
//	GET  /healthz          liveness + drain state (503 while draining)
//	GET  /metrics          Prometheus text exposition of the live run statistics
//	GET  /statz            the simulator-comparable Report as JSON
//	GET  /trace            Chrome trace JSON of recorded spans (404 without a Recorder)
//	GET  /nodes            per-node health/liveness/container snapshot
//	POST /chaos/kill       ?node=N crash a node's process
//	POST /chaos/restart    ?node=N restart a crashed node (evict + fail over)
//	POST /chaos/partition  ?node=N&healed=1 cut (default) or heal a node's network
//
// Admission failures map to HTTP status codes: ErrOverloaded → 429 with a
// Retry-After hint, ErrDraining/ErrClosed → 503.
type Gateway struct {
	rt     *Runtime
	system string
	mux    *http.ServeMux
}

// NewGateway wraps a runtime. system labels the /metrics and /statz output
// (e.g. the driver name).
func NewGateway(rt *Runtime, system string) *Gateway {
	g := &Gateway{rt: rt, system: system, mux: http.NewServeMux()}
	g.mux.HandleFunc("/invoke", g.handleInvoke)
	g.mux.HandleFunc("/healthz", g.handleHealthz)
	g.mux.HandleFunc("/metrics", g.handleMetrics)
	g.mux.HandleFunc("/statz", g.handleStatz)
	g.mux.HandleFunc("/trace", g.handleTrace)
	g.mux.HandleFunc("/nodes", g.handleNodes)
	g.mux.HandleFunc("/chaos/kill", g.handleChaos(func(rt *Runtime, n int) error { return rt.KillNode(n) }))
	g.mux.HandleFunc("/chaos/restart", g.handleChaos(func(rt *Runtime, n int) error { return rt.RestartNode(n) }))
	g.mux.HandleFunc("/chaos/partition", g.handleChaosPartition)
	return g
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mux.ServeHTTP(w, r)
}

func (g *Gateway) handleInvoke(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	deadline := 0.0
	if q := r.URL.Query().Get("deadline"); q != "" {
		d, err := strconv.ParseFloat(q, 64)
		if err != nil || d < 0 {
			http.Error(w, "deadline must be a non-negative number of seconds", http.StatusBadRequest)
			return
		}
		deadline = d
	}
	ch, err := g.rt.InvokeWithDeadline(r.Context(), deadline)
	if err != nil {
		switch {
		case errors.Is(err, ErrOverloaded):
			// Hint load generators to back off for roughly one decision
			// window — the cadence at which capacity is re-planned.
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(g.rt.Config().Window)))
			http.Error(w, err.Error(), http.StatusTooManyRequests)
		case errors.Is(err, ErrDraining), errors.Is(err, ErrClosed):
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		default:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	select {
	case res := <-ch:
		writeJSON(w, http.StatusOK, InvokeResponse{
			Request:          res.ReqID,
			ArrivalSeconds:   res.Arrival,
			E2ESeconds:       res.E2E,
			Failed:           res.Failed,
			DeadlineExceeded: res.DeadlineExceeded,
			Abandoned:        res.Abandoned,
			SLAViolated:      res.SLAViolated,
		})
	case <-r.Context().Done():
		// Client went away; the runtime's abandonment watcher (armed because
		// we passed r.Context above) cancels the request, frees its admission
		// slot and accounts it as Abandoned.
	}
}

// retryAfterSeconds rounds the decision window up to a whole second, the
// granularity Retry-After speaks (minimum 1).
func retryAfterSeconds(window float64) int {
	s := int(window)
	if float64(s) < window {
		s++
	}
	if s < 1 {
		s = 1
	}
	return s
}

func (g *Gateway) handleNodes(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, g.rt.NodeInfos())
}

// handleChaos adapts a node-targeted admin action to an HTTP endpoint taking
// ?node=N.
func (g *Gateway) handleChaos(action func(*Runtime, int) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		n, ok := g.chaosNode(w, r)
		if !ok {
			return
		}
		if err := action(g.rt, n); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, http.StatusOK, g.rt.NodeInfos())
	}
}

func (g *Gateway) handleChaosPartition(w http.ResponseWriter, r *http.Request) {
	n, ok := g.chaosNode(w, r)
	if !ok {
		return
	}
	healed := r.URL.Query().Get("healed") != ""
	if err := g.rt.SetPartitioned(n, !healed); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusOK, g.rt.NodeInfos())
}

func (g *Gateway) chaosNode(w http.ResponseWriter, r *http.Request) (int, bool) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return 0, false
	}
	n, err := strconv.Atoi(r.URL.Query().Get("node"))
	if err != nil {
		http.Error(w, "node must be an integer index", http.StatusBadRequest)
		return 0, false
	}
	return n, true
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	cfg := g.rt.Config()
	resp := HealthResponse{
		Status:   "ok",
		App:      cfg.App.Name,
		SLA:      cfg.SLA,
		Window:   cfg.Window,
		Draining: g.rt.Draining(),
		Inflight: g.rt.Inflight(),
		Rejected: g.rt.Rejected(),
	}
	code := http.StatusOK
	if resp.Draining {
		resp.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := g.rt.Snapshot()
	now := g.rt.Now()
	store := metrics.NewStore()
	labels := metrics.Labels{"system": g.system, "app": g.rt.Config().App.Name}
	st.RecordMetrics(store, labels, now)
	store.Record("smiless_gateway_inflight", labels, now, float64(g.rt.Inflight()))
	store.Record("smiless_gateway_rejected_total", labels, now, float64(g.rt.Rejected()))
	store.Record("smiless_live_cost_dollars", labels, now, g.rt.LiveCost())
	for fn, n := range g.rt.LiveContainers() {
		l := metrics.Labels{"system": g.system, "app": g.rt.Config().App.Name, "function": fn}
		store.Record("smiless_live_containers", l, now, float64(n))
	}
	for fn, n := range g.rt.QueueLens() {
		l := metrics.Labels{"system": g.system, "app": g.rt.Config().App.Name, "function": fn}
		store.Record("smiless_queue_depth", l, now, float64(n))
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := store.WriteText(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (g *Gateway) handleStatz(w http.ResponseWriter, r *http.Request) {
	st := g.rt.Snapshot()
	rep := simulator.BuildReport(g.system, g.rt.Config().App.Name, st)
	writeJSON(w, http.StatusOK, rep)
}

func (g *Gateway) handleTrace(w http.ResponseWriter, r *http.Request) {
	rec := g.rt.cfg.Recorder
	if rec == nil {
		http.Error(w, "no recorder attached", http.StatusNotFound)
		return
	}
	// The recorder is only safe to read under the runtime lock; hold it for
	// the duration of the export (trace export is an offline/debug path).
	g.rt.mu.Lock()
	defer g.rt.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	if err := rec.WriteChromeTrace(w, g.rt.Now()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Serve runs an HTTP server for the gateway on ln until stop is closed,
// then drains the runtime (bounded by drainTimeout), shuts the server down
// and closes the runtime. The caller creates the listener, so binding to
// port 0 and publishing the chosen address works.
func (g *Gateway) Serve(srv *http.Server, ln net.Listener, stop <-chan struct{}, drainTimeout time.Duration) error {
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-stop:
	}
	// Stop admitting, let inflight requests finish, then close.
	drainErr := g.rt.Drain(drainTimeout)
	_ = srv.Close()
	g.rt.Close()
	if drainErr != nil {
		return drainErr
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
